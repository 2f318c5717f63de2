/**
 * @file
 * Skitter macro model: the on-chip timing-uncertainty sensor used for
 * all noise measurements in the paper (sections III, V, VI).
 *
 * A skitter is a latched-tapped delay line of 129 inverters that
 * captures where the clock edge lands each cycle. Inverter delay is
 * strongly voltage dependent (alpha-power law), so supply droop moves
 * the captured edge; running in sticky mode records every latch position
 * touched over a measurement window, and the result is reported as
 * percentage peak-to-peak variation (%p2p) of the edge position.
 *
 * The latched position is monotone non-decreasing in voltage, so the
 * lowest and highest latch a sticky window touches are the latches of
 * its lowest and highest voltage. A sensor reading built on a
 * simulation can therefore feed a fresh skitter just the window's two
 * voltage extremes at the end instead of sampling every step; the chip
 * model reads all its skitters this way.
 *
 * The model keeps the two properties the paper leans on:
 *  - discretized readings (integer latch positions -> the step-function
 *    look of Fig. 7a), and
 *  - compressed sensitivity at deep droops (the diminishing linearity
 *    between Vnoise and skitter readings noted in section V-E).
 */

#ifndef VN_MEASURE_SKITTER_HH
#define VN_MEASURE_SKITTER_HH

namespace vn
{

/** Electrical parameters of the skitter delay line. */
struct SkitterParams
{
    int inverters = 129;           //!< delay line length (latches)
    double nominal_delay_s = 3.25e-12; //!< per-inverter delay at vnom
    double vnom = 1.05;            //!< calibration supply voltage
    double vth = 0.37;             //!< effective threshold voltage
    double alpha = 1.3;            //!< alpha-power-law exponent
    double gain = 2.0;             //!< sensitivity multiplier (stage
                                   //!< stacking + jitter accumulation)
    double clock_hz = 5.5e9;
};

/**
 * One skitter macro instance. Feed it voltage samples (sticky mode) and
 * read the %p2p at the end of the window.
 */
class Skitter
{
  public:
    explicit Skitter(SkitterParams params = SkitterParams{});

    /**
     * Continuous edge position (in inverter units) for an instantaneous
     * supply voltage. Clamped to [0, inverters].
     */
    double edgePosition(double v) const;

    /**
     * Latched (integer) edge position for a voltage; monotone
     * non-decreasing in v.
     */
    int latchedPosition(double v) const;

    /** Edge position at the calibration voltage. */
    double nominalPosition() const { return nominal_position_; }

    /** Record one voltage sample (sticky min/max update). */
    void sample(double v);

    /** Clear the sticky state for a new measurement window. */
    void reset();

    /** Number of samples recorded since reset(). */
    long sampleCount() const { return samples_; }

    /** Lowest latch position touched (deepest droop). */
    int minPosition() const;

    /** Highest latch position touched (highest overshoot). */
    int maxPosition() const;

    /**
     * Peak-to-peak edge variation as a percentage of the nominal
     * position: the paper's %p2p metric. 0 when no samples recorded.
     */
    double percentP2p() const;

    const SkitterParams &params() const { return params_; }

  private:
    SkitterParams params_;
    double nominal_position_;
    long samples_ = 0;
    int min_pos_ = 0;
    int max_pos_ = 0;
};

class Waveform;

/**
 * Offline replay: feed a captured voltage waveform (e.g. a scope trace
 * loaded from CSV) through a skitter and return the %p2p it would have
 * read in sticky mode. Connects oscilloscope post-processing with the
 * on-chip sensor view (the paper cross-checks the two, section III).
 */
double replaySkitter(const Waveform &trace,
                     SkitterParams params = SkitterParams{});

} // namespace vn

#endif // VN_MEASURE_SKITTER_HH
