/**
 * @file
 * Vmin experiment: find the available voltage margin by lowering the
 * operating voltage in 0.5% steps until the R-Unit detects the first
 * failure (paper section III, "the ultimate bullet-proof method to
 * check the available voltage margin"; results in Fig. 12).
 */

#ifndef VN_CHIP_VMIN_HH
#define VN_CHIP_VMIN_HH

#include <array>

#include "chip/chip.hh"

namespace vn
{

/** Outcome of a Vmin experiment. */
struct VminResult
{
    /**
     * Bias fraction at first failure (e.g. 0.045 = failed when the
     * supply was lowered by 4.5%). This is the "available margin".
     */
    double bias_at_failure = 0.0;

    /**
     * Voltage steps up to and including the first failing one (all of
     * them when none failed): the count a one-step-at-a-time ladder
     * executes. The search may simulate a few steps beyond it.
     */
    int steps = 0;

    /** True when a failure was actually observed. */
    bool failed = false;

    /** Core whose skitter-protected path failed first (-1 if none). */
    int failing_core = -1;
};

/**
 * Runs Vmin experiments over a chip configuration.
 */
class VminExperiment
{
  public:
    /**
     * @param base      chip configuration at nominal voltage
     *                  (base.bias is ignored; the experiment sweeps it)
     * @param bias_step per-step undervolt increment (0.005 = the
     *                  service element's 0.5% granularity)
     * @param max_bias  give up past this bias
     */
    explicit VminExperiment(ChipConfig base, double bias_step = 0.005,
                            double max_bias = 0.15);

    /**
     * Lower the voltage until first failure while the given workloads
     * run; each voltage step re-runs a measurement window from the DC
     * operating point (the real flow reboots the machine per step).
     * Steps are simulated as lanes of one failure-only scan, eight at
     * a time in ascending order, and the lowest failing step is the
     * answer: the same result a one-step-at-a-time ladder gives.
     *
     * @param workloads per-core activity
     * @param window    seconds simulated per voltage step
     */
    VminResult run(const std::array<CoreActivity, kNumCores> &workloads,
                   double window) const;

  private:
    ChipModel chip_; //!< base at bias 0; every step shares it
    double bias_step_;
    double max_bias_;
};

} // namespace vn

#endif // VN_CHIP_VMIN_HH
