/**
 * @file
 * vnbench: the end-to-end benchmark of the figure campaigns and of the
 * serving stack (see README.md beside this file for the workloads, the
 * metric glossary and how to run it).
 *
 * Every timed region is a call into the library's public API; the
 * benchmark's own spans (Tracer) wrap those calls, never code inside
 * the library.
 */

#ifndef VNBENCH_VNBENCH_HH
#define VNBENCH_VNBENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vnoise/vnoise.hh"

namespace vnbench
{

using Clock = std::chrono::steady_clock;
using vn::percentile;

/** Host seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** Host milliseconds from `a` to `b`. */
double msBetween(Clock::time_point a, Clock::time_point b);

/**
 * setup_s of a run: the mean of the middle half of its set-up times
 * (the median of three or fewer). For the many sub-millisecond set-ups
 * of figures_cold this drops the ones a millisecond stall of the
 * machine hit, and still moves smoothly with the share of them that
 * land in one of its slow phases, where a plain median jumps between
 * the fast and the slow time (README.md, "Noise and bounds").
 */
double setupSeconds(std::vector<double> samples);

/** Peak resident set of this process (getrusage maxrss), in MB. */
double peakRssMb();

/**
 * FNV-1a 64 over every value added, so two result sets digest equal
 * exactly when every field is bit-identical. The text form hashes the
 * `%.17g` text of each value (the digests pinned in digests.json); the
 * bits form hashes its raw bytes, which is cheap enough to check a
 * 60000-sample trace per request.
 */
class Digest
{
  public:
    enum class Form
    {
        Text,
        Bits,
    };

    explicit Digest(Form form = Form::Text) : form_(form) {}

    void add(double value);
    void add(const std::vector<double> &values);
    uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    void addBytes(const void *data, size_t size);

    Form form_;
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Add every field of a harness result to a digest. */
void digestInto(Digest &d, const vn::FreqSweepPoint &p);
void digestInto(Digest &d, const vn::MarginPoint &p);
void digestInto(Digest &d, const vn::MappingResult &m);
void digestInto(Digest &d, const vn::DroopTrace &t);

/** Bits-form digest of one result on its own. */
template <typename Result>
uint64_t
bitsOf(const Result &result)
{
    Digest d(Digest::Form::Bits);
    digestInto(d, result);
    return d.value();
}

/** Named metrics in insertion order, each with its unit. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** One `name value unit` line per metric. */
    void print(std::FILE *out) const;

    /** `{"name": {"value": v, "unit": "u"}, ...}` with all digits. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * In-memory span recorder for traced runs. A disabled tracer records
 * nothing and costs one branch per call. Thread-safe: the load
 * generator's sender threads record concurrently.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    /** Open a span; returns its id (0 when disabled). */
    uint64_t begin(const std::string &name, uint64_t parent = 0,
                   int64_t request = -1);

    /** Close a span opened by begin(). */
    void end(uint64_t id);

    /** Per-name count, total and self time (host ms); see selfTimes(). */
    struct LayerTime
    {
        std::string name;
        size_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };

    /**
     * Aggregate by span name. A span's self time is its duration minus
     * the union of the intervals its child spans cover.
     */
    std::vector<LayerTime> selfTimes() const;

    /** Durations (ms) of every closed span with this name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool writeJsonLines(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0;
        int64_t start_ns = 0;
        int64_t end_ns = -1;
        int64_t request = -1; //!< schedule index; -1 outside requests
    };

    int64_t nowNs() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< index = id - 1
};

/** RAII span; a no-op when the tracer is disabled or null. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const std::string &name, uint64_t parent = 0,
              int64_t request = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent, request) : 0)
    {}
    ~SpanScope()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    uint64_t id_;
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 20.0;   //!< measured host time per run
    std::string trace_path;  //!< non-empty: traced run, spans go here
    std::string work_dir;    //!< kit memo, scratch caches, traces
    bool smoke = false;      //!< ~1/20-size inputs
    int setups = 3;          //!< set-ups per run (see setupSeconds())
};

/** What one workload run reports. */
struct Outcome
{
    Metrics metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::string failure; //!< first failed check, for the log
    std::string digest;  //!< figures: the digest every pass reproduced
};

/** runtime.* metrics from one window's campaign counters, per `units`. */
void setRuntimeMetrics(Metrics &m, const vn::runtime::CampaignStats &s,
                       double units);

/** Write a traced run's spans and print its span table. */
void finishTrace(const Tracer &tracer, const Options &options,
                 const std::string &window);

/** The core model every kit in the process borrows. */
const vn::CoreModel &coreModel();

/** Load the stressmark kit memo (`prepare` creates it). */
std::unique_ptr<vn::StressmarkKit> loadKit(const Options &options);

/** Path of the kit memo inside the work directory. */
std::string kitMemoPath(const Options &options);

/** Per-run scratch directory (emptied at start and exit). */
std::string scratchDir(const Options &options);

/** Figure campaigns, cold (empty cache per pass) or warm (replayed). */
Outcome runFigures(const Options &options, bool warm);

/** Open-loop serving, against vnoised directly or through the router. */
Outcome runServe(const Options &options, bool routed);

/** Median round trip of `count` pings to 127.0.0.1:port, in us. */
double pingP50Us(int port, int count);

/** Solo probes of each layer on workload-shaped inputs (traced runs). */
void runProbes(const Options &options, const vn::StressmarkKit &kit,
               Metrics &out);

} // namespace vnbench

#endif // VNBENCH_VNBENCH_HH
