/**
 * @file
 * Admission control and micro-batching for vnoised.
 *
 * Connection threads submit() typed requests; a single batcher thread
 * drains the admission queue, groups the drained requests by verb (and
 * per-verb sub-key, e.g. the mapping study's stimulus frequency),
 * coalesces identical requests into one computation, and runs each
 * group as ONE campaign on the daemon's long-lived work-stealing pool
 * — so concurrent clients share workers and the content-addressed
 * result cache exactly like the points of a single big sweep would.
 *
 * Admission is tiered (admission.hh): requests are classified as
 * Interactive (cached sweep/trace results) or Batch (cold campaigns)
 * and queued in a per-client weighted fair queue, so one client's
 * cold guardband study cannot starve another's cache hits. Drained
 * batches are tier-pure — the batcher takes the WFQ's next choice and
 * extends the batch only with same-tier picks — which keeps
 * interactive latency decoupled from the runtimes of batch campaigns
 * while preserving the weighted interleave.
 *
 * Backpressure is explicit and per-tier: a submit() beyond the tier's
 * `queue_depth` is answered immediately with a structured
 * `overloaded` error whose `retry_after_ms` reflects that tier's
 * drain horizon (an interactive reject does not inherit the batch
 * queue's backpressure estimate); a request whose deadline has passed
 * by the time the batcher picks it up is answered `deadline_exceeded`
 * without being computed; after drain() begins, new submissions get
 * `shutting_down` while everything already admitted still completes.
 *
 * Completions run on the batcher thread (or on the submitting thread
 * for the reject paths) — they must be quick and non-blocking apart
 * from socket writes.
 */

#ifndef VN_SERVICE_DISPATCHER_HH
#define VN_SERVICE_DISPATCHER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/context.hh"
#include "runtime/cache.hh"
#include "runtime/pool.hh"
#include "service/admission.hh"
#include "service/codec.hh"
#include "service/metrics.hh"

namespace vn::service
{

/**
 * Admission-time fault injection point (faultnet). Compiled in but off
 * by default (`DispatcherConfig::fault == nullptr`); when set, every
 * submit() consults it before admission and a returned error is the
 * response — this is how tests force deterministic `overloaded` bursts
 * on the Nth request without filling a real queue.
 */
class FaultHook
{
  public:
    virtual ~FaultHook() = default;

    /**
     * Called once per submitted compute request, in admission order.
     * Return an error to reject the request instead of admitting it;
     * std::nullopt lets it through. Must be thread-safe and quick —
     * it runs on the submitting connection thread under no lock.
     */
    virtual std::optional<WireError>
    onSubmit(const std::string &key) = 0;
};

/** Dispatcher knobs (see docs/serving.md for tuning guidance). */
struct DispatcherConfig
{
    /**
     * Admitted-but-unbatched requests beyond this are rejected. The
     * cap is per tier: a batch queue at capacity does not block
     * interactive admissions, and vice versa.
     */
    int queue_depth = 64;

    /** WFQ weights and the starvation-age promotion bound. */
    WfqConfig wfq;

    /** Largest number of requests drained into one batch. */
    int max_batch = 32;

    /**
     * Linger this long after the first request of a batch before
     * draining, letting near-simultaneous clients coalesce. 0 batches
     * only what has already arrived.
     */
    int batch_window_ms = 0;

    /**
     * Optional shared registry: completion latencies and batch sizes
     * are observed into its histograms (Prometheus `/metrics`). Must
     * outlive the dispatcher.
     */
    MetricsRegistry *metrics = nullptr;

    /** Fault-injection hook; nullptr (the default) injects nothing. */
    FaultHook *fault = nullptr;

    /**
     * fatal() unless the knobs are in range (queue_depth and max_batch
     * >= 1). The Dispatcher's constructor calls it.
     */
    void validate() const;
};

/** Cumulative serving counters (served by the `stats` verb). */
struct ServiceCounters
{
    uint64_t received = 0;  //!< compute requests submitted
    uint64_t admitted = 0;  //!< accepted into the queue
    uint64_t completed_ok = 0;
    uint64_t completed_error = 0;
    uint64_t rejected_overloaded = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t deadline_expired = 0;
    uint64_t batches = 0;   //!< batches executed
    uint64_t coalesced = 0; //!< requests answered by another's job

    /** Per-tier admission accounting. */
    struct TierCounters
    {
        uint64_t admitted = 0;
        uint64_t rejected_overloaded = 0;
        uint64_t promoted = 0; //!< starvation-age promotions at drain
        size_t depth = 0;      //!< queued now (gauge, not cumulative)
    };
    TierCounters tier[kNumTiers];

    /** Aggregated campaign counters (cache hits, steals, ...). */
    runtime::CampaignStats campaign;
};

/** The admission queue + batcher; see the file comment. */
class Dispatcher
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Exactly-once completion: a result or a structured error. */
    using Completion =
        std::function<void(std::variant<AnyResult, WireError>)>;

    /**
     * @param base   harness configuration; `base.campaign.jobs` sizes
     *               the pool, `base.campaign.cache_dir` is the shared
     *               result cache. The kit must outlive the dispatcher.
     * @param config dispatcher knobs
     */
    Dispatcher(const AnalysisContext &base, DispatcherConfig config);

    /** Stops the batcher; pending completions get `shutting_down`. */
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Spawn the batcher thread. */
    void start();

    /**
     * Submit one request from any thread. `done` is invoked exactly
     * once — synchronously on the reject paths, on the batcher thread
     * otherwise. `client_id` names the WFQ flow (one per connection);
     * 0 is a shared anonymous flow.
     */
    void submit(AnyRequest request,
                std::optional<Clock::time_point> deadline,
                Completion done, uint64_t client_id = 0);

    /**
     * Stop admitting (subsequent submissions are answered
     * `shutting_down`), finish every admitted request, and join the
     * batcher. Idempotent.
     */
    void drain();

    /**
     * drain(), but bounded: false when the batcher did not finish
     * within `timeout_s` seconds — the batcher thread is left running
     * (there is no safe way to kill a thread mid-campaign) and the
     * caller decides what teardown the situation allows; see
     * cancelPending() and Server::drainedCleanly(). timeout_s <= 0
     * waits forever (== drain()).
     */
    bool drainFor(double timeout_s);

    /**
     * Answer every queued-but-unbatched request `shutting_down` and
     * return how many were cancelled. Called after a drain timeout so
     * a wedged batch cannot strand queued clients without a response.
     */
    size_t cancelPending();

    /** Snapshot of the cumulative counters. */
    ServiceCounters counters() const;

    /** Requests admitted but not yet drained into a batch. */
    size_t queueDepth() const;

    /** Queued requests of one tier. */
    size_t queueDepth(Tier tier) const;

    /**
     * Admission tier of a request: Interactive for control verbs and
     * for sweep/trace requests whose result is already in the result
     * cache; Batch for everything cold (and for map/margin/guardband,
     * whose campaign scopes carry per-request extras the admission
     * probe cannot reconstruct cheaply).
     */
    Tier classify(const AnyRequest &request) const;

    /**
     * Completed-request latencies (milliseconds, most recent window,
     * unordered) for percentile reporting.
     */
    std::vector<double> latencySamplesMs() const;

    /**
     * Queue waits (enqueue to batch drain, ms) of one tier, most
     * recent window, unordered.
     */
    std::vector<double> tierWaitSamplesMs(Tier tier) const;

    /** Worker threads of the shared pool. */
    int threads() const { return pool_.threads(); }

    /**
     * Test hook: while paused the batcher leaves the queue alone, so
     * tests can fill it deterministically and observe backpressure.
     */
    void pauseForTest(bool paused);

    /**
     * Test hook: replace the wall clock feeding WFQ enqueue ages (and
     * thus starvation promotion) with a callable returning fake
     * milliseconds. Set before start().
     */
    void setClockForTest(std::function<double()> now_ms);

    /**
     * Test hook: invoked on the batcher thread at the start of every
     * non-empty batch — a hook that blocks is a scripted stuck
     * batcher, which is how the bounded-drain path is tested. Set
     * before start().
     */
    void setBatchHookForTest(std::function<void()> hook);

  private:
    struct Pending
    {
        AnyRequest request;
        std::string key;
        std::optional<Clock::time_point> deadline;
        Clock::time_point admitted;
        Completion done;
        Tier tier = Tier::Batch;
        double enqueued_ms = 0.0;
    };

    void batcherLoop();
    void runBatch(std::vector<Pending> batch);
    void complete(Pending &pending,
                  std::variant<AnyResult, WireError> outcome);
    double nowMs() const;
    double retryAfterMsLocked(Tier tier) const;

    AnalysisContext base_;
    DispatcherConfig config_;
    runtime::Pool pool_;
    std::unique_ptr<runtime::ResultCache> probe_cache_;
    std::string scope_; //!< analysisScope(base_), the probe scope

    mutable std::mutex mutex_;
    std::mutex join_mutex_; //!< serializes concurrent drain() joins
    std::condition_variable cv_;
    WfqQueue<Pending> queue_;
    bool draining_ = false;
    bool paused_ = false;
    bool started_ = false;
    bool batcher_done_ = false; //!< batcher loop has returned
    std::thread batcher_;
    std::function<void()> batch_hook_; //!< test hook; see setter
    std::function<double()> clock_ms_; //!< test override; null = real
    Clock::time_point epoch_ = Clock::now();

    ServiceCounters counters_;
    std::vector<double> latency_ring_;
    size_t latency_next_ = 0;
    size_t latency_count_ = 0;
    std::vector<double> wait_ring_[kNumTiers];
    size_t wait_next_[kNumTiers] = {0, 0};
    size_t wait_count_[kNumTiers] = {0, 0};
};

} // namespace vn::service

#endif // VN_SERVICE_DISPATCHER_HH
