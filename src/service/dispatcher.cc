#include "service/dispatcher.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "analysis/campaigns.hh"
#include "util/logging.hh"

namespace vn::service
{

namespace
{

/** Latency samples kept for percentile reporting. */
constexpr size_t kLatencyWindow = 2048;

double
millisecondsSince(Dispatcher::Clock::time_point start,
                  Dispatcher::Clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - start)
        .count();
}

} // namespace

void
DispatcherConfig::validate() const
{
    if (queue_depth < 1)
        fatal("Dispatcher: queue_depth must be >= 1");
    if (max_batch < 1)
        fatal("Dispatcher: max_batch must be >= 1");
}

Dispatcher::Dispatcher(const AnalysisContext &base,
                       DispatcherConfig config)
    : base_(base), config_(config), pool_(base.campaign.jobs),
      queue_(config.wfq)
{
    config_.validate();
    // Campaigns constructed by batches run on the shared pool; a
    // private per-campaign pool would defeat worker sharing.
    base_.campaign.pool = &pool_;
    base_.campaign.stats_sink = nullptr;
    latency_ring_.resize(kLatencyWindow, 0.0);
    for (int t = 0; t < kNumTiers; ++t)
        wait_ring_[t].resize(kLatencyWindow, 0.0);
    // The admission probe shares the campaigns' cache directory, so a
    // contains() hit here means the campaign will be a cache hit too.
    if (!base_.campaign.cache_dir.empty()) {
        probe_cache_ = std::make_unique<runtime::ResultCache>(
            base_.campaign.cache_dir);
        scope_ = analysisScope(base_);
    }
}

Dispatcher::~Dispatcher()
{
    drain();
}

void
Dispatcher::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    started_ = true;
    // Harness errors must surface as per-request `internal` responses,
    // not a daemon exit: fatal()/panic() throw from here on.
    setThrowOnError(true);
    batcher_ = std::thread([this] {
        batcherLoop();
        // Publish completion so a bounded drain can tell "finished"
        // from "wedged" without trying to join first.
        {
            std::lock_guard<std::mutex> done_lock(mutex_);
            batcher_done_ = true;
        }
        cv_.notify_all();
    });
}

double
Dispatcher::nowMs() const
{
    if (clock_ms_)
        return clock_ms_();
    return millisecondsSince(epoch_, Clock::now());
}

void
Dispatcher::setClockForTest(std::function<double()> now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    clock_ms_ = std::move(now_ms);
}

Tier
Dispatcher::classify(const AnyRequest &request) const
{
    Verb verb = requestVerb(request);
    switch (verb) {
    case Verb::Ping:
    case Verb::Stats:
    case Verb::Shutdown:
        // Control verbs are answered inline by the listeners and only
        // reach the queue in tests; they are interactive by definition.
        return Tier::Interactive;
    case Verb::Sweep:
    case Verb::Trace:
        break;
    default:
        // map/margin/guardband campaign scopes carry per-request
        // extras (effective context, bias step); reconstructing them
        // here would duplicate study internals, so they ride the
        // batch tier unconditionally.
        return Tier::Batch;
    }
    if (!probe_cache_)
        return Tier::Batch;
    // The campaign job key for a sweep is the request key with the
    // study's "fsweep" prefix; trace keys match the request key
    // exactly (both print with %.17g).
    std::string job_key = requestKey(request);
    if (verb == Verb::Sweep)
        job_key = "f" + job_key;
    return probe_cache_->contains(
               runtime::ResultCache::keyFor(scope_, job_key))
               ? Tier::Interactive
               : Tier::Batch;
}

double
Dispatcher::retryAfterMsLocked(Tier tier) const
{
    // Per-tier drain horizon: interactive work drains ahead of batch
    // work, so an interactive reject estimates only the interactive
    // backlog while a batch reject waits out both tiers.
    size_t drain_ahead = queue_.depth(Tier::Interactive);
    if (tier == Tier::Batch)
        drain_ahead += queue_.depth(Tier::Batch);
    double window = std::max(
        1.0, static_cast<double>(config_.batch_window_ms));
    return window * (1.0 + static_cast<double>(drain_ahead) /
                               static_cast<double>(config_.max_batch));
}

void
Dispatcher::submit(AnyRequest request,
                   std::optional<Clock::time_point> deadline,
                   Completion done, uint64_t client_id)
{
    std::string key = requestKey(request);
    Tier tier = classify(request);

    // Faultnet: a scheduled injection rejects the request before it
    // ever reaches the queue, exactly as a real overload would.
    if (config_.fault) {
        std::optional<WireError> injected = config_.fault->onSubmit(key);
        if (injected) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.received;
                if (injected->code == "shutting_down")
                    ++counters_.rejected_shutdown;
                else
                    ++counters_.rejected_overloaded;
            }
            done(std::move(*injected));
            return;
        }
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++counters_.received;
        if (draining_ || !started_) {
            ++counters_.rejected_shutdown;
            lock.unlock();
            done(WireError{"shutting_down",
                           "the service is draining; retry elsewhere"});
            return;
        }
        if (queue_.depth(tier) >=
            static_cast<size_t>(config_.queue_depth)) {
            ++counters_.rejected_overloaded;
            ++counters_.tier[static_cast<int>(tier)]
                  .rejected_overloaded;
            // The hint reflects THIS tier's drain horizon: an
            // interactive reject must not inherit the batch queue's
            // backpressure estimate.
            double retry_after_ms = retryAfterMsLocked(tier);
            lock.unlock();
            done(WireError{"overloaded",
                           std::string("admission queue is full (") +
                               tierName(tier) + " depth " +
                               std::to_string(config_.queue_depth) +
                               "); retry with backoff",
                           retry_after_ms});
            return;
        }
        ++counters_.admitted;
        ++counters_.tier[static_cast<int>(tier)].admitted;
        double now_ms = nowMs();
        Pending pending{std::move(request), std::move(key), deadline,
                        Clock::now(),       std::move(done), tier,
                        now_ms};
        queue_.push(std::move(pending), tier, client_id, now_ms);
    }
    cv_.notify_one();
}

void
Dispatcher::drain()
{
    drainFor(0.0);
}

bool
Dispatcher::drainFor(double timeout_s)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
    }
    cv_.notify_all();
    if (timeout_s > 0) {
        std::unique_lock<std::mutex> lock(mutex_);
        bool finished = cv_.wait_for(
            lock, std::chrono::duration<double>(timeout_s),
            [this] { return batcher_done_ || !started_; });
        if (!finished)
            return false;
    }
    // join_mutex_ serializes concurrent drain() calls (signal thread
    // vs destructor); joinable() goes false after the first join.
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (batcher_.joinable())
        batcher_.join();
    return true;
}

size_t
Dispatcher::cancelPending()
{
    std::vector<Pending> cancelled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        double now_ms = nowMs();
        while (std::optional<Pending> item = queue_.pop(now_ms))
            cancelled.push_back(std::move(*item));
        counters_.rejected_shutdown += cancelled.size();
    }
    for (Pending &pending : cancelled)
        pending.done(WireError{
            "shutting_down",
            "the drain timed out; request cancelled at shutdown"});
    return cancelled.size();
}

ServiceCounters
Dispatcher::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceCounters snap = counters_;
    for (int t = 0; t < kNumTiers; ++t) {
        Tier tier = static_cast<Tier>(t);
        snap.tier[t].depth = queue_.depth(tier);
        snap.tier[t].promoted = queue_.counters(tier).promoted;
    }
    return snap;
}

size_t
Dispatcher::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

size_t
Dispatcher::queueDepth(Tier tier) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.depth(tier);
}

std::vector<double>
Dispatcher::latencySamplesMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = std::min(latency_count_, latency_ring_.size());
    return std::vector<double>(latency_ring_.begin(),
                               latency_ring_.begin() +
                                   static_cast<long>(n));
}

std::vector<double>
Dispatcher::tierWaitSamplesMs(Tier tier) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int t = static_cast<int>(tier);
    size_t n = std::min(wait_count_[t], wait_ring_[t].size());
    return std::vector<double>(wait_ring_[t].begin(),
                               wait_ring_[t].begin() +
                                   static_cast<long>(n));
}

void
Dispatcher::setBatchHookForTest(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    batch_hook_ = std::move(hook);
}

void
Dispatcher::pauseForTest(bool paused)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = paused;
    }
    cv_.notify_all();
}

void
Dispatcher::batcherLoop()
{
    while (true) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return draining_ || (!queue_.empty() && !paused_);
            });
            if (queue_.empty() && draining_)
                return;
            if (queue_.empty() || (paused_ && !draining_))
                continue;

            if (config_.batch_window_ms > 0 && !draining_) {
                // Linger so near-simultaneous clients land in the
                // same batch (and coalesce / share the campaign).
                lock.unlock();
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    config_.batch_window_ms));
                lock.lock();
            }

            // Drain a tier-pure run in WFQ order: the queue's next
            // choice sets the batch's tier, and the batch extends only
            // while the next choice stays on that tier — so a cheap
            // interactive run is never welded onto a batch campaign,
            // and the weighted interleave shows up as alternating
            // small batches rather than intra-batch mixing.
            double now_ms = nowMs();
            size_t take = std::min(
                queue_.size(), static_cast<size_t>(config_.max_batch));
            batch.reserve(take);
            std::optional<Tier> run_tier;
            while (batch.size() < take) {
                std::optional<Tier> next = queue_.peekTier(now_ms);
                if (!next || (run_tier && *next != *run_tier))
                    break;
                run_tier = *next;
                std::optional<Pending> item = queue_.pop(now_ms);
                double wait_ms = queue_.lastPopWaitMs();
                int t = static_cast<int>(item->tier);
                wait_ring_[t][wait_next_[t]] = wait_ms;
                wait_next_[t] =
                    (wait_next_[t] + 1) % wait_ring_[t].size();
                ++wait_count_[t];
                if (config_.metrics) {
                    MetricHistogram &h =
                        item->tier == Tier::Interactive
                            ? config_.metrics->interactive_wait_ms
                            : config_.metrics->batch_wait_ms;
                    h.observe(wait_ms);
                }
                batch.push_back(std::move(*item));
            }
        }
        runBatch(std::move(batch));
    }
}

void
Dispatcher::complete(Pending &pending,
                     std::variant<AnyResult, WireError> outcome)
{
    bool ok = std::holds_alternative<AnyResult>(outcome);
    double latency_ms =
        millisecondsSince(pending.admitted, Clock::now());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ok)
            ++counters_.completed_ok;
        else
            ++counters_.completed_error;
        latency_ring_[latency_next_] = latency_ms;
        latency_next_ = (latency_next_ + 1) % latency_ring_.size();
        ++latency_count_;
    }
    if (config_.metrics)
        config_.metrics->request_latency_ms.observe(latency_ms);
    pending.done(std::move(outcome));
}

void
Dispatcher::runBatch(std::vector<Pending> batch)
{
    std::function<void()> hook;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hook = batch_hook_;
    }
    if (hook && !batch.empty())
        hook();

    // Expired deadlines are answered without being computed.
    std::vector<Pending> live;
    live.reserve(batch.size());
    Clock::time_point now = Clock::now();
    for (Pending &pending : batch) {
        if (pending.deadline && *pending.deadline <= now) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.deadline_expired;
            }
            complete(pending,
                     WireError{"deadline_exceeded",
                               "request expired while queued"});
        } else {
            live.push_back(std::move(pending));
        }
    }
    if (live.empty())
        return;
    if (config_.metrics)
        config_.metrics->batch_size.observe(
            static_cast<double>(live.size()));

    // Group by verb, coalescing identical requests under one key.
    // std::map keeps the key order deterministic, which keeps the
    // campaign job order (and thus any log output) reproducible.
    std::map<Verb, std::map<std::string, std::vector<size_t>>> groups;
    for (size_t i = 0; i < live.size(); ++i)
        groups[requestVerb(live[i].request)][live[i].key].push_back(i);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.batches;
        size_t unique = 0;
        for (const auto &[verb, keyed] : groups)
            unique += keyed.size();
        counters_.coalesced += live.size() - unique;
    }

    // Per-batch campaign counters, merged under the lock afterwards
    // (the sink itself must not be written concurrently with a
    // counters() snapshot).
    runtime::CampaignStats batch_stats;
    AnalysisContext ctx = base_;
    ctx.campaign.stats_sink = &batch_stats;

    for (auto &[verb, keyed] : groups) {
        // One result per unique key, in key order.
        std::vector<AnyResult> results;
        std::string error;
        try {
            switch (verb) {
            case Verb::Sweep: {
                std::vector<SweepPointSpec> specs;
                for (const auto &[key, idx] : keyed)
                    specs.push_back(std::get<SweepRequest>(
                                        live[idx.front()].request)
                                        .spec);
                for (FreqSweepPoint &p :
                     sweepStimulusPoints(ctx, specs))
                    results.push_back(std::move(p));
                break;
            }
            case Verb::Map: {
                // Sub-group by stimulus frequency: one MappingStudy
                // (and one campaign) per frequency.
                std::map<std::string, std::vector<const std::string *>>
                    by_freq;
                std::map<std::string, AnyResult> by_key;
                std::map<std::string, double> freq_of;
                std::map<std::string, std::vector<Mapping>> mappings;
                for (const auto &[key, idx] : keyed) {
                    const auto &request = std::get<MapRequest>(
                        live[idx.front()].request);
                    char fkey[40];
                    std::snprintf(fkey, sizeof(fkey), "%.17g",
                                  request.freq_hz);
                    freq_of[fkey] = request.freq_hz;
                    by_freq[fkey].push_back(&key);
                    mappings[fkey].push_back(request.mapping);
                }
                for (const auto &[fkey, keys] : by_freq) {
                    MappingStudy study(ctx, freq_of[fkey]);
                    auto batch_results =
                        study.runMany(mappings[fkey]);
                    for (size_t i = 0; i < keys.size(); ++i)
                        by_key[*keys[i]] =
                            std::move(batch_results[i]);
                }
                for (const auto &[key, idx] : keyed)
                    results.push_back(std::move(by_key[key]));
                break;
            }
            case Verb::Margin: {
                // Sub-group by bias step (part of the campaign scope).
                std::map<std::string,
                         std::vector<const std::string *>>
                    by_step;
                std::map<std::string, std::vector<MarginSpec>> specs;
                std::map<std::string, double> step_of;
                std::map<std::string, AnyResult> by_key;
                for (const auto &[key, idx] : keyed) {
                    const auto &request = std::get<MarginRequest>(
                        live[idx.front()].request);
                    char skey[40];
                    std::snprintf(skey, sizeof(skey), "%.17g",
                                  request.bias_step);
                    step_of[skey] = request.bias_step;
                    by_step[skey].push_back(&key);
                    specs[skey].push_back(request.spec);
                }
                for (const auto &[skey, keys] : by_step) {
                    auto batch_results = marginPoints(
                        ctx, specs[skey], step_of[skey]);
                    for (size_t i = 0; i < keys.size(); ++i)
                        by_key[*keys[i]] =
                            std::move(batch_results[i]);
                }
                for (const auto &[key, idx] : keyed)
                    results.push_back(std::move(by_key[key]));
                break;
            }
            case Verb::Guardband: {
                for (const auto &[key, idx] : keyed) {
                    const auto &request = std::get<GuardbandRequest>(
                        live[idx.front()].request);
                    results.push_back(
                        guardbandStudy(ctx, request.trace));
                }
                break;
            }
            case Verb::Trace: {
                std::vector<DroopTraceSpec> specs;
                for (const auto &[key, idx] : keyed)
                    specs.push_back(std::get<TraceRequest>(
                                        live[idx.front()].request)
                                        .spec);
                for (DroopTrace &t : droopTraces(ctx, specs))
                    results.push_back(std::move(t));
                break;
            }
            default:
                error = "control verb reached the batcher";
            }
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }

        // Merge campaign counters BEFORE completing, so a client that
        // sees its response and immediately asks for `stats` finds its
        // own job already counted.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            counters_.campaign.add(batch_stats);
        }
        batch_stats = runtime::CampaignStats{};

        size_t slot = 0;
        for (const auto &[key, idx] : keyed) {
            for (size_t i : idx) {
                if (!error.empty()) {
                    complete(live[i],
                             WireError{"internal", error});
                } else {
                    complete(live[i], results[slot]);
                }
            }
            ++slot;
        }
    }
}

} // namespace vn::service
