#include "analysis/mapping.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/campaigns.hh"
#include "runtime/campaign.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vn
{

double
deltaIFraction(const Mapping &mapping)
{
    double total = 0.0;
    for (auto w : mapping) {
        if (w == WorkloadClass::Max)
            total += 1.0;
        else if (w == WorkloadClass::Medium)
            total += 0.5;
    }
    return total / static_cast<double>(kNumCores);
}

int
activeCores(const Mapping &mapping)
{
    int n = 0;
    for (auto w : mapping)
        n += w != WorkloadClass::Idle;
    return n;
}

MappingStudy::MappingStudy(const AnalysisContext &ctx, double freq_hz)
    : ctx_(ctx), chip_([&] {
          // The mapping dataset is large (3^6 runs); a 2 ns step is
          // ample for a ~2 MHz stimulus and halves the cost.
          ChipConfig config = ctx.chip_config;
          config.dt = std::max(config.dt, 2e-9);
          return config;
      }())
{
    if (ctx.kit == nullptr)
        fatal("MappingStudy: kit must be set");

    StressmarkSpec spec;
    spec.stimulus_freq_hz = freq_hz;
    spec.consecutive_events = ctx.consecutive_events;
    spec.synchronized = true;
    max_sm_ = ctx.kit->make(spec);
    medium_sm_ = ctx.kit->makeMedium(spec);
    window_ = std::clamp(10.0 / freq_hz, ctx.window, 2e-4);
    freq_hz_ = freq_hz;
}

std::array<CoreActivity, kNumCores>
MappingStudy::workloadsFor(const Mapping &mapping) const
{
    std::array<CoreActivity, kNumCores> workloads = {
        chip_.idleActivity(), chip_.idleActivity(), chip_.idleActivity(),
        chip_.idleActivity(), chip_.idleActivity(), chip_.idleActivity()};
    for (int c = 0; c < kNumCores; ++c) {
        if (mapping[c] == WorkloadClass::Max)
            workloads[c] = max_sm_.activity();
        else if (mapping[c] == WorkloadClass::Medium)
            workloads[c] = medium_sm_.activity();
    }
    return workloads;
}

MappingResult
MappingStudy::resultFrom(const Mapping &mapping,
                         const ChipRunResult &r) const
{
    MappingResult result;
    result.mapping = mapping;
    result.delta_i_fraction = deltaIFraction(mapping);
    for (int c = 0; c < kNumCores; ++c) {
        result.p2p[c] = r.core[c].p2p;
        result.v_min[c] = r.core[c].v_min;
        if (mapping[c] == WorkloadClass::Max)
            ++result.n_max;
        else if (mapping[c] == WorkloadClass::Medium)
            ++result.n_medium;
    }
    result.max_p2p = r.maxP2p();
    return result;
}

MappingResult
MappingStudy::run(const Mapping &mapping) const
{
    return resultFrom(mapping, chip_.run(workloadsFor(mapping), window_));
}

std::vector<MappingResult>
MappingStudy::runBatch(std::span<const Mapping> mappings) const
{
    std::vector<std::array<CoreActivity, kNumCores>> workloads;
    workloads.reserve(mappings.size());
    for (const Mapping &mapping : mappings)
        workloads.push_back(workloadsFor(mapping));

    auto runs = chip_.runBatch(workloads, window_);

    std::vector<MappingResult> out;
    out.reserve(mappings.size());
    for (size_t i = 0; i < mappings.size(); ++i)
        out.push_back(resultFrom(mappings[i], runs[i]));
    return out;
}

std::vector<MappingResult>
MappingStudy::runMany(std::span<const Mapping> mappings) const
{
    // Scope over the *effective* study configuration: the constructor
    // bumps dt and derives its own window, so fingerprint those, not
    // the raw context values.
    AnalysisContext effective = ctx_;
    effective.chip_config = chip_.config();
    effective.window = window_;

    char extra[48];
    std::snprintf(extra, sizeof(extra), "mapping f=%.17g", freq_hz_);
    runtime::Campaign<MappingResult> campaign(
        ctx_.campaign, ctx_.seed, analysisScope(effective, extra));
    campaign.setCodec(encodeMappingResult, decodeMappingResult);

    // Chunk the mappings into solver lanes, one lane per mapping.
    // Per-mapping keys (and so cache entries) are exactly what scalar
    // submission would use; a partially cached chunk re-runs only its
    // missing lanes.
    const size_t per_batch =
        pointsPerBatch(ctx_.campaign, mappings.size(), 1);
    for (size_t start = 0; start < mappings.size(); start += per_batch) {
        const size_t n = std::min(per_batch, mappings.size() - start);
        std::vector<Mapping> chunk(mappings.begin() +
                                       static_cast<long>(start),
                                   mappings.begin() +
                                       static_cast<long>(start + n));
        std::vector<std::string> keys;
        keys.reserve(n);
        for (const Mapping &mapping : chunk) {
            std::string key = "mapping ";
            for (int c = 0; c < kNumCores; ++c)
                key +=
                    static_cast<char>('0' + static_cast<int>(mapping[c]));
            keys.push_back(std::move(key));
        }
        campaign.submitBatch(
            std::move(keys),
            [this, chunk = std::move(chunk)](
                std::span<const uint64_t>,
                std::span<const size_t> lane_idx) {
                std::vector<Mapping> todo;
                todo.reserve(lane_idx.size());
                for (size_t lane : lane_idx)
                    todo.push_back(chunk[lane]);
                return runBatch(todo);
            });
    }
    return campaign.collectOrFatal();
}

std::vector<MappingResult>
MappingStudy::runAll(bool progress) const
{
    const int total = 729; // 3^6
    std::vector<Mapping> mappings;
    mappings.reserve(total);
    for (int code = 0; code < total; ++code) {
        Mapping mapping;
        int c = code;
        for (int core = 0; core < kNumCores; ++core) {
            mapping[core] = static_cast<WorkloadClass>(c % 3);
            c /= 3;
        }
        mappings.push_back(mapping);
    }
    if (progress)
        inform("MappingStudy: running ", total, " mappings on ",
               ctx_.campaign.jobs,
               ctx_.campaign.jobs == 1 ? " thread" : " threads");
    return runMany(mappings);
}

std::vector<std::vector<double>>
noiseCorrelationMatrix(const std::vector<MappingResult> &results)
{
    if (results.empty())
        fatal("noiseCorrelationMatrix: no results");
    std::vector<std::vector<double>> series(
        kNumCores, std::vector<double>(results.size()));
    for (size_t i = 0; i < results.size(); ++i)
        for (int c = 0; c < kNumCores; ++c)
            series[c][i] = results[i].p2p[c];
    return correlationMatrix(series);
}

std::array<int, kNumCores>
detectClusters(const std::vector<std::vector<double>> &correlation)
{
    if (correlation.size() != static_cast<size_t>(kNumCores))
        fatal("detectClusters: expected a ", kNumCores, "x", kNumCores,
              " matrix");

    // Agglomerative merging with average linkage until two clusters
    // remain.
    std::vector<std::vector<int>> clusters;
    for (int c = 0; c < kNumCores; ++c)
        clusters.push_back({c});

    auto linkage = [&](const std::vector<int> &a,
                       const std::vector<int> &b) {
        double sum = 0.0;
        for (int i : a)
            for (int j : b)
                sum += correlation[static_cast<size_t>(i)]
                                  [static_cast<size_t>(j)];
        return sum / static_cast<double>(a.size() * b.size());
    };

    while (clusters.size() > 2) {
        size_t best_a = 0, best_b = 1;
        double best = -2.0;
        for (size_t a = 0; a < clusters.size(); ++a) {
            for (size_t b = a + 1; b < clusters.size(); ++b) {
                double link = linkage(clusters[a], clusters[b]);
                if (link > best) {
                    best = link;
                    best_a = a;
                    best_b = b;
                }
            }
        }
        clusters[best_a].insert(clusters[best_a].end(),
                                clusters[best_b].begin(),
                                clusters[best_b].end());
        clusters.erase(clusters.begin() + static_cast<long>(best_b));
    }

    std::array<int, kNumCores> assignment{};
    int zero_cluster =
        std::find(clusters[0].begin(), clusters[0].end(), 0) !=
                clusters[0].end()
            ? 0
            : 1;
    for (size_t k = 0; k < clusters.size(); ++k) {
        for (int core : clusters[k]) {
            assignment[static_cast<size_t>(core)] =
                static_cast<int>(k) == zero_cluster ? 0 : 1;
        }
    }
    return assignment;
}

std::vector<MappingOpportunity>
mappingOpportunity(const MappingStudy &study)
{
    // One campaign over all 2^6 - 1 idle/max placements; the per-k
    // best/worst reduction happens on the ordered results.
    std::vector<Mapping> mappings;
    mappings.reserve((1 << kNumCores) - 1);
    for (int mask = 1; mask < (1 << kNumCores); ++mask) {
        Mapping mapping;
        for (int c = 0; c < kNumCores; ++c) {
            mapping[c] = (mask >> c) & 1 ? WorkloadClass::Max
                                         : WorkloadClass::Idle;
        }
        mappings.push_back(mapping);
    }
    auto results = study.runMany(mappings);

    std::vector<MappingOpportunity> out;
    for (int k = 1; k <= kNumCores; ++k) {
        MappingOpportunity opp;
        opp.workloads = k;
        bool first = true;
        for (const auto &result : results) {
            if (activeCores(result.mapping) != k)
                continue;
            if (first || result.max_p2p < opp.best_noise) {
                opp.best_noise = result.max_p2p;
                opp.best_mapping = result.mapping;
            }
            if (first || result.max_p2p > opp.worst_noise) {
                opp.worst_noise = result.max_p2p;
                opp.worst_mapping = result.mapping;
            }
            first = false;
        }
        out.push_back(opp);
    }
    return out;
}

} // namespace vn
