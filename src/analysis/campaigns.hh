/**
 * @file
 * Campaign glue for the analysis harnesses: the shared-configuration
 * scope string (cache invalidation), KeyValueFile codecs for the
 * harness result types (cache persistence), and the rule that splits a
 * harness's points into lane batches.
 *
 * A codec must round-trip exactly — KeyValueFile stores full-precision
 * doubles, so a cache replay is byte-identical to a fresh run.
 */

#ifndef VN_ANALYSIS_CAMPAIGNS_HH
#define VN_ANALYSIS_CAMPAIGNS_HH

#include <string>

#include "analysis/context.hh"
#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/sweeps.hh"

namespace vn
{

/**
 * Serialized configuration every analysis campaign result depends on:
 * the full chip/PDN config plus the harness knobs of `ctx`. Two
 * contexts with equal scope strings may share cached results.
 *
 * @param extra harness-specific parameters that are not part of the
 *              per-job key (e.g. a study-wide stimulus frequency)
 */
std::string analysisScope(const AnalysisContext &ctx,
                          const std::string &extra = "");

/**
 * Points per lane batch (submitBatch) for `points` same-window points
 * of `lanes_per_point` solver lanes each:
 * clamp(ceil(points / workers), 1, max(1, lanes / lanes_per_point)),
 * where `workers` is the borrowed pool's thread count when
 * options.pool is set and options.jobs otherwise. Enough batches to
 * give every worker one, each as wide as that allows, and none wider
 * than options.lanes lanes unless one point alone is. A second lane
 * costs a step little more than the first, so 6 points on 3 workers
 * run as 3 batches of 2 rather than 6 of 1 or 1 of 6.
 */
size_t pointsPerBatch(const runtime::CampaignOptions &options,
                      size_t points, size_t lanes_per_point);

/** FreqSweepPoint <-> KeyValueFile. */
void encodeFreqSweepPoint(const FreqSweepPoint &p, KeyValueFile &kv);
FreqSweepPoint decodeFreqSweepPoint(const KeyValueFile &kv);

/** MisalignmentPoint <-> KeyValueFile. */
void encodeMisalignmentPoint(const MisalignmentPoint &p,
                             KeyValueFile &kv);
MisalignmentPoint decodeMisalignmentPoint(const KeyValueFile &kv);

/** MappingResult <-> KeyValueFile. */
void encodeMappingResult(const MappingResult &r, KeyValueFile &kv);
MappingResult decodeMappingResult(const KeyValueFile &kv);

/** MarginPoint <-> KeyValueFile. */
void encodeMarginPoint(const MarginPoint &p, KeyValueFile &kv);
MarginPoint decodeMarginPoint(const KeyValueFile &kv);

} // namespace vn

#endif // VN_ANALYSIS_CAMPAIGNS_HH
