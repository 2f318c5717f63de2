#include "chip/vmin.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace vn
{

namespace
{

/** Lanes per scan: one full-width chunk of the lane solve kernel. */
constexpr size_t kScanLanes = 8;

ChipConfig
atNominal(ChipConfig config)
{
    config.bias = 0.0;
    return config;
}

} // namespace

VminExperiment::VminExperiment(ChipConfig base, double bias_step,
                               double max_bias)
    : chip_(atNominal(std::move(base))), bias_step_(bias_step),
      max_bias_(max_bias)
{
    if (!(bias_step_ > 0.0 && bias_step_ <= 0.05))
        fatal("VminExperiment: bias_step must be in (0, 0.05], got ",
              bias_step_);
    if (!(max_bias_ > 0.0 && max_bias_ <= 0.3))
        fatal("VminExperiment: max_bias must be in (0, 0.3], got ",
              max_bias_);
}

VminResult
VminExperiment::run(const std::array<CoreActivity, kNumCores> &workloads,
                    double window) const
{
    VminResult result;
    std::vector<double> chunk;
    double bias = 0.0;
    while (bias <= max_bias_ + 1e-12) {
        // The next steps, accumulated one at a time like the service
        // element's loop; only a last step that rounding carries past
        // max_bias is pulled back to it.
        chunk.clear();
        for (; chunk.size() < kScanLanes && bias <= max_bias_ + 1e-12;
             bias += bias_step_)
            chunk.push_back(std::min(bias, max_bias_));

        const auto outcomes = chip_.scanFailures(workloads, chunk, window);
        for (size_t i = 0; i < chunk.size(); ++i) {
            if (outcomes[i].failed) {
                result.bias_at_failure = chunk[i];
                result.steps += static_cast<int>(i + 1);
                result.failed = true;
                result.failing_core = outcomes[i].failing_core;
                return result;
            }
        }
        result.steps += static_cast<int>(chunk.size());
    }
    result.bias_at_failure = max_bias_;
    return result;
}

} // namespace vn
