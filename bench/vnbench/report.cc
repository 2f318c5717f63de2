#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <numeric>

#include "vnbench.hh"

namespace vnbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
setupSeconds(std::vector<double> samples)
{
    if (samples.size() <= 3)
        return percentile(samples, 50);
    std::sort(samples.begin(), samples.end());
    auto lo = samples.begin() + samples.size() / 4;
    auto hi = samples.end() - samples.size() / 4;
    return std::accumulate(lo, hi, 0.0) / static_cast<double>(hi - lo);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Digest::addBytes(const void *data, size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash_ ^= bytes[i];
        hash_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double value)
{
    if (form_ == Form::Bits) {
        addBytes(&value, sizeof(value));
        return;
    }
    char text[40];
    int n = std::snprintf(text, sizeof(text), "%.17g;", value);
    addBytes(text, static_cast<size_t>(n));
}

void
Digest::add(const std::vector<double> &values)
{
    if (form_ == Form::Bits)
        addBytes(values.data(), values.size() * sizeof(double));
    else
        for (double v : values)
            add(v);
}

std::string
Digest::hex() const
{
    char text[20];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
}

namespace
{

void
digestCores(Digest &d, const std::array<double, vn::kNumCores> &values)
{
    for (double v : values)
        d.add(v);
}

} // namespace

void
digestInto(Digest &d, const vn::FreqSweepPoint &p)
{
    d.add(p.freq_hz);
    digestCores(d, p.p2p);
    digestCores(d, p.v_min);
    d.add(p.max_p2p);
    d.add(p.min_v);
}

void
digestInto(Digest &d, const vn::MarginPoint &p)
{
    d.add(p.freq_hz);
    d.add(p.events);
    d.add(p.bias_at_failure);
    d.add(p.failed ? 1.0 : 0.0);
}

void
digestInto(Digest &d, const vn::MappingResult &m)
{
    for (vn::WorkloadClass w : m.mapping)
        d.add(static_cast<double>(w));
    digestCores(d, m.p2p);
    digestCores(d, m.v_min);
    d.add(m.max_p2p);
    d.add(m.delta_i_fraction);
    d.add(m.n_max);
    d.add(m.n_medium);
}

void
digestInto(Digest &d, const vn::DroopTrace &t)
{
    d.add(t.t0);
    d.add(t.dt);
    d.add(t.v_min);
    d.add(t.v_max);
    d.add(t.v);
}

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

void
Metrics::print(std::FILE *out) const
{
    for (const Entry &e : entries_)
        std::fprintf(out, "  %-44s %16.6g  %s\n", e.name.c_str(), e.value,
                     e.unit.c_str());
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char value[40];
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        // JSON has no NaN/Inf; a non-finite value is reported as -1 so
        // the reader sees an impossible number rather than a parse error.
        double v = std::isfinite(e.value) ? e.value : -1.0;
        std::snprintf(value, sizeof(value), "%.17g", v);
        out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

uint64_t
Tracer::begin(const std::string &name, uint64_t parent, int64_t request)
{
    if (!enabled_)
        return 0;
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, parent, now, -1, request});
    return id;
}

void
Tracer::end(uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = now;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.end_ns >= 0)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    return out;
}

std::vector<Tracer::LayerTime>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<const Span *>> children(spans_.size() + 1);
    for (const Span &s : spans_)
        if (s.end_ns >= 0 && s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, LayerTime> by_name;
    for (const Span &s : spans_) {
        if (s.end_ns < 0)
            continue;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<int64_t, int64_t>> cover;
        for (const Span *c : children[s.id])
            cover.emplace_back(std::max(c->start_ns, s.start_ns),
                               std::min(c->end_ns, s.end_ns));
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0, reach = s.start_ns;
        for (auto [lo, hi] : cover) {
            lo = std::max(lo, reach);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        LayerTime &t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        t.self_ms +=
            static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    std::vector<LayerTime> out;
    for (auto &[name, t] : by_name)
        out.push_back(t);
    return out;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const Span &s : spans_) {
        out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns
            << ", \"request\": " << s.request << "}\n";
    }
    return static_cast<bool>(out.flush());
}

void
setRuntimeMetrics(Metrics &m, const vn::runtime::CampaignStats &s,
                  double units)
{
    auto per = [units](double v) { return v / units; };
    m.add("runtime.jobs", per(s.jobs), "count");
    m.add("runtime.executed", per(s.executed), "count");
    m.add("runtime.cache_hits", per(s.cache_hits), "count");
    m.add("runtime.hit_ratio",
          s.jobs ? static_cast<double>(s.cache_hits) /
                       static_cast<double>(s.jobs)
                 : 0.0,
          "ratio");
    m.add("runtime.lane_batches", per(s.lane_batches), "count");
    m.add("runtime.steals", per(static_cast<double>(s.steals)), "count");
    m.add("runtime.retries", per(s.retries), "count");
    m.add("runtime.failures", per(s.failures), "count");
    m.add("runtime.cache_corrupt", per(s.cache_corrupt), "count");
}

void
finishTrace(const Tracer &tracer, const Options &options,
            const std::string &window)
{
    if (!tracer.writeJsonLines(options.trace_path))
        vn::warn("vnbench: could not write ", options.trace_path);
    std::printf("per-layer spans (host ms, traced half, %s):\n",
                window.c_str());
    for (const Tracer::LayerTime &t : tracer.selfTimes())
        std::printf("  %-24s %6zu spans  total %10.2f  self %10.2f\n",
                    t.name.c_str(), t.count, t.total_ms, t.self_ms);
}

const vn::CoreModel &
coreModel()
{
    static const vn::CoreModel core;
    return core;
}

std::string
kitMemoPath(const Options &options)
{
    return options.work_dir + "/vnoise_kit.cache";
}

std::unique_ptr<vn::StressmarkKit>
loadKit(const Options &options)
{
    return std::make_unique<vn::StressmarkKit>(
        vn::StressmarkKit::cached(coreModel(), kitMemoPath(options)));
}

std::string
scratchDir(const Options &options)
{
    return options.work_dir + "/scratch";
}

} // namespace vnbench
