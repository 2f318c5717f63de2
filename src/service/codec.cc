#include "service/codec.hh"

#include <cmath>
#include <cstdio>

namespace vn::service
{

namespace
{

std::string
numKey(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double
requireFinite(const Json &params, const std::string &key)
{
    double value = params.at(key).asNumber();
    if (!std::isfinite(value))
        throw JsonError("'" + key + "' must be finite");
    return value;
}

double
requirePositive(const Json &params, const std::string &key)
{
    double value = requireFinite(params, key);
    if (value <= 0.0)
        throw JsonError("'" + key + "' must be > 0");
    return value;
}

int
requireInt(const Json &params, const std::string &key)
{
    double value = requireFinite(params, key);
    if (value != std::floor(value) || std::fabs(value) > 1e9)
        throw JsonError("'" + key + "' must be an integer");
    return static_cast<int>(value);
}

Json
coreArray(const std::array<double, kNumCores> &values)
{
    Json arr = Json::array();
    for (double v : values)
        arr.push(Json::number(v));
    return arr;
}

std::array<double, kNumCores>
decodeCoreArray(const Json &arr)
{
    if (!arr.isArray() || arr.size() != static_cast<size_t>(kNumCores))
        throw JsonError("expected an array of 6 numbers");
    std::array<double, kNumCores> values{};
    for (int c = 0; c < kNumCores; ++c)
        values[static_cast<size_t>(c)] =
            arr.at(static_cast<size_t>(c)).asNumber();
    return values;
}

Json
encodeMapping(const Mapping &mapping)
{
    Json arr = Json::array();
    for (WorkloadClass w : mapping)
        arr.push(Json::number(static_cast<double>(w)));
    return arr;
}

Mapping
decodeMapping(const Json &arr)
{
    if (!arr.isArray() || arr.size() != static_cast<size_t>(kNumCores))
        throw JsonError("'mapping' must be an array of 6 classes");
    Mapping mapping{};
    for (int c = 0; c < kNumCores; ++c) {
        double v = arr.at(static_cast<size_t>(c)).asNumber();
        if (v != 0.0 && v != 1.0 && v != 2.0)
            throw JsonError("'mapping' classes must be 0 (idle), "
                            "1 (medium) or 2 (max)");
        mapping[c] = static_cast<WorkloadClass>(static_cast<int>(v));
    }
    return mapping;
}

} // namespace

Verb
requestVerb(const AnyRequest &request)
{
    struct Visitor
    {
        Verb operator()(const SweepRequest &) { return Verb::Sweep; }
        Verb operator()(const MapRequest &) { return Verb::Map; }
        Verb operator()(const MarginRequest &) { return Verb::Margin; }
        Verb operator()(const GuardbandRequest &)
        {
            return Verb::Guardband;
        }
        Verb operator()(const TraceRequest &) { return Verb::Trace; }
    };
    return std::visit(Visitor{}, request);
}

std::string
requestKey(const AnyRequest &request)
{
    struct Visitor
    {
        std::string
        operator()(const SweepRequest &r)
        {
            return std::string("sweep sync=") +
                   (r.spec.synchronized ? "1" : "0") +
                   " f=" + numKey(r.spec.freq_hz);
        }
        std::string
        operator()(const MapRequest &r)
        {
            std::string key = "map f=" + numKey(r.freq_hz) + " m=";
            for (WorkloadClass w : r.mapping)
                key += static_cast<char>('0' + static_cast<int>(w));
            return key;
        }
        std::string
        operator()(const MarginRequest &r)
        {
            return "margin f=" + numKey(r.spec.freq_hz) +
                   " n=" + std::to_string(r.spec.events) +
                   " step=" + numKey(r.bias_step);
        }
        std::string
        operator()(const GuardbandRequest &r)
        {
            return "guardband i=" + std::to_string(r.trace.intervals) +
                   " mean=" + numKey(r.trace.mean_active_cores) +
                   " seed=" + std::to_string(r.trace.seed);
        }
        std::string
        operator()(const TraceRequest &r)
        {
            return "trace f=" + numKey(r.spec.freq_hz) +
                   " w=" + numKey(r.spec.window) +
                   " c=" + std::to_string(r.spec.core) +
                   " d=" + std::to_string(r.spec.decimation);
        }
    };
    return std::visit(Visitor{}, request);
}

AnyRequest
decodeRequestParams(Verb verb, const Json &params)
{
    if (!params.isObject())
        throw JsonError("'params' must be an object");
    switch (verb) {
    case Verb::Sweep: {
        SweepRequest r;
        r.spec.freq_hz = requirePositive(params, "freq_hz");
        r.spec.synchronized = params.boolOr("synchronized", false);
        return r;
    }
    case Verb::Map: {
        MapRequest r;
        r.mapping = decodeMapping(params.at("mapping"));
        if (params.has("freq_hz"))
            r.freq_hz = requirePositive(params, "freq_hz");
        return r;
    }
    case Verb::Margin: {
        MarginRequest r;
        r.spec.freq_hz = requirePositive(params, "freq_hz");
        r.spec.events = requireInt(params, "events");
        if (params.has("bias_step")) {
            r.bias_step = requirePositive(params, "bias_step");
            if (r.bias_step > 0.1)
                throw JsonError("'bias_step' must be <= 0.1");
        }
        return r;
    }
    case Verb::Guardband: {
        GuardbandRequest r;
        if (params.has("intervals")) {
            int intervals = requireInt(params, "intervals");
            if (intervals < 1 || intervals > 1000000)
                throw JsonError("'intervals' must be in [1, 1e6]");
            r.trace.intervals = static_cast<size_t>(intervals);
        }
        if (params.has("mean_active_cores")) {
            double mean = requireFinite(params, "mean_active_cores");
            if (mean < 0.0 || mean > kNumCores)
                throw JsonError("'mean_active_cores' must be in [0, 6]");
            r.trace.mean_active_cores = mean;
        }
        if (params.has("seed")) {
            // Symmetric with encodeRequestParams, which emits the
            // seed as a JSON number: accept the exactly-representable
            // non-negative integers (<= 2^53) and reject the rest —
            // a negative seed must error, not wrap to a huge uint64.
            double seed = requireFinite(params, "seed");
            if (seed != std::floor(seed) || seed < 0.0 ||
                seed > 9007199254740992.0)
                throw JsonError(
                    "'seed' must be a non-negative integer <= 2^53");
            r.trace.seed = static_cast<uint64_t>(seed);
        }
        return r;
    }
    case Verb::Trace: {
        TraceRequest r;
        r.spec.freq_hz = requirePositive(params, "freq_hz");
        if (params.has("window")) {
            r.spec.window = requirePositive(params, "window");
            if (r.spec.window > 1e-3)
                throw JsonError("'window' must be <= 1 ms");
        }
        if (params.has("core")) {
            int core = requireInt(params, "core");
            if (core < 0 || core >= kNumCores)
                throw JsonError("'core' must be in [0, 6)");
            r.spec.core = core;
        }
        if (params.has("decimation")) {
            int decimation = requireInt(params, "decimation");
            if (decimation < 1)
                throw JsonError("'decimation' must be >= 1");
            r.spec.decimation = static_cast<unsigned>(decimation);
        }
        return r;
    }
    default:
        throw JsonError("verb carries no params");
    }
}

std::variant<DecodedRequest, RejectedRequest>
decodeRequest(std::string_view text)
{
    Json envelope;
    try {
        envelope = Json::parse(text);
    } catch (const JsonError &e) {
        return RejectedRequest{Json(), {"malformed_frame", e.what()}};
    }
    if (!envelope.isObject())
        return RejectedRequest{
            Json(), {"malformed_frame", "request must be a JSON object"}};

    DecodedRequest decoded;
    if (envelope.has("id"))
        decoded.id = envelope.at("id");
    auto reject = [&decoded](const char *code, std::string message) {
        return RejectedRequest{std::move(decoded.id),
                               {code, std::move(message)}};
    };

    if (!envelope.has("verb") || !envelope.at("verb").isString())
        return reject("bad_request", "missing string field 'verb'");
    const std::string &name = envelope.at("verb").asString();
    std::optional<Verb> verb = verbFromName(name);
    if (!verb)
        return reject("unknown_verb", "unknown verb '" + name + "'");
    decoded.verb = *verb;
    if (*verb == Verb::Ping || *verb == Verb::Stats ||
        *verb == Verb::Shutdown)
        return decoded;

    static const Json kNoParams = Json::object();
    try {
        decoded.request = decodeRequestParams(
            *verb, envelope.has("params") ? envelope.at("params")
                                          : kNoParams);
    } catch (const JsonError &e) {
        return reject("bad_request", e.what());
    }

    if (envelope.has("deadline_ms")) {
        const Json &raw = envelope.at("deadline_ms");
        double ms = raw.isNumber() ? raw.asNumber() : -1.0;
        if (!(ms >= 0) || ms > 3.6e6)
            return reject("bad_request",
                          "deadline_ms must be a number in [0, 3.6e6]");
        decoded.deadline_ms = ms;
    }
    if (envelope.has("accept_stream")) {
        const Json &raw = envelope.at("accept_stream");
        if (!raw.isBool())
            return reject("bad_request",
                          "accept_stream must be a boolean");
        decoded.accept_stream = raw.asBool();
    }
    return decoded;
}

Json
encodeRequestParams(const AnyRequest &request)
{
    struct Visitor
    {
        Json
        operator()(const SweepRequest &r)
        {
            Json params = Json::object();
            params.set("freq_hz", Json::number(r.spec.freq_hz));
            params.set("synchronized",
                       Json::boolean(r.spec.synchronized));
            return params;
        }
        Json
        operator()(const MapRequest &r)
        {
            Json params = Json::object();
            params.set("mapping", encodeMapping(r.mapping));
            params.set("freq_hz", Json::number(r.freq_hz));
            return params;
        }
        Json
        operator()(const MarginRequest &r)
        {
            Json params = Json::object();
            params.set("freq_hz", Json::number(r.spec.freq_hz));
            params.set("events",
                       Json::number(static_cast<double>(r.spec.events)));
            params.set("bias_step", Json::number(r.bias_step));
            return params;
        }
        Json
        operator()(const GuardbandRequest &r)
        {
            Json params = Json::object();
            params.set("intervals",
                       Json::number(
                           static_cast<double>(r.trace.intervals)));
            params.set("mean_active_cores",
                       Json::number(r.trace.mean_active_cores));
            params.set("seed",
                       Json::number(static_cast<double>(r.trace.seed)));
            return params;
        }
        Json
        operator()(const TraceRequest &r)
        {
            Json params = Json::object();
            params.set("freq_hz", Json::number(r.spec.freq_hz));
            params.set("window", Json::number(r.spec.window));
            params.set("core",
                       Json::number(static_cast<double>(r.spec.core)));
            params.set("decimation",
                       Json::number(
                           static_cast<double>(r.spec.decimation)));
            return params;
        }
    };
    return std::visit(Visitor{}, request);
}

Json
encodeResult(const AnyResult &result)
{
    struct Visitor
    {
        Json
        operator()(const FreqSweepPoint &p)
        {
            Json out = Json::object();
            out.set("freq_hz", Json::number(p.freq_hz));
            out.set("p2p", coreArray(p.p2p));
            out.set("v_min", coreArray(p.v_min));
            out.set("max_p2p", Json::number(p.max_p2p));
            out.set("min_v", Json::number(p.min_v));
            return out;
        }
        Json
        operator()(const MappingResult &r)
        {
            Json out = Json::object();
            out.set("mapping", encodeMapping(r.mapping));
            out.set("p2p", coreArray(r.p2p));
            out.set("v_min", coreArray(r.v_min));
            out.set("max_p2p", Json::number(r.max_p2p));
            out.set("delta_i_fraction",
                    Json::number(r.delta_i_fraction));
            out.set("n_max", Json::number(r.n_max));
            out.set("n_medium", Json::number(r.n_medium));
            return out;
        }
        Json
        operator()(const MarginPoint &p)
        {
            Json out = Json::object();
            out.set("freq_hz", Json::number(p.freq_hz));
            out.set("events",
                    Json::number(static_cast<double>(p.events)));
            out.set("bias_at_failure", Json::number(p.bias_at_failure));
            out.set("failed", Json::boolean(p.failed));
            return out;
        }
        Json
        operator()(const GuardbandResult &r)
        {
            Json safe = Json::array();
            Json droop = Json::array();
            Json hist = Json::array();
            for (int k = 0; k <= kNumCores; ++k) {
                safe.push(Json::number(
                    r.safe_bias[static_cast<size_t>(k)]));
                droop.push(Json::number(
                    r.worst_droop[static_cast<size_t>(k)]));
                hist.push(Json::number(static_cast<double>(
                    r.histogram[static_cast<size_t>(k)])));
            }
            Json out = Json::object();
            out.set("safe_bias", std::move(safe));
            out.set("worst_droop", std::move(droop));
            out.set("histogram", std::move(hist));
            out.set("avg_voltage_static",
                    Json::number(r.avg_voltage_static));
            out.set("avg_voltage_dynamic",
                    Json::number(r.avg_voltage_dynamic));
            return out;
        }
        Json
        operator()(const DroopTrace &t)
        {
            Json samples = Json::array();
            for (double v : t.v)
                samples.push(Json::number(v));
            Json out = Json::object();
            out.set("t0", Json::number(t.t0));
            out.set("dt", Json::number(t.dt));
            out.set("v_min", Json::number(t.v_min));
            out.set("v_max", Json::number(t.v_max));
            out.set("v", std::move(samples));
            return out;
        }
    };
    return std::visit(Visitor{}, result);
}

AnyResult
decodeResult(Verb verb, const Json &result)
{
    switch (verb) {
    case Verb::Sweep: {
        FreqSweepPoint p;
        p.freq_hz = result.at("freq_hz").asNumber();
        p.p2p = decodeCoreArray(result.at("p2p"));
        p.v_min = decodeCoreArray(result.at("v_min"));
        p.max_p2p = result.at("max_p2p").asNumber();
        p.min_v = result.at("min_v").asNumber();
        return p;
    }
    case Verb::Map: {
        MappingResult r;
        r.mapping = decodeMapping(result.at("mapping"));
        r.p2p = decodeCoreArray(result.at("p2p"));
        r.v_min = decodeCoreArray(result.at("v_min"));
        r.max_p2p = result.at("max_p2p").asNumber();
        r.delta_i_fraction = result.at("delta_i_fraction").asNumber();
        r.n_max = static_cast<int>(result.at("n_max").asNumber());
        r.n_medium = static_cast<int>(result.at("n_medium").asNumber());
        return r;
    }
    case Verb::Margin: {
        MarginPoint p;
        p.freq_hz = result.at("freq_hz").asNumber();
        p.events = static_cast<int>(result.at("events").asNumber());
        p.bias_at_failure = result.at("bias_at_failure").asNumber();
        p.failed = result.at("failed").asBool();
        return p;
    }
    case Verb::Guardband: {
        GuardbandResult r;
        const Json &safe = result.at("safe_bias");
        const Json &droop = result.at("worst_droop");
        const Json &hist = result.at("histogram");
        if (safe.size() != kNumCores + 1 ||
            droop.size() != kNumCores + 1 ||
            hist.size() != kNumCores + 1)
            throw JsonError("guardband arrays must have 7 entries");
        for (size_t k = 0; k <= kNumCores; ++k) {
            r.safe_bias[k] = safe.at(k).asNumber();
            r.worst_droop[k] = droop.at(k).asNumber();
            r.histogram[k] =
                static_cast<size_t>(hist.at(k).asNumber());
        }
        r.avg_voltage_static =
            result.at("avg_voltage_static").asNumber();
        r.avg_voltage_dynamic =
            result.at("avg_voltage_dynamic").asNumber();
        return r;
    }
    case Verb::Trace: {
        DroopTrace t;
        t.t0 = result.at("t0").asNumber();
        t.dt = result.at("dt").asNumber();
        t.v_min = result.at("v_min").asNumber();
        t.v_max = result.at("v_max").asNumber();
        const Json &samples = result.at("v");
        if (samples.size() > kMaxTraceSamples)
            throw JsonError("trace carries too many samples");
        t.v.reserve(samples.size());
        for (const Json &v : samples.items())
            t.v.push_back(v.asNumber());
        return t;
    }
    default:
        throw JsonError("verb carries no typed result");
    }
}

} // namespace vn::service
