/**
 * @file
 * Typed requests/results of the vnoised service and their JSON codecs.
 *
 * The same codec is used on both sides of the wire: the server decodes
 * request params into these types and encodes harness results; the
 * client library does the reverse. decode* functions validate ranges
 * and throw JsonError on anything off — the server maps that to a
 * structured `bad_request` response. decodeRequest() applies the
 * request-envelope rules every front end (vnoised, its HTTP gateway,
 * vnoise_router) shares.
 */

#ifndef VN_SERVICE_CODEC_HH
#define VN_SERVICE_CODEC_HH

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "analysis/guardband.hh"
#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/serving.hh"
#include "analysis/sweeps.hh"
#include "service/json.hh"
#include "service/protocol.hh"

namespace vn::service
{

/** One noise-sweep point (Fig. 7a / Fig. 9 style). */
struct SweepRequest
{
    SweepPointSpec spec;
};

/** Score one workload-to-core mapping (Fig. 14 style). */
struct MapRequest
{
    Mapping mapping{};
    double freq_hz = 2e6;
};

/** One Vmin margin cell (Fig. 12 style). */
struct MarginRequest
{
    MarginSpec spec;
    double bias_step = 0.005;
};

/** Guard-band study over a synthetic utilization trace (§VII-B). */
struct GuardbandRequest
{
    UtilizationTraceParams trace;
};

/** Oscilloscope-style droop trace capture (Fig. 8 style). */
struct TraceRequest
{
    DroopTraceSpec spec;
};

using AnyRequest = std::variant<SweepRequest, MapRequest, MarginRequest,
                                GuardbandRequest, TraceRequest>;
using AnyResult = std::variant<FreqSweepPoint, MappingResult, MarginPoint,
                               GuardbandResult, DroopTrace>;

/** Verb a typed request travels under. */
Verb requestVerb(const AnyRequest &request);

/**
 * Canonical full-precision identity of a request: two requests with
 * equal keys are the same computation (the dispatcher coalesces them
 * into one campaign job).
 */
std::string requestKey(const AnyRequest &request);

/** Decode/validate `params` for a compute verb; throws JsonError. */
AnyRequest decodeRequestParams(Verb verb, const Json &params);

/** A request envelope that passed decodeRequest()'s rules. */
struct DecodedRequest
{
    Json id; //!< echoed verbatim; null when absent
    Verb verb = Verb::Ping;
    AnyRequest request; //!< this and below: compute verbs only
    std::optional<double> deadline_ms; //!< relative to arrival
    bool accept_stream = false;
};

/** A request envelope that broke one of decodeRequest()'s rules. */
struct RejectedRequest
{
    Json id; //!< the request's id when one was recovered, else null
    WireError error;
};

/**
 * Decode one request envelope (a frame's payload or a `POST /v1/query`
 * body) by the rules every front end shares, checked in this order:
 * the text is a JSON object (`malformed_frame`); `verb` is a string
 * (`bad_request`) naming a known verb (`unknown_verb`); ping, stats and
 * shutdown stop there; then `params` (default `{}`) must pass
 * decodeRequestParams, `deadline_ms` must be a number of milliseconds
 * in [0, one hour] and `accept_stream` a boolean, when present (each
 * `bad_request`). Hostile input yields a rejection, never an exception.
 */
std::variant<DecodedRequest, RejectedRequest>
decodeRequest(std::string_view text);

/** Encode a typed request's params (client side). */
Json encodeRequestParams(const AnyRequest &request);

/** Encode a harness result for the wire (server side). */
Json encodeResult(const AnyResult &result);

/** Decode a result for `verb` (client side); throws JsonError. */
AnyResult decodeResult(Verb verb, const Json &result);

} // namespace vn::service

#endif // VN_SERVICE_CODEC_HH
