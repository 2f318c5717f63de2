/**
 * @file
 * The vnoised wire protocol.
 *
 * Transport: a TCP byte stream carrying length-prefixed frames. A
 * frame is a 4-byte big-endian payload length followed by that many
 * bytes of UTF-8 JSON. Frames above the receiver's size limit are
 * answered with an `oversized_frame` error and the connection is
 * closed (the declared length cannot be trusted for resync).
 *
 * Requests:  {"id": N, "verb": "sweep", "params": {...},
 *             "deadline_ms": 2000}
 * Responses: {"id": N, "ok": true,  "result": {...}}
 *            {"id": N, "ok": false, "error": {"code": "...",
 *                                             "message": "..."}}
 *
 * `id` is chosen by the client and echoed verbatim; `deadline_ms` is
 * optional and relative to arrival — a request still queued when it
 * expires is answered with `deadline_exceeded` instead of computed.
 * Numbers are printed with 17 significant digits, so every double a
 * harness computes survives the wire bit-exactly.
 *
 * Error codes: malformed_frame, oversized_frame, unknown_verb,
 * bad_request, overloaded, deadline_exceeded, shutting_down, internal,
 * result_too_large. The envelope's own (malformed_frame, bad_request,
 * unknown_verb) come from decodeRequest() in codec.hh; `internal` is
 * also what serveFrames() answers when a frame handler throws.
 *
 * Streaming: a request may carry `"accept_stream": true` (a boolean;
 * anything else is a bad_request). A server whose encoded result would
 * not fit one frame may then answer with a chunked stream instead of a
 * single response:
 *
 *   {"id": N, "ok": true, "stream": "begin", "verb": "trace",
 *    "bytes": B, "chunks": K, "chunk_bytes": C}
 *   {"id": N, "stream": "chunk", "seq": 0, "data": "..."}  (x K, seq
 *    strictly 0..K-1)
 *   {"id": N, "stream": "end", "chunks": K, "checksum": "<16 hex>"}
 *
 * `data` carries consecutive substrings of the result's canonical JSON
 * text; concatenated in sequence order they reconstruct it exactly,
 * and `checksum` is the FNV-1a 64 of the whole text. A second `begin`
 * for an id already mid-stream RESTARTS reassembly from scratch — this
 * is how a retry or a router fail-over replaces a torn stream with a
 * clean one on the same connection. Any sequencing violation
 * (out-of-order, duplicate, or missing seq; checksum mismatch) is a
 * protocol error: the client closes the connection rather than guess.
 * A result too large for one frame sent to a client that did NOT opt
 * in is answered with a `result_too_large` error instead of an
 * unparseable oversized frame.
 */

#ifndef VN_SERVICE_PROTOCOL_HH
#define VN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "service/json.hh"

namespace vn::service
{

/** Protocol revision announced by `ping`. */
inline constexpr int kProtocolVersion = 1;

/** Default vnoised TCP port (loopback only). */
inline constexpr int kDefaultPort = 7411;

/** Default port of the HTTP/1.1 observability gateway. */
inline constexpr int kDefaultHttpPort = 7412;

/** Default vnoise_router TCP port (same framed protocol). */
inline constexpr int kDefaultRouterPort = 7413;

/** Default port of the router's own metrics gateway. */
inline constexpr int kDefaultRouterHttpPort = 7414;

/** Default cap on one frame's JSON payload. */
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

/** Default size of one stream chunk's `data` text. */
inline constexpr size_t kDefaultStreamChunkBytes = 256 * 1024;

/** Request verbs. */
enum class Verb
{
    Ping,
    Stats,
    Shutdown,
    Sweep,
    Map,
    Margin,
    Guardband,
    Trace,
};

/** Wire name of a verb ("sweep", ...). */
const char *verbName(Verb verb);

/** Verb for a wire name; nullopt for an unknown verb. */
std::optional<Verb> verbFromName(const std::string &name);

/** A structured protocol error. */
struct WireError
{
    std::string code;    //!< machine-readable ("overloaded", ...)
    std::string message; //!< human-readable detail

    /**
     * Server hint: do not retry sooner than this (milliseconds).
     * <= 0 means no hint; only emitted on the wire when positive.
     * Attached to `overloaded` rejects so a well-behaved client backs
     * off at least one batch window instead of hammering the queue.
     */
    double retry_after_ms = 0.0;
};

/** Outcome of reading one frame from a stream. */
enum class FrameStatus
{
    Ok,        //!< payload filled
    Eof,       //!< clean end of stream before a header byte
    Truncated, //!< stream ended mid-frame
    Oversized, //!< declared length exceeds the limit
    IoError,   //!< read(2) failed
};

/**
 * Read one length-prefixed frame from `fd` into `payload`.
 * Blocks until a full frame, EOF, or an error; EINTR is retried.
 */
FrameStatus readFrame(int fd, std::string &payload, size_t max_bytes);

/** Write one frame (retries partial writes); false on error/EPIPE. */
bool writeFrame(int fd, const std::string &payload);

/**
 * The framed read loop of one vnoised or vnoise_router connection:
 * hand each frame read from `fd` to `on_frame` until the peer hangs up
 * or `on_frame` returns false. A frame over `max_frame_bytes` is
 * answered `oversized_frame` through `send` and ends the loop (the
 * stream cannot be resynchronized); so does an exception escaping
 * `on_frame`, answered `internal`. Lingers before returning, so the
 * last answer reaches the peer. Returns the read status that ended the
 * loop (Ok when `on_frame` did).
 */
FrameStatus
serveFrames(int fd, size_t max_frame_bytes,
            const std::function<bool(const std::string &)> &on_frame,
            const std::function<void(const Json &)> &send);

/** Build the JSON envelope of a success response. */
Json makeOkResponse(const Json &id, Json result);

/** Build the JSON envelope of an error response. */
Json makeErrorResponse(const Json &id, const WireError &error);

/** What kind of response frame a parsed payload is. */
enum class StreamFrameKind
{
    None,  //!< ordinary single-frame response (no "stream" key)
    Begin, //!< stream header frame
    Chunk, //!< one data chunk
    End,   //!< terminal frame with checksum
    Bad,   //!< has a "stream" key but malformed / unknown kind
};

/** Classify a parsed response frame. */
StreamFrameKind streamFrameKind(const Json &frame);

/** FNV-1a 64 of the full result text, as 16 lowercase hex digits. */
std::string streamChecksumHex(const std::string &text);

/** Build the `stream: begin` header frame. */
Json makeStreamBegin(const Json &id, const std::string &verb, size_t bytes,
                     size_t chunks, size_t chunk_bytes);

/** Build one `stream: chunk` frame carrying `data`. */
Json makeStreamChunk(const Json &id, size_t seq, std::string data);

/** Build the terminal `stream: end` frame. */
Json makeStreamEnd(const Json &id, size_t chunks,
                   const std::string &checksum);

/**
 * Number of chunks needed to carry `bytes` of result text at
 * `chunk_bytes` per chunk (at least 1 — an empty result still streams
 * one empty chunk so begin/chunk/end framing stays uniform).
 */
size_t streamChunkCount(size_t bytes, size_t chunk_bytes);

} // namespace vn::service

#endif // VN_SERVICE_PROTOCOL_HH
