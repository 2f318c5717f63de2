#include "service/client.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "runtime/hash.hh"
#include "service/listener.hh"

#include <unistd.h>

namespace vn::service
{

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_), deadline_ms_(other.deadline_ms_),
      accept_stream_(other.accept_stream_)
{}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        next_id_ = other.next_id_;
        deadline_ms_ = other.deadline_ms_;
        accept_stream_ = other.accept_stream_;
    }
    return *this;
}

void
Client::connect(int port)
{
    // Dial the new connection FIRST and only then replace the old one:
    // a failed connect() must leave the object exactly as it was (still
    // usable, never half-constructed), so a caller can retry connect()
    // or keep using the previous connection.
    int fd = dialLoopback(port);
    if (fd < 0)
        throw ServiceError("io_error",
                           "connect 127.0.0.1:" + std::to_string(port) +
                               ": " + std::strerror(errno));
    close();
    fd_ = fd;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

namespace
{

/** Throw the structured error carried by an ok:false response. */
[[noreturn]] void
throwWireError(const Json &response)
{
    if (!response.has("error"))
        throw ServiceError("bad_response",
                           "error response without detail");
    const Json &error = response.at("error");
    throw ServiceError(error.has("code") ? error.at("code").asString()
                                         : "unknown",
                       error.has("message")
                           ? error.at("message").asString()
                           : "",
                       error.has("retry_after_ms") &&
                               error.at("retry_after_ms").isNumber()
                           ? error.at("retry_after_ms").asNumber()
                           : 0.0);
}

} // namespace

Json
Client::call(const std::string &verb, Json params)
{
    return call(verb, std::move(params), nullptr);
}

Json
Client::call(const std::string &verb, Json params, StreamSink *sink)
{
    if (fd_ < 0)
        throw ServiceError("io_error", "client is not connected");

    double id = static_cast<double>(next_id_++);
    Json request = Json::object();
    request.set("id", Json::number(id));
    request.set("verb", Json::str(verb));
    request.set("params", std::move(params));
    if (deadline_ms_)
        request.set("deadline_ms", Json::number(*deadline_ms_));
    if (accept_stream_ || sink)
        request.set("accept_stream", Json::boolean(true));

    if (!writeFrame(fd_, request.dump())) {
        close();
        throw ServiceError("io_error", "request write failed");
    }

    // A protocol violation (bad sequencing, checksum mismatch, torn
    // framing) poisons the connection — frames after it cannot be
    // trusted to belong to anything — so every such path closes
    // before throwing `bad_response`.
    auto protocolError = [this](const std::string &message)
        -> ServiceError {
        close();
        return ServiceError("bad_response", message);
    };

    bool streaming = false;
    std::string text;         //!< reassembled result (no sink)
    size_t expected_seq = 0;
    size_t announced_chunks = 0;
    size_t announced_bytes = 0;
    uint64_t relay_hash = runtime::kFnvOffset; //!< sink-mode checksum

    std::string payload;
    while (true) {
        FrameStatus status =
            readFrame(fd_, payload, kDefaultMaxFrameBytes);
        if (status != FrameStatus::Ok) {
            close();
            // A cut mid-stream surfaces as ONE io_error — the caller
            // never sees a torn result.
            throw ServiceError("io_error",
                               status == FrameStatus::Eof
                                   ? "server closed the connection"
                                   : "response read failed");
        }

        Json response;
        try {
            response = Json::parse(payload);
        } catch (const JsonError &e) {
            throw protocolError(e.what());
        }
        if (!response.isObject())
            throw protocolError("response is not an object");
        if (response.has("id") && response.at("id").isNumber() &&
            response.at("id").asNumber() != id)
            throw protocolError(
                "response id does not match request id");

        StreamFrameKind kind = streamFrameKind(response);
        switch (kind) {
        case StreamFrameKind::None: {
            if (!response.has("ok"))
                throw protocolError("response missing 'ok' field");
            // An error frame aborts a stream with the call's error
            // (the router answers this way when a relay upstream
            // dies); an ok frame mid-stream is a protocol violation.
            if (!response.at("ok").asBool())
                throwWireError(response);
            if (streaming)
                throw protocolError(
                    "single-frame response arrived mid-stream");
            if (!response.has("result"))
                throw protocolError("ok response without 'result'");
            return response.at("result");
        }
        case StreamFrameKind::Bad:
            throw protocolError("malformed stream frame");
        case StreamFrameKind::Begin: {
            // A second begin RESTARTS reassembly: this is how a
            // retried upstream call or a router fail-over replaces a
            // torn stream on the same downstream connection.
            streaming = true;
            expected_seq = 0;
            announced_chunks = static_cast<size_t>(
                response.at("chunks").asNumber());
            announced_bytes = static_cast<size_t>(
                response.at("bytes").asNumber());
            if (announced_bytes > kMaxStreamResultBytes)
                throw protocolError("stream announces " +
                                    std::to_string(announced_bytes) +
                                    " bytes; refusing to reassemble");
            text.clear();
            relay_hash = runtime::kFnvOffset;
            if (sink) {
                if (!sink->onStreamFrame(response, kind)) {
                    close();
                    throw ServiceError("aborted",
                                       "stream sink abandoned the "
                                       "relay");
                }
            } else {
                text.reserve(announced_bytes);
            }
            break;
        }
        case StreamFrameKind::Chunk: {
            if (!streaming)
                throw protocolError("stream_chunk before stream_begin");
            size_t seq =
                static_cast<size_t>(response.at("seq").asNumber());
            if (seq != expected_seq)
                throw protocolError(
                    "stream_chunk out of order (seq " +
                    std::to_string(seq) + ", expected " +
                    std::to_string(expected_seq) + ")");
            if (seq >= announced_chunks)
                throw protocolError("stream_chunk beyond announced "
                                    "chunk count");
            ++expected_seq;
            const std::string &data = response.at("data").asString();
            if (sink) {
                relay_hash = runtime::fnv1aAppend(relay_hash, data);
                if (!sink->onStreamFrame(response, kind)) {
                    close();
                    throw ServiceError("aborted",
                                       "stream sink abandoned the "
                                       "relay");
                }
            } else {
                if (text.size() + data.size() > announced_bytes)
                    throw protocolError(
                        "stream data exceeds announced byte count");
                text += data;
            }
            break;
        }
        case StreamFrameKind::End: {
            if (!streaming)
                throw protocolError("stream_end before stream_begin");
            size_t chunks = static_cast<size_t>(
                response.at("chunks").asNumber());
            if (chunks != expected_seq || chunks != announced_chunks)
                throw protocolError(
                    "stream_end chunk count mismatch (saw " +
                    std::to_string(expected_seq) + ", end says " +
                    std::to_string(chunks) + ", begin said " +
                    std::to_string(announced_chunks) + ")");
            const std::string &checksum =
                response.at("checksum").asString();
            if (sink) {
                char buf[17];
                std::snprintf(buf, sizeof(buf), "%016llx",
                              static_cast<unsigned long long>(
                                  relay_hash));
                if (checksum != buf)
                    throw protocolError("stream checksum mismatch");
                if (!sink->onStreamFrame(response, kind)) {
                    close();
                    throw ServiceError("aborted",
                                       "stream sink abandoned the "
                                       "relay");
                }
                return Json();
            }
            if (text.size() != announced_bytes)
                throw protocolError(
                    "stream byte count mismatch (reassembled " +
                    std::to_string(text.size()) + ", begin said " +
                    std::to_string(announced_bytes) + ")");
            if (checksum != streamChecksumHex(text))
                throw protocolError("stream checksum mismatch");
            try {
                return Json::parse(text);
            } catch (const JsonError &e) {
                throw protocolError(
                    std::string("streamed result does not parse: ") +
                    e.what());
            }
        }
        }
    }
}

AnyResult
Client::callTyped(const AnyRequest &request)
{
    Verb verb = requestVerb(request);
    Json result = call(verbName(verb), encodeRequestParams(request));
    try {
        return decodeResult(verb, result);
    } catch (const JsonError &e) {
        throw ServiceError("bad_response", e.what());
    }
}

FreqSweepPoint
Client::sweep(const SweepRequest &request)
{
    return std::get<FreqSweepPoint>(callTyped(request));
}

MappingResult
Client::map(const MapRequest &request)
{
    return std::get<MappingResult>(callTyped(request));
}

MarginPoint
Client::margin(const MarginRequest &request)
{
    return std::get<MarginPoint>(callTyped(request));
}

GuardbandResult
Client::guardband(const GuardbandRequest &request)
{
    return std::get<GuardbandResult>(callTyped(request));
}

DroopTrace
Client::trace(const TraceRequest &request)
{
    return std::get<DroopTrace>(callTyped(request));
}

int
Client::ping()
{
    Json result = call("ping", Json::object());
    return static_cast<int>(result.numberOr("protocol", 0));
}

Json
Client::stats()
{
    return call("stats", Json::object());
}

void
Client::shutdown()
{
    call("shutdown", Json::object());
}

} // namespace vn::service
