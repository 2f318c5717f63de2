#include "service/protocol.hh"

#include <cerrno>
#include <cstdio>

#include <unistd.h>

#include "runtime/hash.hh"
#include "service/listener.hh"

namespace vn::service
{

const char *
verbName(Verb verb)
{
    switch (verb) {
    case Verb::Ping: return "ping";
    case Verb::Stats: return "stats";
    case Verb::Shutdown: return "shutdown";
    case Verb::Sweep: return "sweep";
    case Verb::Map: return "map";
    case Verb::Margin: return "margin";
    case Verb::Guardband: return "guardband";
    case Verb::Trace: return "trace";
    }
    return "?";
}

std::optional<Verb>
verbFromName(const std::string &name)
{
    for (Verb verb : {Verb::Ping, Verb::Stats, Verb::Shutdown, Verb::Sweep,
                      Verb::Map, Verb::Margin, Verb::Guardband,
                      Verb::Trace}) {
        if (name == verbName(verb))
            return verb;
    }
    return std::nullopt;
}

namespace
{

/** read() exactly n bytes; 0 on success, 1 on EOF, -1 on error. */
int
readExactly(int fd, char *buf, size_t n)
{
    size_t done = 0;
    while (done < n) {
        ssize_t got = ::read(fd, buf + done, n - done);
        if (got == 0)
            return 1;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        done += static_cast<size_t>(got);
    }
    return 0;
}

} // namespace

FrameStatus
readFrame(int fd, std::string &payload, size_t max_bytes)
{
    unsigned char header[4];
    int rc = readExactly(fd, reinterpret_cast<char *>(header), 4);
    if (rc == 1)
        return FrameStatus::Eof;
    if (rc < 0)
        return FrameStatus::IoError;

    uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                      (static_cast<uint32_t>(header[1]) << 16) |
                      (static_cast<uint32_t>(header[2]) << 8) |
                      static_cast<uint32_t>(header[3]);
    if (length > max_bytes)
        return FrameStatus::Oversized;

    payload.resize(length);
    rc = readExactly(fd, payload.data(), length);
    if (rc == 1)
        return FrameStatus::Truncated;
    if (rc < 0)
        return FrameStatus::IoError;
    return FrameStatus::Ok;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > UINT32_MAX)
        return false;
    uint32_t length = static_cast<uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>(length >> 24),
        static_cast<unsigned char>(length >> 16),
        static_cast<unsigned char>(length >> 8),
        static_cast<unsigned char>(length),
    };

    std::string frame(reinterpret_cast<char *>(header), 4);
    frame += payload;
    return sendAll(fd, frame);
}

FrameStatus
serveFrames(int fd, size_t max_frame_bytes,
            const std::function<bool(const std::string &)> &on_frame,
            const std::function<void(const Json &)> &send)
{
    std::string payload;
    FrameStatus status = FrameStatus::Ok;
    while ((status = readFrame(fd, payload, max_frame_bytes)) ==
           FrameStatus::Ok) {
        bool proceed = false;
        try {
            proceed = on_frame(payload);
        } catch (const std::exception &e) {
            // Belt and braces: an exception escaping into the thread
            // entry would std::terminate the daemon, so no request —
            // however hostile — may throw past here. Answer, hang up.
            send(makeErrorResponse(Json(), WireError{"internal", e.what()}));
        }
        if (!proceed)
            break;
    }
    if (status == FrameStatus::Oversized)
        send(makeErrorResponse(
            Json(), WireError{"oversized_frame",
                              "frame exceeds " +
                                  std::to_string(max_frame_bytes) +
                                  " bytes"}));
    lingerBeforeClose(fd);
    return status;
}

Json
makeOkResponse(const Json &id, Json result)
{
    Json response = Json::object();
    response.set("id", id);
    response.set("ok", Json::boolean(true));
    response.set("result", std::move(result));
    return response;
}

Json
makeErrorResponse(const Json &id, const WireError &error)
{
    Json detail = Json::object();
    detail.set("code", Json::str(error.code));
    detail.set("message", Json::str(error.message));
    if (error.retry_after_ms > 0.0)
        detail.set("retry_after_ms", Json::number(error.retry_after_ms));

    Json response = Json::object();
    response.set("id", id);
    response.set("ok", Json::boolean(false));
    response.set("error", std::move(detail));
    return response;
}

StreamFrameKind
streamFrameKind(const Json &frame)
{
    if (!frame.isObject() || !frame.has("stream"))
        return StreamFrameKind::None;
    const Json &kind = frame.at("stream");
    if (!kind.isString())
        return StreamFrameKind::Bad;
    const std::string &name = kind.asString();
    if (name == "begin") {
        if (!frame.has("bytes") || !frame.at("bytes").isNumber() ||
            !frame.has("chunks") || !frame.at("chunks").isNumber())
            return StreamFrameKind::Bad;
        return StreamFrameKind::Begin;
    }
    if (name == "chunk") {
        if (!frame.has("seq") || !frame.at("seq").isNumber() ||
            !frame.has("data") || !frame.at("data").isString())
            return StreamFrameKind::Bad;
        return StreamFrameKind::Chunk;
    }
    if (name == "end") {
        if (!frame.has("chunks") || !frame.at("chunks").isNumber() ||
            !frame.has("checksum") || !frame.at("checksum").isString())
            return StreamFrameKind::Bad;
        return StreamFrameKind::End;
    }
    return StreamFrameKind::Bad;
}

std::string
streamChecksumHex(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(runtime::fnv1a(text)));
    return std::string(buf, 16);
}

Json
makeStreamBegin(const Json &id, const std::string &verb, size_t bytes,
                size_t chunks, size_t chunk_bytes)
{
    Json frame = Json::object();
    frame.set("id", id);
    frame.set("ok", Json::boolean(true));
    frame.set("stream", Json::str("begin"));
    frame.set("verb", Json::str(verb));
    frame.set("bytes", Json::number(static_cast<double>(bytes)));
    frame.set("chunks", Json::number(static_cast<double>(chunks)));
    frame.set("chunk_bytes", Json::number(static_cast<double>(chunk_bytes)));
    return frame;
}

Json
makeStreamChunk(const Json &id, size_t seq, std::string data)
{
    Json frame = Json::object();
    frame.set("id", id);
    frame.set("stream", Json::str("chunk"));
    frame.set("seq", Json::number(static_cast<double>(seq)));
    frame.set("data", Json::str(std::move(data)));
    return frame;
}

Json
makeStreamEnd(const Json &id, size_t chunks, const std::string &checksum)
{
    Json frame = Json::object();
    frame.set("id", id);
    frame.set("stream", Json::str("end"));
    frame.set("chunks", Json::number(static_cast<double>(chunks)));
    frame.set("checksum", Json::str(checksum));
    return frame;
}

size_t
streamChunkCount(size_t bytes, size_t chunk_bytes)
{
    if (chunk_bytes == 0)
        chunk_bytes = 1;
    size_t chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
    return chunks == 0 ? 1 : chunks;
}

} // namespace vn::service
