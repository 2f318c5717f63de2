#include "service/faultnet.hh"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "service/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vn::service
{

namespace
{

/** The 4-byte big-endian frame header for a payload of `n` bytes. */
std::string
frameHeader(size_t n)
{
    std::string header(4, '\0');
    header[0] = static_cast<char>((n >> 24) & 0xff);
    header[1] = static_cast<char>((n >> 16) & 0xff);
    header[2] = static_cast<char>((n >> 8) & 0xff);
    header[3] = static_cast<char>(n & 0xff);
    return header;
}

/** %.17g: every double the schedule carries round-trips bit-exactly
 *  through dump()/parse(). */
std::string
formatMs(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

bool
sameAction(const FaultAction &a, const FaultAction &b)
{
    return a.kind == b.kind && a.bytes == b.bytes &&
           a.delay_ms == b.delay_ms &&
           a.retry_after_ms == b.retry_after_ms;
}

} // namespace

// ---------------------------------------------------------------------
// FaultSchedule

FaultSchedule &
FaultSchedule::refuseConnection(uint64_t conn_index)
{
    refused_connections_.insert(conn_index);
    return *this;
}

FaultSchedule &
FaultSchedule::cutMidFrame(uint64_t request_index, size_t bytes)
{
    FaultAction action;
    action.kind = FaultAction::Kind::CutMidFrame;
    action.bytes = bytes;
    by_request_[request_index] = action;
    return *this;
}

FaultSchedule &
FaultSchedule::truncate(uint64_t request_index, size_t bytes)
{
    FaultAction action;
    action.kind = FaultAction::Kind::TruncateFrame;
    action.bytes = bytes;
    by_request_[request_index] = action;
    return *this;
}

FaultSchedule &
FaultSchedule::delayMs(uint64_t request_index, double ms)
{
    FaultAction action;
    action.kind = FaultAction::Kind::DelayMs;
    action.delay_ms = ms;
    by_request_[request_index] = action;
    return *this;
}

FaultSchedule &
FaultSchedule::overloaded(uint64_t first_request_index, int count,
                          double retry_after_ms)
{
    for (int i = 0; i < count; ++i) {
        FaultAction action;
        action.kind = FaultAction::Kind::Overloaded;
        action.retry_after_ms = retry_after_ms;
        by_request_[first_request_index +
                    static_cast<uint64_t>(i)] = action;
    }
    return *this;
}

bool
FaultSchedule::connectionRefused(uint64_t conn_index) const
{
    return refused_connections_.count(conn_index) > 0;
}

FaultAction
FaultSchedule::actionFor(uint64_t request_index) const
{
    auto it = by_request_.find(request_index);
    return it == by_request_.end() ? FaultAction{} : it->second;
}

bool
FaultSchedule::empty() const
{
    return by_request_.empty() && refused_connections_.empty();
}

FaultSchedule
FaultSchedule::parse(const std::string &text)
{
    FaultSchedule schedule;
    std::istringstream lines(text);
    std::string line;
    int lineno = 0;
    while (std::getline(lines, line)) {
        ++lineno;
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word) || word[0] == '#')
            continue; // blank line or comment

        auto bad = [&](const std::string &why) {
            throw std::runtime_error(
                "FaultSchedule: line " + std::to_string(lineno) +
                ": " + why + ": " + line);
        };
        uint64_t index = 0;
        if (!(tokens >> index))
            bad("missing request/connection index");

        if (word == "refuse-conn") {
            schedule.refuseConnection(index);
        } else if (word == "cut" || word == "truncate") {
            uint64_t bytes = 0;
            if (!(tokens >> bytes))
                bad("missing byte count");
            if (word == "cut")
                schedule.cutMidFrame(index, bytes);
            else
                schedule.truncate(index, bytes);
        } else if (word == "delay") {
            double ms = 0.0;
            if (!(tokens >> ms))
                bad("missing delay in ms");
            schedule.delayMs(index, ms);
        } else if (word == "overloaded") {
            // COUNT and RETRY_AFTER_MS are optional: read into
            // temporaries and only overwrite the defaults when the
            // extraction succeeded (a failed operator>> writes 0,
            // which would reject the documented `overloaded N` form).
            int count = 1;
            double retry_after_ms = 0.0;
            int parsed_count = 0;
            if (tokens >> parsed_count) {
                count = parsed_count;
                double parsed_retry = 0.0;
                if (tokens >> parsed_retry)
                    retry_after_ms = parsed_retry;
                else
                    tokens.clear(); // absent: re-arm the trailing check
            } else {
                tokens.clear();
            }
            if (count < 1)
                bad("count must be >= 1");
            schedule.overloaded(index, count, retry_after_ms);
        } else {
            bad("unknown directive '" + word + "'");
        }
        std::string trailing;
        if (tokens >> trailing && trailing[0] != '#')
            bad("trailing token '" + trailing + "'");
    }
    return schedule;
}

std::string
FaultSchedule::dump() const
{
    std::string out;
    for (uint64_t conn : refused_connections_)
        out += "refuse-conn " + std::to_string(conn) + "\n";
    for (const auto &[index, action] : by_request_) {
        switch (action.kind) {
        case FaultAction::Kind::CutMidFrame:
            out += "cut " + std::to_string(index) + " " +
                   std::to_string(action.bytes) + "\n";
            break;
        case FaultAction::Kind::TruncateFrame:
            out += "truncate " + std::to_string(index) + " " +
                   std::to_string(action.bytes) + "\n";
            break;
        case FaultAction::Kind::DelayMs:
            out += "delay " + std::to_string(index) + " " +
                   formatMs(action.delay_ms) + "\n";
            break;
        case FaultAction::Kind::Overloaded:
            out += "overloaded " + std::to_string(index) + " 1 " +
                   formatMs(action.retry_after_ms) + "\n";
            break;
        case FaultAction::Kind::None:
            break;
        }
    }
    return out;
}

FaultSchedule
FaultSchedule::random(uint64_t seed, uint64_t requests, int faults)
{
    FaultSchedule schedule;
    if (requests == 0 || faults <= 0)
        return schedule;
    Rng rng(seed);
    for (int i = 0; i < faults; ++i) {
        if (schedule.by_request_.size() >= requests)
            break; // every index already scheduled
        uint64_t index = rng.below(requests);
        // Deterministic collision resolution: linear probe.
        while (schedule.by_request_.count(index) > 0)
            index = (index + 1) % requests;
        switch (rng.below(4)) {
        case 0:
            schedule.overloaded(index, 1, rng.uniform(1.0, 10.0));
            break;
        case 1:
            // Small counts land inside the 4-byte header; larger ones
            // land mid-payload — both torn-stream shapes get coverage.
            schedule.cutMidFrame(index, 1 + rng.below(24));
            break;
        case 2:
            schedule.truncate(index, rng.below(16));
            break;
        default:
            schedule.delayMs(index, rng.uniform(1.0, 15.0));
            break;
        }
    }
    return schedule;
}

bool
FaultSchedule::operator==(const FaultSchedule &other) const
{
    if (refused_connections_ != other.refused_connections_)
        return false;
    if (by_request_.size() != other.by_request_.size())
        return false;
    auto a = by_request_.begin();
    auto b = other.by_request_.begin();
    for (; a != by_request_.end(); ++a, ++b)
        if (a->first != b->first || !sameAction(a->second, b->second))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// FaultProxy

FaultProxy::FaultProxy(int upstream_port, FaultSchedule schedule)
    : upstream_port_(upstream_port), schedule_(std::move(schedule)),
      listener_("FaultProxy", [this](int fd, uint64_t index) {
          relayConnection(fd, index);
      })
{}

FaultProxy::~FaultProxy()
{
    stop();
}

void
FaultProxy::start()
{
    listener_.start(0); // ephemeral: the proxy is a test fixture
}

void
FaultProxy::stop()
{
    {
        // A relay blocked reading its upstream never notices the
        // client side being shut down, so wake it from this end.
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (int fd : upstreams_)
            ::shutdown(fd, SHUT_RDWR);
    }
    listener_.stop(SHUT_RDWR);
}

FaultProxyCounters
FaultProxy::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FaultProxyCounters counters = counters_;
    counters.connections = listener_.accepted();
    return counters;
}

int
FaultProxy::dialUpstream()
{
    int fd = dialLoopback(upstream_port_);
    if (fd < 0)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
        // stop() already swept the upstreams; this one would be missed.
        ::close(fd);
        return -1;
    }
    upstreams_.insert(fd);
    return fd;
}

void
FaultProxy::closeUpstream(int fd)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        upstreams_.erase(fd);
    }
    ::close(fd);
}

void
FaultProxy::relayConnection(int client_fd, uint64_t conn_index)
{
    if (schedule_.connectionRefused(conn_index)) {
        // The TCP handshake already completed in the backlog, so
        // "refused" manifests as an immediate hangup — the client
        // sees io_error on its first exchange, same as a daemon
        // that died between connect and call.
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.refused;
        return;
    }

    int upstream = -1;
    std::string payload;
    while (true) {
        FrameStatus status =
            readFrame(client_fd, payload, kDefaultMaxFrameBytes);
        if (status != FrameStatus::Ok)
            break;
        uint64_t index = next_request_.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.requests;
        }
        FaultAction action = schedule_.actionFor(index);

        if (action.kind == FaultAction::Kind::Overloaded) {
            // Answer in the proxy, never bothering the upstream —
            // exactly what a full admission queue looks like from
            // outside.
            Json id;
            try {
                Json request = Json::parse(payload);
                if (request.isObject() && request.has("id"))
                    id = request.at("id");
            } catch (const JsonError &) {
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.injected_overloaded;
            }
            WireError error{"overloaded",
                            "faultnet: injected overload",
                            action.retry_after_ms};
            if (!writeFrame(client_fd,
                            makeErrorResponse(id, error).dump()))
                break;
            continue;
        }

        if (upstream < 0) {
            upstream = dialUpstream();
            if (upstream < 0)
                break;
        }
        if (!writeFrame(upstream, payload))
            break;
        // Relay every frame of the response: one frame for ordinary
        // calls, begin/chunk.../end for a chunked stream. The proxy
        // never buffers the stream — each frame is classified and
        // forwarded as it arrives.
        bool severed = false;
        size_t cumulative_wire = 0;
        bool more = true;
        while (more) {
            std::string response;
            if (readFrame(upstream, response, kDefaultMaxFrameBytes) !=
                FrameStatus::Ok) {
                severed = true;
                break;
            }
            StreamFrameKind kind = StreamFrameKind::None;
            try {
                kind = streamFrameKind(Json::parse(response));
            } catch (const JsonError &) {
                // Unparseable responses relay verbatim as a final
                // frame; the client owns the protocol error.
            }
            more = kind == StreamFrameKind::Begin ||
                   kind == StreamFrameKind::Chunk;
            if (!applyResponseAction(client_fd, action, response, !more,
                                     cumulative_wire)) {
                severed = true;
                break;
            }
        }
        if (severed)
            break;
    }
    if (upstream >= 0)
        closeUpstream(upstream);
}

bool
FaultProxy::applyResponseAction(int client_fd, const FaultAction &action,
                                const std::string &payload,
                                bool last_frame, size_t &cumulative_wire)
{
    switch (action.kind) {
    case FaultAction::Kind::CutMidFrame: {
        // Forward a prefix of the raw wire bytes, then hang up: the
        // client reads a torn frame (possibly a torn HEADER when
        // bytes < 4) and must treat the connection as poisoned. The
        // cut point is cumulative across the response's frames, so a
        // chunked stream relays intact until the running total
        // crosses it; a cut past the whole response still severs
        // after the final frame.
        std::string wire = frameHeader(payload.size()) + payload;
        if (!last_frame &&
            cumulative_wire + wire.size() < action.bytes) {
            cumulative_wire += wire.size();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.relayed_stream_frames;
            }
            return sendAll(client_fd, wire);
        }
        size_t n = std::min(action.bytes > cumulative_wire
                                ? action.bytes - cumulative_wire
                                : 0,
                            wire.size());
        cumulative_wire += n;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.injected_cuts;
        }
        sendAll(client_fd, wire.data(), n);
        return false;
    }
    case FaultAction::Kind::TruncateFrame: {
        // The header promises the full payload but fewer bytes follow:
        // a well-formed length prefix over a lying stream.
        std::string wire =
            frameHeader(payload.size()) +
            payload.substr(0, std::min(action.bytes, payload.size()));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.injected_truncations;
        }
        sendAll(client_fd, wire);
        return false;
    }
    case FaultAction::Kind::DelayMs: {
        if (cumulative_wire == 0) {
            // Delay once, before the response's first frame — not per
            // chunk, which would multiply the configured latency.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.injected_delays;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    action.delay_ms));
        }
        break;
    }
    case FaultAction::Kind::Overloaded: // handled before forwarding
    case FaultAction::Kind::None:
        break;
    }
    cumulative_wire += 4 + payload.size();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (last_frame)
            ++counters_.forwarded; // count responses, not frames
        else
            ++counters_.relayed_stream_frames;
    }
    return writeFrame(client_fd, payload);
}

// ---------------------------------------------------------------------
// ScriptedFaultHook

ScriptedFaultHook::ScriptedFaultHook(FaultSchedule schedule)
    : schedule_(std::move(schedule))
{}

std::optional<WireError>
ScriptedFaultHook::onSubmit(const std::string &)
{
    uint64_t index = next_.fetch_add(1);
    FaultAction action = schedule_.actionFor(index);
    if (action.kind != FaultAction::Kind::Overloaded)
        return std::nullopt;
    injected_.fetch_add(1);
    return WireError{"overloaded",
                     "faultnet: injected overload (request " +
                         std::to_string(index) + ")",
                     action.retry_after_ms};
}

} // namespace vn::service
