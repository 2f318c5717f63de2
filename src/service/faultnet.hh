/**
 * @file
 * faultnet: deterministic fault injection for the vnoised serving path.
 *
 * Resilience claims are only as good as the failures they were proven
 * against, and real network failures do not reproduce. faultnet makes
 * them reproduce: a FaultSchedule is an explicit, seedable script of
 * failures — "refuse connection 0", "cut the response of request 3
 * after 9 bytes", "answer requests 5..7 with `overloaded`" — that
 * replays bit-identically, so a test that survives schedule S with
 * seed 17 today survives the exact same byte-level carnage forever.
 *
 * Two delivery mechanisms, both compiled in and off by default:
 *
 *  - FaultProxy: a loopback TCP proxy in front of a real vnoised
 *    port. Faults happen at the BYTE level — connections torn down at
 *    accept, response frames cut mid-header or truncated mid-payload,
 *    responses delayed — which is the only way to exercise a client's
 *    framing/transport error paths honestly.
 *
 *  - ScriptedFaultHook: a Dispatcher admission hook (see
 *    `DispatcherConfig::fault`) that rejects the Nth submitted request
 *    with a structured error, for forcing `overloaded` bursts
 *    in-process without a proxy or a full queue.
 *
 * Schedules have a line-based text form (parse()/dump() round-trip)
 * so CI can pin a schedule in a script, and a random() constructor
 * that derives a schedule from a seed via the library's own Rng.
 */

#ifndef VN_SERVICE_FAULTNET_HH
#define VN_SERVICE_FAULTNET_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "service/dispatcher.hh"
#include "service/listener.hh"
#include "service/protocol.hh"

namespace vn::service
{

/** One scheduled fault, applied to one proxied request. */
struct FaultAction
{
    enum class Kind
    {
        None,
        /** Forward only the first `bytes` of the response's wire
         *  bytes (headers included), then sever the connection. The
         *  count is CUMULATIVE across every frame of the response, so
         *  for a chunked stream the cut lands in whichever
         *  begin/chunk/end frame the running total crosses — and a
         *  cut point past the whole response still severs after the
         *  final frame. */
        CutMidFrame,
        /** Forward a header declaring the full payload length but
         *  only `bytes` payload bytes, then sever the connection. */
        TruncateFrame,
        /** Forward the response intact after `delay_ms`. */
        DelayMs,
        /** Answer with a structured `overloaded` error (carrying
         *  `retry_after_ms` when positive) instead of forwarding. */
        Overloaded,
    };

    Kind kind = Kind::None;
    size_t bytes = 0;
    double delay_ms = 0.0;
    double retry_after_ms = 0.0;
};

/**
 * The failure script: request-indexed actions plus a set of refused
 * connection indices. Request indices count proxied requests globally
 * in arrival order (0-based); connection indices count accepts.
 */
class FaultSchedule
{
  public:
    /** Sever connection `conn_index` immediately after accept. */
    FaultSchedule &refuseConnection(uint64_t conn_index);

    FaultSchedule &cutMidFrame(uint64_t request_index, size_t bytes);
    FaultSchedule &truncate(uint64_t request_index, size_t bytes);
    FaultSchedule &delayMs(uint64_t request_index, double ms);

    /** Reject requests [first, first+count) with `overloaded`. */
    FaultSchedule &overloaded(uint64_t first_request_index,
                              int count = 1,
                              double retry_after_ms = 0.0);

    bool connectionRefused(uint64_t conn_index) const;

    /** Action for a request index (Kind::None when unscheduled). */
    FaultAction actionFor(uint64_t request_index) const;

    bool empty() const;
    size_t actionCount() const { return by_request_.size(); }

    /**
     * Line-based text form; parse(dump()) reproduces the schedule
     * exactly. Lines (N = index, blank lines and `#` comments ok):
     *
     *   refuse-conn N
     *   cut N BYTES
     *   truncate N BYTES
     *   delay N MS
     *   overloaded N [COUNT [RETRY_AFTER_MS]]
     *
     * Throws std::runtime_error on a malformed line.
     */
    static FaultSchedule parse(const std::string &text);
    std::string dump() const;

    /**
     * Derive a schedule from a seed: `faults` actions of mixed kinds
     * spread over request indices [0, requests). Pure function of its
     * arguments — the same seed always yields the same schedule.
     */
    static FaultSchedule random(uint64_t seed, uint64_t requests,
                                int faults);

    bool operator==(const FaultSchedule &other) const;

  private:
    std::map<uint64_t, FaultAction> by_request_;
    std::set<uint64_t> refused_connections_;
};

/** Cumulative FaultProxy counters. */
struct FaultProxyCounters
{
    uint64_t connections = 0; //!< accepted (refused ones included)
    uint64_t refused = 0;
    uint64_t requests = 0;    //!< frames read from clients
    uint64_t forwarded = 0;   //!< responses relayed intact
    uint64_t relayed_stream_frames = 0; //!< begin/chunk frames relayed
    uint64_t injected_overloaded = 0;
    uint64_t injected_cuts = 0;
    uint64_t injected_truncations = 0;
    uint64_t injected_delays = 0;
};

/**
 * The loopback fault-injection proxy; see the file comment. start()
 * binds an ephemeral 127.0.0.1 port (port()) and relays frames to
 * `upstream_port`, applying the schedule. Thread-safe; stop() (or the
 * destructor) tears every proxied connection down.
 */
class FaultProxy
{
  public:
    FaultProxy(int upstream_port, FaultSchedule schedule);
    ~FaultProxy();

    FaultProxy(const FaultProxy &) = delete;
    FaultProxy &operator=(const FaultProxy &) = delete;

    void start();
    void stop();

    /** The port clients dial (valid after start()). */
    int port() const { return listener_.port(); }

    FaultProxyCounters counters() const;

  private:
    void relayConnection(int client_fd, uint64_t conn_index);

    /** Dial the upstream for one relay; -1 once stop() has begun. */
    int dialUpstream();
    void closeUpstream(int fd);

    /**
     * Apply `action` to one frame of an upstream response; returns
     * false when the connection must be severed afterwards.
     * `last_frame` marks the response's final frame (a single-frame
     * response or a stream_end), `cumulative_wire` accumulates the
     * wire bytes relayed so far for this response (headers included)
     * so CutMidFrame can land mid-stream.
     */
    bool applyResponseAction(int client_fd, const FaultAction &action,
                             const std::string &payload,
                             bool last_frame, size_t &cumulative_wire);

    int upstream_port_;
    FaultSchedule schedule_;

    std::atomic<uint64_t> next_request_{0};

    mutable std::mutex mutex_; //!< guards the three members below
    FaultProxyCounters counters_; //!< `connections` from listener_
    std::set<int> upstreams_;     //!< live relays' upstream sockets
    bool stopping_ = false;

    Listener listener_; //!< last: its threads use every member above
};

/**
 * Dispatcher admission hook driven by a FaultSchedule: the Nth
 * submitted compute request (0-based, submission order) scheduled as
 * Overloaded is rejected with a structured `overloaded` error before
 * admission. Non-Overloaded actions are ignored here — byte-level
 * faults need the proxy.
 */
class ScriptedFaultHook : public FaultHook
{
  public:
    explicit ScriptedFaultHook(FaultSchedule schedule);

    std::optional<WireError> onSubmit(const std::string &key) override;

    uint64_t submitted() const { return next_.load(); }
    uint64_t injected() const { return injected_.load(); }

  private:
    FaultSchedule schedule_;
    std::atomic<uint64_t> next_{0};
    std::atomic<uint64_t> injected_{0};
};

} // namespace vn::service

#endif // VN_SERVICE_FAULTNET_HH
