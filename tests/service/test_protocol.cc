/**
 * @file
 * Wire-level tests of the vnoised protocol: the JSON value type, frame
 * framing over real sockets, the request/result codecs, and the
 * server's behaviour under hostile input (malformed frames, oversized
 * payloads, truncated streams, unknown verbs) — every failure must
 * produce a structured error, never a crash or a hang.
 *
 * No stressmark kit is needed: nothing here executes a compute verb,
 * so the server runs with `ctx.kit == nullptr`.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "envelope_table.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace
{

using namespace vn;
using namespace vn::service;

TEST(Json, RoundTripsDoublesExactly)
{
    for (double v : {1.0 / 3.0, 6.02214076e23, -0.1, 5e-324,
                     1.7976931348623157e308, 0.0}) {
        Json j = Json::number(v);
        double back = Json::parse(j.dump()).asNumber();
        EXPECT_EQ(back, v) << j.dump();
    }
}

TEST(Json, ParsesDocumentsAndPreservesOrder)
{
    Json j = Json::parse(
        R"({"b":1,"a":[true,null,"x\né"],"c":{"d":2.5}})");
    ASSERT_TRUE(j.isObject());
    EXPECT_EQ(j.members()[0].first, "b");
    EXPECT_EQ(j.members()[1].first, "a");
    EXPECT_EQ(j.at("a").size(), 3u);
    EXPECT_TRUE(j.at("a").at(0).asBool());
    EXPECT_TRUE(j.at("a").at(1).isNull());
    EXPECT_EQ(j.at("a").at(2).asString(), "x\n\xc3\xa9");
    EXPECT_EQ(j.at("c").at("d").asNumber(), 2.5);

    Json again = Json::parse(j.dump());
    EXPECT_EQ(again.dump(), j.dump());
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\x01\"",
          "{\"a\":1} trailing", "nan", "inf", "[1 2]", "\"unterminated"}) {
        EXPECT_THROW(Json::parse(bad), JsonError) << bad;
    }
}

TEST(Json, RejectsExcessiveNesting)
{
    std::string deep;
    for (int i = 0; i < Json::kMaxDepth + 1; ++i)
        deep += "[";
    for (int i = 0; i < Json::kMaxDepth + 1; ++i)
        deep += "]";
    EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Frames, RoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string sent = R"({"id":1,"verb":"ping"})";
    ASSERT_TRUE(writeFrame(fds[0], sent));
    std::string got;
    EXPECT_EQ(readFrame(fds[1], got, kDefaultMaxFrameBytes),
              FrameStatus::Ok);
    EXPECT_EQ(got, sent);

    // Empty payload is a valid frame.
    ASSERT_TRUE(writeFrame(fds[0], ""));
    EXPECT_EQ(readFrame(fds[1], got, kDefaultMaxFrameBytes),
              FrameStatus::Ok);
    EXPECT_EQ(got, "");

    ::close(fds[0]);
    EXPECT_EQ(readFrame(fds[1], got, kDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(fds[1]);
}

TEST(Frames, DetectsOversizedAndTruncated)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Header declaring more than the limit: detected before any
    // payload is read (or allocated).
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(fds[0], huge, 4), 4);
    std::string got;
    EXPECT_EQ(readFrame(fds[1], got, 1024), FrameStatus::Oversized);

    // Header promising 100 bytes but the stream ends after 10.
    unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fds[0], header, 4), 4);
    ASSERT_EQ(::write(fds[0], "0123456789", 10), 10);
    ::close(fds[0]);
    EXPECT_EQ(readFrame(fds[1], got, 1024), FrameStatus::Truncated);
    ::close(fds[1]);
}

TEST(Codec, RequestsRoundTripThroughJson)
{
    std::vector<AnyRequest> requests;
    requests.push_back(SweepRequest{{1234567.891011, true}});
    requests.push_back(MapRequest{
        Mapping{WorkloadClass::Max, WorkloadClass::Idle,
                WorkloadClass::Medium, WorkloadClass::Max,
                WorkloadClass::Idle, WorkloadClass::Idle},
        2.4e6});
    requests.push_back(MarginRequest{{2.4e6, 100}, 0.0025});
    // Seed above 1e9 on purpose: the full exactly-representable range
    // (<= 2^53) must survive the encode/decode round trip.
    requests.push_back(GuardbandRequest{{500, 2.5, (1ull << 52) + 11}});
    requests.push_back(TraceRequest{{2.4e6, 10e-6, 3, 16}});

    for (const AnyRequest &request : requests) {
        Json params = encodeRequestParams(request);
        AnyRequest back = decodeRequestParams(requestVerb(request),
                                              Json::parse(params.dump()));
        EXPECT_EQ(requestKey(back), requestKey(request));
        EXPECT_EQ(requestVerb(back), requestVerb(request));
    }
}

TEST(Codec, RejectsOutOfRangeParams)
{
    auto params = [](const char *text) { return Json::parse(text); };
    EXPECT_THROW(
        decodeRequestParams(Verb::Sweep, params(R"({"freq_hz":-1})")),
        JsonError);
    EXPECT_THROW(
        decodeRequestParams(Verb::Map,
                            params(R"({"mapping":[0,1]})")),
        JsonError);
    EXPECT_THROW(
        decodeRequestParams(Verb::Map,
                            params(R"({"mapping":[0,0,0,0,0,7]})")),
        JsonError);
    // 'events' is required (0 itself is legal: "no synchronization").
    EXPECT_THROW(decodeRequestParams(Verb::Margin,
                                     params(R"({"freq_hz":2e6})")),
                 JsonError);
    EXPECT_THROW(decodeRequestParams(
                     Verb::Trace,
                     params(R"({"freq_hz":2e6,"core":6})")),
                 JsonError);
    EXPECT_THROW(decodeRequestParams(
                     Verb::Trace,
                     params(R"({"freq_hz":2e6,"window":2e-3})")),
                 JsonError);
    // Seeds: negative must error loudly (not wrap to a huge uint64),
    // fractional is not an integer, above 2^53 is not exactly
    // representable in the wire format's doubles.
    EXPECT_THROW(decodeRequestParams(Verb::Guardband,
                                     params(R"({"seed":-1})")),
                 JsonError);
    EXPECT_THROW(decodeRequestParams(Verb::Guardband,
                                     params(R"({"seed":1.5})")),
                 JsonError);
    EXPECT_THROW(decodeRequestParams(Verb::Guardband,
                                     params(R"({"seed":1e16})")),
                 JsonError);
}

TEST(Codec, UnknownVerbNameIsRejected)
{
    EXPECT_FALSE(verbFromName("frobnicate").has_value());
    EXPECT_FALSE(verbFromName("").has_value());
    EXPECT_EQ(verbFromName("sweep"), Verb::Sweep);
}

/** Server with no kit: only control verbs and error paths exercised. */
class ProtocolServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        bool prev = vn::setQuiet(true);
        AnalysisContext ctx;
        ctx.campaign.cache_dir.clear();
        ServerConfig config;
        config.max_frame_bytes = 4096;
        server_ = std::make_unique<Server>(ctx, config);
        server_->start();
        vn::setQuiet(prev);
    }

    void
    TearDown() override
    {
        server_->beginShutdown();
        server_->wait();
    }

    /** Raw loopback connection to the test server. */
    int
    rawConnect()
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    }

    /** Send raw payload, read one response, return its error code. */
    std::string
    errorCodeFor(int fd, const std::string &payload)
    {
        EXPECT_TRUE(writeFrame(fd, payload));
        std::string response_text;
        EXPECT_EQ(readFrame(fd, response_text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok);
        Json response = Json::parse(response_text);
        EXPECT_FALSE(response.at("ok").asBool());
        return response.at("error").at("code").asString();
    }

    std::unique_ptr<Server> server_;
};

TEST_F(ProtocolServerTest, MalformedFramesGetStructuredErrors)
{
    int fd = rawConnect();
    EXPECT_EQ(errorCodeFor(fd, "this is not json"), "malformed_frame");
    EXPECT_EQ(errorCodeFor(fd, "[1,2,3]"), "malformed_frame");
    EXPECT_EQ(errorCodeFor(fd, R"({"id":1})"), "bad_request");
    EXPECT_EQ(errorCodeFor(fd, R"({"id":1,"verb":"frobnicate"})"),
              "unknown_verb");
    EXPECT_EQ(errorCodeFor(
                  fd, R"({"id":1,"verb":"sweep",)"
                      R"("params":{"freq_hz":-5}})"),
              "bad_request");
    EXPECT_EQ(errorCodeFor(fd,
                           R"({"id":1,"verb":"sweep",)"
                           R"("params":{"freq_hz":2e6},)"
                           R"("deadline_ms":-1})"),
              "bad_request");
    // Non-numeric deadline_ms must be a structured error, not a
    // JsonError escaping into std::terminate.
    EXPECT_EQ(errorCodeFor(fd,
                           R"({"id":2,"verb":"sweep",)"
                           R"("params":{"freq_hz":2e6},)"
                           R"("deadline_ms":"5"})"),
              "bad_request");
    EXPECT_EQ(errorCodeFor(fd,
                           R"({"id":3,"verb":"sweep",)"
                           R"("params":{"freq_hz":2e6},)"
                           R"("deadline_ms":null})"),
              "bad_request");

    // The connection survived all of the above.
    EXPECT_TRUE(writeFrame(fd, R"({"id":9,"verb":"ping"})"));
    std::string text;
    ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json pong = Json::parse(text);
    EXPECT_TRUE(pong.at("ok").asBool());
    EXPECT_EQ(pong.at("id").asNumber(), 9.0);
    ::close(fd);
}

TEST_F(ProtocolServerTest, EnvelopeTableAnswersEveryRowAndKeepsTheConnection)
{
    envelope::runFramed(server_->port());
    ServerCounters counters = server_->serverCounters();
    EXPECT_EQ(counters.malformed, envelope::count("malformed_frame"));
    EXPECT_EQ(counters.unknown_verbs, envelope::count("unknown_verb"));
    EXPECT_EQ(counters.bad_requests, envelope::count("bad_request"));
}

TEST_F(ProtocolServerTest, OversizedFrameAnsweredThenClosed)
{
    int fd = rawConnect();
    std::string big(8192, 'x'); // above the 4096-byte server limit
    ASSERT_TRUE(writeFrame(fd, big));
    std::string text;
    ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json response = Json::parse(text);
    EXPECT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(response.at("error").at("code").asString(),
              "oversized_frame");
    // The stream cannot be resynchronized, so the server hangs up.
    EXPECT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(fd);
}

TEST_F(ProtocolServerTest, TruncatedStreamDoesNotWedgeTheServer)
{
    int fd = rawConnect();
    unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fd, header, 4), 4);
    ASSERT_EQ(::write(fd, "0123456789", 10), 10);
    ::close(fd); // mid-frame hangup

    // The server shrugged it off and still serves new connections.
    Client client(server_->port());
    EXPECT_EQ(client.ping(), kProtocolVersion);

    Json stats = client.stats();
    EXPECT_GE(stats.at("server").at("connections").asNumber(), 2.0);
}

TEST_F(ProtocolServerTest, StatsCountsProtocolErrors)
{
    int fd = rawConnect();
    EXPECT_EQ(errorCodeFor(fd, "garbage"), "malformed_frame");
    EXPECT_EQ(errorCodeFor(fd, R"({"verb":"nope"})"), "unknown_verb");
    ::close(fd);

    Client client(server_->port());
    Json stats = client.stats();
    EXPECT_GE(stats.at("server").at("malformed").asNumber(), 1.0);
    EXPECT_GE(stats.at("server").at("unknown_verbs").asNumber(), 1.0);
    EXPECT_EQ(stats.at("protocol").asNumber(),
              static_cast<double>(kProtocolVersion));
}

TEST_F(ProtocolServerTest, ClosedConnectionsAreReaped)
{
    // A daemon serving many short-lived clients must reclaim the fd
    // and reader thread of each as it disconnects, not at shutdown.
    for (int i = 0; i < 16; ++i) {
        Client client(server_->port());
        EXPECT_EQ(client.ping(), kProtocolVersion);
    }
    // Reaping is asynchronous: the accept thread joins finished
    // readers when their wake byte arrives. Poll briefly.
    size_t live = server_->liveConnectionsForTest();
    for (int i = 0; i < 300 && live != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        live = server_->liveConnectionsForTest();
    }
    EXPECT_EQ(live, 0u);

    ServerCounters counters = server_->serverCounters();
    EXPECT_GE(counters.connections, 16u);
}

TEST_F(ProtocolServerTest, ClientSurfacesWireErrorsAsServiceError)
{
    Client client(server_->port());
    try {
        client.call("frobnicate", Json::object());
        FAIL() << "expected ServiceError";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "unknown_verb");
    }
}

} // namespace
