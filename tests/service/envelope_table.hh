/**
 * @file
 * The request-envelope rules as one table, run against every front end
 * that decodes requests: vnoised's framed protocol (test_protocol), a
 * vnoise_router in front of it (test_router) and the HTTP gateway's
 * `POST /v1/query` (test_http). Every row must come back with its code
 * and its id, and the connection must still answer a ping afterwards.
 */

#ifndef VN_TESTS_SERVICE_ENVELOPE_TABLE_HH
#define VN_TESTS_SERVICE_ENVELOPE_TABLE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/listener.hh"
#include "service/protocol.hh"

namespace vn::service::envelope
{

struct Row
{
    std::string payload;
    std::string code; //!< expected error code; "" means answered ok
    std::string id;   //!< expected echoed id, as JSON text
};

inline const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        {"this is not json", "malformed_frame", "null"},
        {"[1,2,3]", "malformed_frame", "null"},
        {R"({"id":1})", "bad_request", "1"},
        {R"({"id":2,"verb":7})", "bad_request", "2"},
        {R"({"id":"x","verb":"frobnicate"})", "unknown_verb", "\"x\""},
        // Control verbs are answered before params, deadline_ms and
        // accept_stream are looked at.
        {R"({"id":3,"verb":"ping","params":5,"deadline_ms":"x",)"
         R"("accept_stream":1})",
         "", "3"},
        {R"({"id":4,"verb":"sweep","params":{"freq_hz":-5}})",
         "bad_request", "4"},
        {R"({"id":5,"verb":"sweep","params":"fast"})", "bad_request",
         "5"},
        {R"({"id":6,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("deadline_ms":-1})",
         "bad_request", "6"},
        {R"({"id":7,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("deadline_ms":"5"})",
         "bad_request", "7"},
        {R"({"id":8,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("deadline_ms":null})",
         "bad_request", "8"},
        {R"({"id":9,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("deadline_ms":3600001})",
         "bad_request", "9"},
        {R"({"id":10,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("accept_stream":1})",
         "bad_request", "10"},
        {R"({"id":11,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("accept_stream":"yes"})",
         "bad_request", "11"},
        {R"({"id":12,"verb":"sweep","params":{"freq_hz":2e6},)"
         R"("accept_stream":null})",
         "bad_request", "12"},
    };
    return table;
}

/** Rows expecting `code`: what a front end's counter must read. */
inline uint64_t
count(const std::string &code)
{
    uint64_t n = 0;
    for (const Row &row : rows())
        n += row.code == code ? 1 : 0;
    return n;
}

/** Check one decoded response envelope against its row. */
inline void
expectAnswer(const Row &row, const Json &response)
{
    EXPECT_EQ(response.at("id").dump(), row.id);
    EXPECT_EQ(response.at("ok").asBool(), row.code.empty());
    if (!row.code.empty()) {
        EXPECT_EQ(response.at("error").at("code").asString(), row.code);
    }
}

/** Run every row over one framed connection to `port`. */
inline void
runFramed(int port)
{
    int fd = dialLoopback(port);
    ASSERT_GE(fd, 0);
    for (const Row &row : rows()) {
        SCOPED_TRACE(row.payload);
        std::string text;
        ASSERT_TRUE(writeFrame(fd, row.payload));
        ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok);
        expectAnswer(row, Json::parse(text));

        ASSERT_TRUE(writeFrame(fd, R"({"id":"next","verb":"ping"})"));
        ASSERT_EQ(readFrame(fd, text, kDefaultMaxFrameBytes),
                  FrameStatus::Ok)
            << "the connection did not survive the row";
        EXPECT_TRUE(Json::parse(text).at("ok").asBool());
    }
    ::close(fd);
}

} // namespace vn::service::envelope

#endif // VN_TESTS_SERVICE_ENVELOPE_TABLE_HH
