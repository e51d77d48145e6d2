// Binary frame codec: round-trip properties and hostile-input behavior.
//
// The decoder sits directly on bytes read from the network, so the
// contract under test is: every encodable frame decodes back identically
// (round trip), truncation at EVERY byte boundary reports kNeedMore (never
// a spurious success), corrupt length prefixes are rejected before
// allocation, and random garbage never crashes or false-decodes into a
// structurally invalid frame.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace vbr::net {
namespace {

PlanRequestFrame RandomRequest(std::mt19937_64& rng) {
  PlanRequestFrame frame;
  frame.request_id = rng();
  frame.want_certificate = rng() % 2 == 0;
  frame.options.model = static_cast<CostModel>(rng() % 3);
  frame.options.deadline_ms = static_cast<double>(rng() % 100'000) / 7.0;
  frame.options.work_limit = rng() % 2 ? rng() : 0;
  frame.options.memory_limit_bytes = rng() % 2 ? rng() : 0;
  frame.options.search_node_cap = rng() % 2 ? rng() : 0;
  if (rng() % 4 == 0) {
    frame.query_is_handle = true;
    frame.query_handle = rng();
  } else {
    const size_t len = rng() % 200;
    frame.query_text.clear();
    for (size_t i = 0; i < len; ++i) {
      frame.query_text.push_back(static_cast<char>(rng() % 256));
    }
  }
  return frame;
}

PlanResponseFrame RandomResponse(std::mt19937_64& rng) {
  PlanResponseFrame frame;
  frame.request_id = rng();
  frame.status = static_cast<WireStatus>(rng() % 7);
  frame.reject_reason = static_cast<uint8_t>(rng() % 5);
  frame.plan_status = static_cast<uint8_t>(rng() % 6);
  frame.attempts = static_cast<uint8_t>(rng() % 4);
  frame.service_level = static_cast<uint32_t>(rng() % 5);
  frame.cache_hit = rng() % 2 == 0;
  frame.degraded = rng() % 2 == 0;
  frame.served_from_cache_only = rng() % 2 == 0;
  frame.model_demoted = rng() % 2 == 0;
  frame.queue_wait_ms = static_cast<double>(rng() % 1'000'000) / 13.0;
  frame.cost = rng();
  frame.query_handle = rng();
  auto random_string = [&rng](size_t max_len) {
    std::string s;
    const size_t len = rng() % max_len;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng() % 256));
    }
    return s;
  };
  frame.rewriting = random_string(300);
  frame.certificate = random_string(300);
  frame.error = random_string(100);
  return frame;
}

void ExpectRequestEq(const PlanRequestFrame& a, const PlanRequestFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.query_is_handle, b.query_is_handle);
  EXPECT_EQ(a.want_certificate, b.want_certificate);
  EXPECT_EQ(a.options, b.options);
  EXPECT_EQ(a.query_text, b.query_text);
  EXPECT_EQ(a.query_handle, b.query_handle);
}

void ExpectResponseEq(const PlanResponseFrame& a, const PlanResponseFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.plan_status, b.plan_status);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.service_level, b.service_level);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.served_from_cache_only, b.served_from_cache_only);
  EXPECT_EQ(a.model_demoted, b.model_demoted);
  EXPECT_EQ(a.queue_wait_ms, b.queue_wait_ms);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.query_handle, b.query_handle);
  EXPECT_EQ(a.rewriting, b.rewriting);
  EXPECT_EQ(a.certificate, b.certificate);
  EXPECT_EQ(a.error, b.error);
}

TEST(FrameTest, RequestRoundTripProperty) {
  std::mt19937_64 rng(0xF00D);
  for (int trial = 0; trial < 500; ++trial) {
    const PlanRequestFrame original = RandomRequest(rng);
    std::string wire;
    EncodePlanRequest(original, &wire);

    std::string_view payload;
    size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, wire.size());

    PlanRequestFrame decoded;
    ASSERT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kOk);
    ExpectRequestEq(decoded, original);
  }
}

TEST(FrameTest, ResponseRoundTripProperty) {
  std::mt19937_64 rng(0xBEEF);
  for (int trial = 0; trial < 500; ++trial) {
    const PlanResponseFrame original = RandomResponse(rng);
    std::string wire;
    EncodePlanResponse(original, &wire);

    std::string_view payload;
    size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
              DecodeStatus::kOk);

    PlanResponseFrame decoded;
    ASSERT_EQ(DecodePlanResponse(payload, &decoded), DecodeStatus::kOk);
    ExpectResponseEq(decoded, original);
  }
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return hex;
}

// Pins the exact bytes of one request and one response, field by field in
// docs/PROTOCOL.md order (the round-trip properties above would pass for
// any self-consistent layout).
TEST(FrameTest, GoldenBytesMatchTheProtocolSpec) {
  PlanRequestFrame request;
  request.request_id = 0x0102030405060708;
  request.want_certificate = true;
  request.options.model = CostModel::kM2;
  request.options.deadline_ms = 1.5;
  request.options.work_limit = 1000;
  request.options.search_node_cap = 7;
  request.query_text = "q(X) :- r(X)";
  const std::string expected_request =
      "3d000000"                  // u32 payload length (61)
      "01"                        // version
      "01"                        // kind: plan request
      "0200"                      // flags: kFlagWantCertificate
      "0807060504030201"          // request_id
      "02"                        // model: M2
      "000000000000f83f"          // deadline_ms: 1.5
      "e803000000000000"          // work_limit: 1000
      "0000000000000000"          // memory_limit_bytes
      "0700000000000000"          // search_node_cap: 7
      "0c000000"                  // query length
      "71285829203a2d2072285829";  // "q(X) :- r(X)"
  std::string request_wire;
  EncodePlanRequest(request, &request_wire);
  EXPECT_EQ(Hex(request_wire), expected_request);

  PlanResponseFrame response;
  response.request_id = 42;
  response.status = WireStatus::kOk;
  response.cache_hit = true;
  response.degraded = true;
  response.plan_status = 0;
  response.attempts = 1;
  response.service_level = 2;
  response.queue_wait_ms = 0.25;
  response.cost = 9;
  response.query_handle = 0x1122334455667788;
  response.rewriting = "q(X) :- v(X)";
  const std::string expected_response =
      "44000000"                  // u32 payload length (68)
      "01"                        // version
      "02"                        // kind: plan response
      "0300"                      // flags: kFlagCacheHit | kFlagDegraded
      "2a00000000000000"          // request_id: 42
      "00"                        // status: ok
      "00"                        // reject_reason
      "00"                        // plan_status: kOk
      "01"                        // attempts
      "02000000"                  // service_level: 2
      "000000000000d03f"          // queue_wait_ms: 0.25
      "0900000000000000"          // cost: 9
      "8877665544332211"          // query_handle
      "0c000000"                  // rewriting length
      "71285829203a2d2076285829"  // "q(X) :- v(X)"
      "00000000"                  // certificate: empty
      "00000000";                 // error: empty
  std::string response_wire;
  EncodePlanResponse(response, &response_wire);
  EXPECT_EQ(Hex(response_wire), expected_response);

  // The pinned bytes decode back to the frames they were made from.
  std::string_view payload;
  size_t consumed = 0;
  PlanRequestFrame decoded_request;
  ASSERT_EQ(ExtractFrame(request_wire, kDefaultMaxPayload, &payload,
                         &consumed),
            DecodeStatus::kOk);
  ASSERT_EQ(DecodePlanRequest(payload, &decoded_request), DecodeStatus::kOk);
  ExpectRequestEq(decoded_request, request);
  PlanResponseFrame decoded_response;
  ASSERT_EQ(ExtractFrame(response_wire, kDefaultMaxPayload, &payload,
                         &consumed),
            DecodeStatus::kOk);
  ASSERT_EQ(DecodePlanResponse(payload, &decoded_response),
            DecodeStatus::kOk);
  ExpectResponseEq(decoded_response, response);
}

TEST(FrameTest, BackToBackFramesExtractOneAtATime) {
  std::mt19937_64 rng(7);
  std::string wire;
  std::vector<PlanRequestFrame> originals;
  for (int i = 0; i < 10; ++i) {
    originals.push_back(RandomRequest(rng));
    EncodePlanRequest(originals.back(), &wire);
  }
  std::string_view rest = wire;
  for (int i = 0; i < 10; ++i) {
    std::string_view payload;
    size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(rest, kDefaultMaxPayload, &payload, &consumed),
              DecodeStatus::kOk);
    PlanRequestFrame decoded;
    ASSERT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kOk);
    ExpectRequestEq(decoded, originals[static_cast<size_t>(i)]);
    rest = rest.substr(consumed);
  }
  EXPECT_TRUE(rest.empty());
}

// Truncation at EVERY byte boundary: the extractor must say kNeedMore for
// any strict prefix (a partial frame from a slow client), and the payload
// decoder must say kMalformed for any strict payload prefix — never crash,
// never succeed.
TEST(FrameTest, EveryTruncationIsNeedMoreOrMalformed) {
  std::mt19937_64 rng(42);
  const PlanRequestFrame original = RandomRequest(rng);
  std::string wire;
  EncodePlanRequest(original, &wire);

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string_view payload;
    size_t consumed = 0;
    EXPECT_EQ(ExtractFrame(std::string_view(wire).substr(0, cut),
                           kDefaultMaxPayload, &payload, &consumed),
              DecodeStatus::kNeedMore)
        << "cut=" << cut;
  }

  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kOk);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    PlanRequestFrame decoded;
    EXPECT_NE(DecodePlanRequest(payload.substr(0, cut), &decoded),
              DecodeStatus::kOk)
        << "payload cut=" << cut;
  }
}

TEST(FrameTest, OversizedLengthPrefixIsRejectedBeforeBuffering) {
  std::string wire;
  const uint32_t huge = kDefaultMaxPayload + 1;
  wire.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  wire += "xxxx";

  std::string_view payload;
  size_t consumed = 0;
  EXPECT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kTooLarge);
}

TEST(FrameTest, VersionSkewIsReportedWithRequestIdIntact) {
  PlanRequestFrame original;
  original.request_id = 0xDEADBEEFCAFE;
  original.query_text = "q(X) :- r(X).";
  std::string wire;
  EncodePlanRequest(original, &wire);
  // Payload byte 0 (after the 4-byte length prefix) is the version.
  wire[4] = static_cast<char>(kProtocolVersion + 1);

  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kOk);
  PlanRequestFrame decoded;
  EXPECT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kVersionSkew);
  // The fixed header survives, so the server can answer the right request
  // with kUnsupportedVersion instead of dropping the connection.
  EXPECT_EQ(decoded.request_id, original.request_id);
}

TEST(FrameTest, WrongKindIsBadKindInEitherDirection) {
  PlanRequestFrame request;
  request.query_text = "q(X) :- r(X).";
  std::string request_wire;
  EncodePlanRequest(request, &request_wire);

  PlanResponseFrame response;
  std::string response_wire;
  EncodePlanResponse(response, &response_wire);

  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(response_wire, kDefaultMaxPayload, &payload,
                         &consumed),
            DecodeStatus::kOk);
  PlanRequestFrame as_request;
  EXPECT_EQ(DecodePlanRequest(payload, &as_request), DecodeStatus::kBadKind);

  ASSERT_EQ(ExtractFrame(request_wire, kDefaultMaxPayload, &payload,
                         &consumed),
            DecodeStatus::kOk);
  PlanResponseFrame as_response;
  EXPECT_EQ(DecodePlanResponse(payload, &as_response),
            DecodeStatus::kBadKind);
}

TEST(FrameTest, MalformedPayloadsAreRejected) {
  // Bad model code.
  PlanRequestFrame frame;
  frame.query_text = "q(X) :- r(X).";
  std::string wire;
  EncodePlanRequest(frame, &wire);
  wire[4 + 1 + 1 + 2 + 8] = 9;  // model byte after version/kind/flags/id
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kOk);
  PlanRequestFrame decoded;
  EXPECT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kMalformed);

  // Handle flag with a query field that is not exactly 8 bytes.
  PlanRequestFrame handle_frame;
  handle_frame.query_is_handle = true;
  handle_frame.query_handle = 123;
  wire.clear();
  EncodePlanRequest(handle_frame, &wire);
  wire.back() = 'x';  // still length-consistent? no: mutate inner length
  // Rebuild properly: encode text frame then flip the handle flag on.
  wire.clear();
  PlanRequestFrame text_frame;
  text_frame.query_text = "seven b";  // 7 bytes != sizeof(uint64_t)
  EncodePlanRequest(text_frame, &wire);
  wire[4 + 2] = static_cast<char>(kFlagQueryIsHandle);  // flags lo byte
  ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kMalformed);

  // Trailing junk after a valid payload.
  wire.clear();
  EncodePlanRequest(frame, &wire);
  uint32_t len = 0;
  std::memcpy(&len, wire.data(), sizeof(len));
  len += 3;
  std::memcpy(wire.data(), &len, sizeof(len));
  wire += "abc";
  ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(DecodePlanRequest(payload, &decoded), DecodeStatus::kMalformed);
}

// Deadlines must be finite and non-negative; +inf in particular satisfies
// `>= 0` and `x == x`, so the decoder needs an explicit finiteness check.
TEST(FrameTest, NonFiniteOrNegativeDeadlinesAreMalformed) {
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    PlanRequestFrame frame;
    frame.query_text = "q(X) :- r(X).";
    frame.options.deadline_ms = bad;
    std::string wire;
    EncodePlanRequest(frame, &wire);
    std::string_view payload;
    size_t consumed = 0;
    ASSERT_EQ(ExtractFrame(wire, kDefaultMaxPayload, &payload, &consumed),
              DecodeStatus::kOk);
    PlanRequestFrame decoded;
    EXPECT_EQ(DecodePlanRequest(payload, &decoded),
              DecodeStatus::kMalformed);
  }
}

// Random garbage payloads: the decoder must return a status, not crash,
// and whatever decodes as kOk must re-encode to the same bytes (the codec
// cannot invent unrepresentable states).
TEST(FrameTest, GarbageNeverCrashesAndOkImpliesReencodable) {
  std::mt19937_64 rng(0xABCD);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    const size_t len = rng() % 128;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng() % 256));
    }
    PlanRequestFrame decoded;
    if (DecodePlanRequest(payload, &decoded) == DecodeStatus::kOk) {
      std::string rewire;
      EncodePlanRequest(decoded, &rewire);
      EXPECT_EQ(std::string_view(rewire).substr(4), payload);
    }
    PlanResponseFrame response;
    (void)DecodePlanResponse(payload, &response);
  }
}

TEST(FrameTest, HashQueryTextIsStableAndSpreads) {
  // Pinned FNV-1a 64 vectors: the handle is part of the wire contract, so
  // a silent hash change would orphan every client-cached handle.
  EXPECT_EQ(HashQueryText(""), 14695981039346656037ull);
  EXPECT_EQ(HashQueryText("a"), 12638187200555641996ull);
  EXPECT_NE(HashQueryText("q(X) :- r(X)."), HashQueryText("q(X) :- r(Y)."));
}

}  // namespace
}  // namespace vbr::net
