// The compact binary wire protocol for plan requests/responses.
//
// Every frame on the wire is a u32 little-endian payload length followed by
// the payload.  Payloads start with a u8 protocol version and a u8 frame
// kind; everything after that is kind-specific.  See docs/PROTOCOL.md for
// the byte-exact layout and the versioning rules.
//
// The codec is transport-agnostic and allocation-light: encoding appends to
// a std::string, decoding reads from a std::string_view over the
// connection's receive buffer and never takes ownership.  Both sides use
// the same functions, which is what the round-trip property tests in
// tests/net/frame_test.cc exercise.
#ifndef VBR_NET_FRAME_H_
#define VBR_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "planner/request_options.h"

namespace vbr::net {

inline constexpr uint8_t kProtocolVersion = 1;

// Payload ceiling: queries are small; anything past this is a corrupt
// length prefix or an abusive client, and the connection is dropped.
inline constexpr uint32_t kDefaultMaxPayload = 1 << 20;  // 1 MiB

enum class FrameKind : uint8_t {
  kPlanRequest = 1,
  kPlanResponse = 2,
};

// Service-level disposition of a request as seen on the wire.  The first
// three mirror PlanningService::ServiceStatus one-to-one; code 3 is
// reserved (decoded, never sent); the rest are produced by the server's
// protocol layer itself.
enum class WireStatus : uint8_t {
  kOk = 0,
  kRejected = 1,  // admission control said no; reject_reason says why
  kShed = 2,
  kFailed = 3,  // reserved, not sent
  kBadRequest = 4,           // unparseable query text or malformed options
  kUnsupportedVersion = 5,   // frame version ahead of the server
  kUnknownHandle = 6,        // fingerprint not in the server's handle map
};

const char* WireStatusName(WireStatus status);

// Request flag bits.
inline constexpr uint16_t kFlagQueryIsHandle = 1u << 0;
inline constexpr uint16_t kFlagWantCertificate = 1u << 1;

// Response flag bits.
inline constexpr uint16_t kFlagCacheHit = 1u << 0;
inline constexpr uint16_t kFlagDegraded = 1u << 1;
inline constexpr uint16_t kFlagServedFromCacheOnly = 1u << 2;
inline constexpr uint16_t kFlagModelDemoted = 1u << 3;

// A decoded plan request.  `query_text` holds the datalog source unless
// `query_is_handle` is set, in which case `query_handle` identifies a query
// the server has already seen (HashQueryText of the exact text).
struct PlanRequestFrame {
  uint64_t request_id = 0;
  bool query_is_handle = false;
  bool want_certificate = false;
  PlanRequestOptions options;
  std::string query_text;
  uint64_t query_handle = 0;
};

// A decoded plan response.  `plan_status` carries the planner-level
// PlanStatus (meaningful only when status == kOk); `query_handle` is the
// server-issued fingerprint clients may send instead of text next time.
struct PlanResponseFrame {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kBadRequest;
  uint8_t reject_reason = 0;   // PlanningService::RejectReason
  uint8_t plan_status = 0;     // vbr::PlanStatus
  uint8_t attempts = 0;
  uint32_t service_level = 0;
  bool cache_hit = false;
  bool degraded = false;
  bool served_from_cache_only = false;
  bool model_demoted = false;
  double queue_wait_ms = 0;
  uint64_t cost = 0;
  uint64_t query_handle = 0;
  std::string rewriting;    // the chosen rewriting, ToString form
  std::string certificate;  // containment certificate (when requested)
  std::string error;
};

enum class DecodeStatus : uint8_t {
  kOk = 0,
  kNeedMore,     // buffer does not yet hold a complete frame
  kTooLarge,     // length prefix exceeds the payload ceiling
  kMalformed,    // structurally invalid payload
  kVersionSkew,  // payload version newer than this codec
  kBadKind,      // unknown frame kind for this decode call
};

const char* DecodeStatusName(DecodeStatus status);

// Appends one complete frame (length prefix + payload) to *out.
void EncodePlanRequest(const PlanRequestFrame& frame, std::string* out);
void EncodePlanResponse(const PlanResponseFrame& frame, std::string* out);

// Splits the next length-prefixed payload off `buffer`.  On kOk, *payload
// aliases buffer and *consumed is the total frame size (4 + payload len) to
// drop from the front of the receive buffer.  kNeedMore means keep reading;
// kTooLarge means drop the connection.
DecodeStatus ExtractFrame(std::string_view buffer, uint32_t max_payload,
                          std::string_view* payload, size_t* consumed);

// Decodes one extracted payload.  kVersionSkew/kBadKind/kMalformed leave
// *out partially filled except request_id, which is recovered when the
// fixed header was intact (so errors can be correlated with a request).
DecodeStatus DecodePlanRequest(std::string_view payload,
                               PlanRequestFrame* out);
DecodeStatus DecodePlanResponse(std::string_view payload,
                                PlanResponseFrame* out);

// The server-issued query fingerprint: FNV-1a 64 over the exact query
// text.  Stable across runs; NOT a canonical fingerprint (whitespace
// matters) — it is a cache handle, not an identity.
uint64_t HashQueryText(std::string_view text);

}  // namespace vbr::net

#endif  // VBR_NET_FRAME_H_
