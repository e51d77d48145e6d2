#include "net/frame.h"

#include <cmath>

#include "common/vbin.h"

namespace vbr::net {

namespace {

// The fixed-width little-endian primitives are VBIN's (common/vbin.h); the
// wire's own conventions are the u32-length string (also the framing: a
// frame is its payload as one such string) and the common header.
void AppendString(std::string& out, std::string_view s) {
  vbin::AppendU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

bool ReadString(vbin::Reader& r, std::string* out) {
  uint32_t length = 0;
  std::string_view bytes;
  if (!r.ReadU32(&length) || !r.ReadRaw(length, &bytes)) return false;
  out->assign(bytes);
  return true;
}

void AppendHeader(std::string& payload, FrameKind kind, uint16_t flags,
                  uint64_t request_id) {
  vbin::AppendU8(payload, kProtocolVersion);
  vbin::AppendU8(payload, static_cast<uint8_t>(kind));
  vbin::AppendU16(payload, flags);
  vbin::AppendU64(payload, request_id);
}

// Reads the common header. *request_id stays 0 unless the header was
// intact, so an error response can still be correlated with its request.
DecodeStatus ReadHeader(vbin::Reader& r, FrameKind expected, uint16_t* flags,
                        uint64_t* request_id) {
  uint8_t version = 0;
  uint8_t kind = 0;
  *request_id = 0;
  r.ReadU8(&version);
  r.ReadU8(&kind);
  r.ReadU16(flags);
  r.ReadU64(request_id);
  if (!r.ok()) return DecodeStatus::kMalformed;
  if (version > kProtocolVersion) return DecodeStatus::kVersionSkew;
  if (kind != static_cast<uint8_t>(expected)) return DecodeStatus::kBadKind;
  return DecodeStatus::kOk;
}

// Wire cost-model codes are 1-based so that a zeroed payload is invalid.
uint8_t ModelCode(CostModel model) {
  switch (model) {
    case CostModel::kM1:
      return 1;
    case CostModel::kM2:
      return 2;
    case CostModel::kM3:
      return 3;
  }
  return 0;
}

bool ModelFromCode(uint8_t code, CostModel* out) {
  switch (code) {
    case 1:
      *out = CostModel::kM1;
      return true;
    case 2:
      *out = CostModel::kM2;
      return true;
    case 3:
      *out = CostModel::kM3;
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kRejected:
      return "rejected";
    case WireStatus::kShed:
      return "shed";
    case WireStatus::kFailed:
      return "failed";
    case WireStatus::kBadRequest:
      return "bad_request";
    case WireStatus::kUnsupportedVersion:
      return "unsupported_version";
    case WireStatus::kUnknownHandle:
      return "unknown_handle";
  }
  return "unknown";
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need_more";
    case DecodeStatus::kTooLarge:
      return "too_large";
    case DecodeStatus::kMalformed:
      return "malformed";
    case DecodeStatus::kVersionSkew:
      return "version_skew";
    case DecodeStatus::kBadKind:
      return "bad_kind";
  }
  return "unknown";
}

void EncodePlanRequest(const PlanRequestFrame& frame, std::string* out) {
  std::string payload;
  uint16_t flags = 0;
  if (frame.query_is_handle) flags |= kFlagQueryIsHandle;
  if (frame.want_certificate) flags |= kFlagWantCertificate;
  AppendHeader(payload, FrameKind::kPlanRequest, flags, frame.request_id);
  vbin::AppendU8(payload, ModelCode(frame.options.model));
  vbin::AppendF64(payload, frame.options.deadline_ms);
  vbin::AppendU64(payload, frame.options.work_limit);
  vbin::AppendU64(payload, frame.options.memory_limit_bytes);
  vbin::AppendU64(payload, frame.options.search_node_cap);
  if (frame.query_is_handle) {
    std::string handle_bytes;
    vbin::AppendU64(handle_bytes, frame.query_handle);
    AppendString(payload, handle_bytes);
  } else {
    AppendString(payload, frame.query_text);
  }
  AppendString(*out, payload);
}

void EncodePlanResponse(const PlanResponseFrame& frame, std::string* out) {
  std::string payload;
  uint16_t flags = 0;
  if (frame.cache_hit) flags |= kFlagCacheHit;
  if (frame.degraded) flags |= kFlagDegraded;
  if (frame.served_from_cache_only) flags |= kFlagServedFromCacheOnly;
  if (frame.model_demoted) flags |= kFlagModelDemoted;
  AppendHeader(payload, FrameKind::kPlanResponse, flags, frame.request_id);
  vbin::AppendU8(payload, static_cast<uint8_t>(frame.status));
  vbin::AppendU8(payload, frame.reject_reason);
  vbin::AppendU8(payload, frame.plan_status);
  vbin::AppendU8(payload, frame.attempts);
  vbin::AppendU32(payload, frame.service_level);
  vbin::AppendF64(payload, frame.queue_wait_ms);
  vbin::AppendU64(payload, frame.cost);
  vbin::AppendU64(payload, frame.query_handle);
  AppendString(payload, frame.rewriting);
  AppendString(payload, frame.certificate);
  AppendString(payload, frame.error);
  AppendString(*out, payload);
}

DecodeStatus ExtractFrame(std::string_view buffer, uint32_t max_payload,
                          std::string_view* payload, size_t* consumed) {
  if (buffer.size() < sizeof(uint32_t)) return DecodeStatus::kNeedMore;
  uint32_t len = 0;
  vbin::Reader(buffer).ReadU32(&len);
  if (len > max_payload) return DecodeStatus::kTooLarge;
  if (buffer.size() - sizeof(uint32_t) < len) return DecodeStatus::kNeedMore;
  *payload = buffer.substr(sizeof(uint32_t), len);
  *consumed = sizeof(uint32_t) + len;
  return DecodeStatus::kOk;
}

DecodeStatus DecodePlanRequest(std::string_view payload,
                               PlanRequestFrame* out) {
  vbin::Reader r(payload);
  uint16_t flags = 0;
  const DecodeStatus header =
      ReadHeader(r, FrameKind::kPlanRequest, &flags, &out->request_id);
  if (header != DecodeStatus::kOk) return header;
  out->query_is_handle = (flags & kFlagQueryIsHandle) != 0;
  out->want_certificate = (flags & kFlagWantCertificate) != 0;
  uint8_t model_code = 0;
  std::string query;
  r.ReadU8(&model_code);
  r.ReadF64(&out->options.deadline_ms);
  r.ReadU64(&out->options.work_limit);
  r.ReadU64(&out->options.memory_limit_bytes);
  r.ReadU64(&out->options.search_node_cap);
  ReadString(r, &query);
  if (!r.ok() || !r.AtEnd()) return DecodeStatus::kMalformed;
  if (!ModelFromCode(model_code, &out->options.model)) {
    return DecodeStatus::kMalformed;
  }
  // Reject non-finite deadlines: they would poison the admission estimate.
  if (!std::isfinite(out->options.deadline_ms) ||
      out->options.deadline_ms < 0) {
    return DecodeStatus::kMalformed;
  }
  if (out->query_is_handle) {
    if (query.size() != sizeof(uint64_t)) return DecodeStatus::kMalformed;
    vbin::Reader(query).ReadU64(&out->query_handle);
    out->query_text.clear();
  } else {
    out->query_text = query;
    out->query_handle = 0;
  }
  return DecodeStatus::kOk;
}

DecodeStatus DecodePlanResponse(std::string_view payload,
                                PlanResponseFrame* out) {
  vbin::Reader r(payload);
  uint16_t flags = 0;
  const DecodeStatus header =
      ReadHeader(r, FrameKind::kPlanResponse, &flags, &out->request_id);
  if (header != DecodeStatus::kOk) return header;
  out->cache_hit = (flags & kFlagCacheHit) != 0;
  out->degraded = (flags & kFlagDegraded) != 0;
  out->served_from_cache_only = (flags & kFlagServedFromCacheOnly) != 0;
  out->model_demoted = (flags & kFlagModelDemoted) != 0;
  uint8_t status = 0;
  r.ReadU8(&status);
  r.ReadU8(&out->reject_reason);
  r.ReadU8(&out->plan_status);
  r.ReadU8(&out->attempts);
  r.ReadU32(&out->service_level);
  r.ReadF64(&out->queue_wait_ms);
  r.ReadU64(&out->cost);
  r.ReadU64(&out->query_handle);
  ReadString(r, &out->rewriting);
  ReadString(r, &out->certificate);
  ReadString(r, &out->error);
  if (!r.ok() || !r.AtEnd()) return DecodeStatus::kMalformed;
  if (status > static_cast<uint8_t>(WireStatus::kUnknownHandle)) {
    return DecodeStatus::kMalformed;
  }
  out->status = static_cast<WireStatus>(status);
  return DecodeStatus::kOk;
}

uint64_t HashQueryText(std::string_view text) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return h;
}

}  // namespace vbr::net
