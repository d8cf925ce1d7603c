// The omqc wire protocol: length-prefixed binary frames over a stream
// socket (TCP, or an AF_UNIX socketpair for in-process tests).
//
// Frame layout (all integers little-endian):
//
//   u32 payload_length            (bounded by kMaxFrameBytes)
//   u8  protocol_version          (kWireVersion)
//   ...message fields...
//
// Request fields, in order: u8 type, u64 request_id, str tenant,
// u64 deadline_ms, u64 max_memory_bytes, str program, str query, str
// query2 — where `str` is u32 length + bytes. Response fields: u64
// request_id, u8 status_code, str status_message, str body, str
// stats_json, u64 admission_wait_us.
//
// `body` carries the verdict text, byte-identical to what omqc_cli prints
// for the same request (src/core/frontend.h Format* helpers). Requests on
// one connection may be answered out of order (they execute concurrently);
// request_id is the correlation key.
//
// Version history: 1 carried u64 batch_id + u32 batch_size before
// admission_wait_us (server-side admission batching, since removed); 2
// drops them. A frame of any other version is refused with kUnsupported.

#ifndef OMQC_SERVER_WIRE_H_
#define OMQC_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace omqc {

/// Protocol version carried in every frame; bumped on layout changes.
inline constexpr uint8_t kWireVersion = 2;

/// Hard ceiling on frame payloads (hostile or corrupt length prefixes
/// must not drive allocation).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class RequestType : uint8_t {
  kPing = 0,      ///< liveness probe; body "pong"
  kEval = 1,      ///< certain answers of `query` over the program's facts
  kContain = 2,   ///< containment of `query` in `query2`
  kClassify = 3,  ///< ontology classification report
  kStats = 4,     ///< server metrics dump (JSON body)
  kShutdown = 5,  ///< graceful daemon shutdown
};

const char* RequestTypeToString(RequestType type);

struct WireRequest {
  RequestType type = RequestType::kPing;
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t request_id = 0;
  /// Tenant the request is accounted to ("" = the default tenant).
  std::string tenant;
  /// Per-request wall-clock deadline, 0 = server default. The clock
  /// starts when the request begins executing (admission wait excluded).
  uint64_t deadline_ms = 0;
  /// Per-request memory budget in bytes, 0 = none.
  uint64_t max_memory_bytes = 0;
  /// DLGP program text (tgds, named queries, facts).
  std::string program;
  /// Query name for kEval / LHS for kContain.
  std::string query;
  /// RHS query name for kContain.
  std::string query2;
};

struct WireResponse {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  /// Error / trip detail when code != kOk.
  std::string message;
  /// Verdict text (CLI-identical) or JSON for kStats.
  std::string body;
  /// Per-request EngineStats as JSON (empty for ping/stats/shutdown).
  std::string stats_json;
  /// Microseconds from tenant admission to a worker starting the request
  /// (time queued for the pool).
  uint64_t admission_wait_us = 0;
};

/// Serializes a message into a frame payload (no length prefix).
std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// Parses a frame payload. Bounds-checked; malformed input yields
/// kInvalidArgument, a version mismatch kUnsupported.
Result<WireRequest> DecodeRequest(std::string_view payload);
Result<WireResponse> DecodeResponse(std::string_view payload);

/// Frame I/O over a connected stream socket (base/socket.h). ReadFrame
/// returns kCancelled on orderly peer close between frames.
Status WriteFrame(int fd, std::string_view payload);
Status ReadFrame(int fd, std::string* payload);

}  // namespace omqc

#endif  // OMQC_SERVER_WIRE_H_
