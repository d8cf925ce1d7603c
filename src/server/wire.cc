#include "server/wire.h"

#include <cstring>

#include "base/socket.h"
#include "base/string_util.h"

namespace omqc {

namespace {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// A bounds-checked little-endian reader over one frame payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return Truncated();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status U32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::OK();
  }

  Status U64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::OK();
  }

  Status String(std::string* v) {
    uint32_t len = 0;
    OMQC_RETURN_IF_ERROR(U32(&len));
    if (pos_ + len > data_.size()) return Truncated();
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(
          StrCat("wire: ", data_.size() - pos_, " trailing bytes in frame"));
    }
    return Status::OK();
  }

 private:
  Status Truncated() const {
    return Status::InvalidArgument("wire: truncated frame");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status CheckVersion(Reader& r) {
  uint8_t version = 0;
  OMQC_RETURN_IF_ERROR(r.U8(&version));
  if (version != kWireVersion) {
    return Status::Unsupported(
        StrCat("wire: protocol version ", int{version}, ", expected ",
               int{kWireVersion}));
  }
  return Status::OK();
}

}  // namespace

const char* RequestTypeToString(RequestType type) {
  switch (type) {
    case RequestType::kPing:
      return "ping";
    case RequestType::kEval:
      return "eval";
    case RequestType::kContain:
      return "contain";
    case RequestType::kClassify:
      return "classify";
    case RequestType::kStats:
      return "stats";
    case RequestType::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::string EncodeRequest(const WireRequest& request) {
  std::string out;
  out.reserve(64 + request.program.size());
  PutU8(&out, kWireVersion);
  PutU8(&out, static_cast<uint8_t>(request.type));
  PutU64(&out, request.request_id);
  PutString(&out, request.tenant);
  PutU64(&out, request.deadline_ms);
  PutU64(&out, request.max_memory_bytes);
  PutString(&out, request.program);
  PutString(&out, request.query);
  PutString(&out, request.query2);
  return out;
}

std::string EncodeResponse(const WireResponse& response) {
  std::string out;
  out.reserve(64 + response.body.size() + response.stats_json.size());
  PutU8(&out, kWireVersion);
  PutU64(&out, response.request_id);
  PutU8(&out, static_cast<uint8_t>(response.code));
  PutString(&out, response.message);
  PutString(&out, response.body);
  PutString(&out, response.stats_json);
  PutU64(&out, response.admission_wait_us);
  return out;
}

Result<WireRequest> DecodeRequest(std::string_view payload) {
  Reader r(payload);
  OMQC_RETURN_IF_ERROR(CheckVersion(r));
  WireRequest request;
  uint8_t type = 0;
  OMQC_RETURN_IF_ERROR(r.U8(&type));
  if (type > static_cast<uint8_t>(RequestType::kShutdown)) {
    return Status::InvalidArgument(
        StrCat("wire: unknown request type ", int{type}));
  }
  request.type = static_cast<RequestType>(type);
  OMQC_RETURN_IF_ERROR(r.U64(&request.request_id));
  OMQC_RETURN_IF_ERROR(r.String(&request.tenant));
  OMQC_RETURN_IF_ERROR(r.U64(&request.deadline_ms));
  OMQC_RETURN_IF_ERROR(r.U64(&request.max_memory_bytes));
  OMQC_RETURN_IF_ERROR(r.String(&request.program));
  OMQC_RETURN_IF_ERROR(r.String(&request.query));
  OMQC_RETURN_IF_ERROR(r.String(&request.query2));
  OMQC_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

Result<WireResponse> DecodeResponse(std::string_view payload) {
  Reader r(payload);
  OMQC_RETURN_IF_ERROR(CheckVersion(r));
  WireResponse response;
  OMQC_RETURN_IF_ERROR(r.U64(&response.request_id));
  uint8_t code = 0;
  OMQC_RETURN_IF_ERROR(r.U8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kNotFound)) {
    return Status::InvalidArgument(
        StrCat("wire: unknown status code ", int{code}));
  }
  response.code = static_cast<StatusCode>(code);
  OMQC_RETURN_IF_ERROR(r.String(&response.message));
  OMQC_RETURN_IF_ERROR(r.String(&response.body));
  OMQC_RETURN_IF_ERROR(r.String(&response.stats_json));
  OMQC_RETURN_IF_ERROR(r.U64(&response.admission_wait_us));
  OMQC_RETURN_IF_ERROR(r.ExpectEnd());
  return response;
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrCat("wire: frame of ", payload.size(), " bytes exceeds limit"));
  }
  char prefix[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  OMQC_RETURN_IF_ERROR(WriteFull(fd, prefix, sizeof(prefix)));
  return WriteFull(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, std::string* payload) {
  char prefix[4];
  OMQC_RETURN_IF_ERROR(ReadFull(fd, prefix, sizeof(prefix)));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrCat("wire: frame length ", len, " exceeds limit"));
  }
  payload->resize(len);
  if (len == 0) return Status::OK();
  return ReadFull(fd, payload->data(), len);
}

}  // namespace omqc
