#include "wire/frame.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"

namespace mace::wire {
namespace {

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kScoreRequest: return "score_request";
    case FrameType::kScoreResponse: return "score_response";
    case FrameType::kCloseRequest: return "close_request";
    case FrameType::kCloseResponse: return "close_response";
    case FrameType::kStatsRequest: return "stats_request";
    case FrameType::kStatsResponse: return "stats_response";
  }
  return "unknown";
}

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kPing) &&
         type <= static_cast<uint8_t>(FrameType::kStatsResponse);
}

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 uint64_t request_id, const uint8_t* payload, size_t size) {
  MACE_CHECK(size <= kMaxPayload)
      << "wire frame payload " << size << " exceeds the " << kMaxPayload
      << "-byte protocol cap";
  // Grow geometrically: buffers that coalesce many frames per write would
  // reallocate on every append under an exact-size reserve.
  const size_t need = out->size() + kHeaderSize + size;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  out->insert(out->end(), kMagic, kMagic + 4);
  out->push_back(kVersion);
  out->push_back(static_cast<uint8_t>(type));
  PutU16(out, 0);  // reserved
  PutU64(out, request_id);
  PutU32(out, static_cast<uint32_t>(size));
  PutU32(out, common::Crc32(payload, size));
  out->insert(out->end(), payload, payload + size);
}

void FrameDecoder::Append(const uint8_t* data, size_t size) {
  if (poisoned_) return;  // connection is dead; don't buffer more
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer stays bounded by one partial frame.
  if (consumed_ > 0 &&
      (consumed_ >= buffer_.size() || consumed_ > (kMaxPayload >> 2))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<std::optional<OwnedFrame>> FrameDecoder::Next() {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "wire decoder: stream already failed a protocol check");
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderSize) return std::optional<OwnedFrame>();
  const uint8_t* h = buffer_.data() + consumed_;

  // Structural header validation before any length-derived work.
  if (std::memcmp(h, kMagic, 4) != 0) {
    poisoned_ = true;
    return Status::InvalidArgument("wire frame: bad magic");
  }
  if (h[4] != kVersion) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "wire frame: unsupported version " + std::to_string(int{h[4]}) +
        " (speaking " + std::to_string(int{kVersion}) + ")");
  }
  if (!IsKnownFrameType(h[5])) {
    poisoned_ = true;
    return Status::InvalidArgument("wire frame: unknown frame type " +
                                   std::to_string(int{h[5]}));
  }
  if (GetU16(h + 6) != 0) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "wire frame: reserved header bytes must be zero");
  }
  const uint64_t request_id = GetU64(h + 8);
  const uint32_t payload_len = GetU32(h + 16);
  if (payload_len > kMaxPayload) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "wire frame: payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(kMaxPayload) + "-byte cap");
  }
  if (available < kHeaderSize + payload_len) {
    return std::optional<OwnedFrame>();  // wait for the rest
  }
  const uint8_t* payload = h + kHeaderSize;
  const uint32_t crc = common::Crc32(payload, payload_len);
  if (crc != GetU32(h + 20)) {
    poisoned_ = true;
    return Status::InvalidArgument("wire frame: payload CRC mismatch");
  }
  OwnedFrame frame;
  frame.type = static_cast<FrameType>(h[5]);
  frame.request_id = request_id;
  frame.payload.assign(payload, payload + payload_len);
  consumed_ += kHeaderSize + payload_len;
  return std::optional<OwnedFrame>(std::move(frame));
}

}  // namespace mace::wire
