#include "common/frame.h"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace mflush::frame {
namespace {

template <typename T>
T load_at(std::span<const std::uint8_t> bytes, std::size_t pos) {
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(T));
  return v;
}

Next bad(const Kind& kind, const std::string& why) {
  return {Status::kBad, 0, {}, std::string(kind.tag) + " frame: " + why};
}

}  // namespace

std::size_t begin(ArchiveWriter& ar, const Kind& kind) {
  const std::size_t start = ar.bytes().size();
  ar.put(kind.magic());
  ar.put(kind.version);
  ar.put(std::uint32_t{0});  // payload length, backpatched by seal
  return start;
}

void seal(ArchiveWriter& ar, std::size_t start) {
  const std::size_t len = ar.bytes().size() - start - kHeaderBytes;
  if (len > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("frame payload of " + std::to_string(len) +
                             " bytes exceeds the u32 length field");
  ar.put_at(start + 12, static_cast<std::uint32_t>(len));
  ar.put(fnv1a(std::span(ar.bytes()).subspan(start)));
}

Next next(std::span<const std::uint8_t> buffer, const Kind& kind,
          std::size_t max_payload, bool check_sum) {
  if (buffer.size() < kHeaderBytes) return {};
  if (load_at<std::uint64_t>(buffer, 0) != kind.magic())
    return bad(kind, "bad magic");
  if (const auto v = load_at<std::uint32_t>(buffer, 8); v != kind.version) {
    return bad(kind, "format version " + std::to_string(v) +
                         " incompatible with " + std::to_string(kind.version));
  }
  const std::size_t len = load_at<std::uint32_t>(buffer, 12);
  if (len > max_payload) {
    return bad(kind, "payload length " + std::to_string(len) +
                         " exceeds the bound of " +
                         std::to_string(max_payload) + " bytes");
  }
  const std::size_t body = kHeaderBytes + len;
  if (buffer.size() < body + 8) return {};
  if (check_sum &&
      fnv1a(buffer.first(body)) != load_at<std::uint64_t>(buffer, body))
    return bad(kind, "checksum mismatch (corrupt?)");
  return {Status::kFrame, body + 8, buffer.subspan(kHeaderBytes, len), {}};
}

ArchiveReader open(std::span<const std::uint8_t> bytes, const Kind& kind) {
  Next n = next(bytes, kind, bytes.size());
  if (n.status == Status::kNeedMore)
    n = bad(kind, "truncated at " + std::to_string(bytes.size()) + " bytes");
  else if (n.status == Status::kFrame && n.size != bytes.size())
    n = bad(kind, "trailing bytes after the frame");
  if (n.status == Status::kBad) throw std::runtime_error(n.error);
  return ArchiveReader(n.payload);
}

void finish(const ArchiveReader& ar, const Kind& kind) {
  if (!ar.done()) {
    throw std::runtime_error(std::string(kind.tag) +
                             " frame: trailing payload bytes (layout drift?)");
  }
}

bool has_magic(std::span<const std::uint8_t> bytes,
               const Kind& kind) noexcept {
  return bytes.size() >= 8 && load_at<std::uint64_t>(bytes, 0) == kind.magic();
}

}  // namespace mflush::frame
