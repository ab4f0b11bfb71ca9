// Gate fixture (bad head): gate_wire_v1.h with the message's serialized
// field order swapped but no version bumped — the exact mistake the gate
// exists to catch (old peers would misread every frame).
#pragma once

#include <cstdint>

namespace mflush::daemon {

struct Message {
  std::uint32_t a = 0;
  std::uint64_t b = 0;

  void save(ArchiveWriter& ar) const {
    ar.put(b);
    ar.put(a);
  }
  static Message load(ArchiveReader& ar) {
    Message m;
    m.b = ar.get<std::uint64_t>();
    m.a = ar.get<std::uint32_t>();
    return m;
  }
};

// Same name and body as the helper in gate_journal_v1.cpp: each file's
// writer must be expanded with its own.
inline void put_fields(ArchiveWriter& ar, std::uint8_t tag,
                       std::uint16_t flags) {
  ar.put(tag);
  ar.put(flags);
}

inline std::vector<std::uint8_t> encode_frame(const Message& msg,
                                              std::uint8_t tag,
                                              std::uint16_t flags) {
  ArchiveWriter ar;
  const std::size_t start = frame::begin(ar, frame::kWire);
  put_fields(ar, tag, flags);
  msg.save(ar);
  frame::seal(ar, start);
  return ar.take();
}

}  // namespace mflush::daemon
