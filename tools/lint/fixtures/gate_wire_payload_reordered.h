// Gate fixture (bad head): gate_wire_v1.h with the container payload
// reordered (the fields now follow the message) but no version bumped. No
// save/load method changed, so only the container writer's signature
// shows the change.
#pragma once

#include <cstdint>

namespace mflush::daemon {

struct Message {
  std::uint32_t a = 0;
  std::uint64_t b = 0;

  void save(ArchiveWriter& ar) const {
    ar.put(a);
    ar.put(b);
  }
  static Message load(ArchiveReader& ar) {
    Message m;
    m.a = ar.get<std::uint32_t>();
    m.b = ar.get<std::uint64_t>();
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
  msg.save(ar);
  put_fields(ar, tag, flags);
  frame::seal(ar, start);
  return ar.take();
}

}  // namespace mflush::daemon
