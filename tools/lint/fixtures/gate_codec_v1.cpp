// Gate fixture (base revision): the miniature codec, committed as
// src/common/frame.cpp. Its functions lay out every frame's header, so
// they belong to every frame domain's signature.
#include "common/frame.h"

namespace mflush::frame {

std::size_t begin(ArchiveWriter& ar, const Kind& kind) {
  const std::size_t start = ar.bytes().size();
  ar.put(kind.magic());
  ar.put(kind.version);
  ar.put(std::uint32_t{0});
  return start;
}

}  // namespace mflush::frame
