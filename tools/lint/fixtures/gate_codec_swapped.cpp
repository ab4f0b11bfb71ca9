// Gate fixture (bad head): gate_codec_v1.cpp with magic and version
// swapped in the frame header and no version bumped — every frame domain
// must fail.
#include "common/frame.h"

namespace mflush::frame {

std::size_t begin(ArchiveWriter& ar, const Kind& kind) {
  const std::size_t start = ar.bytes().size();
  ar.put(kind.version);
  ar.put(kind.magic());
  ar.put(std::uint32_t{0});
  return start;
}

}  // namespace mflush::frame
