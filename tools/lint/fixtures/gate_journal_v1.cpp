// Gate fixture (base revision): a miniature journal writer in the
// 'campaign' domain, committed as src/sim/campaign.cpp. Its helper shares
// a name and body with gate_wire_v1.h's.
#include "common/frame.h"

namespace mflush::campaign {

void put_fields(ArchiveWriter& ar, std::uint8_t tag, std::uint16_t flags) {
  ar.put(tag);
  ar.put(flags);
}

std::vector<std::uint8_t> encode_record(std::uint8_t tag,
                                        std::uint16_t flags) {
  ArchiveWriter ar;
  const std::size_t start = frame::begin(ar, frame::kJournal);
  put_fields(ar, tag, flags);
  frame::seal(ar, start);
  return ar.take();
}

}  // namespace mflush::campaign
