// Gate fixture (base revision): a miniature frame table with two
// container kinds in two version domains. selftest.py commits it as
// src/common/frame.h in a scratch repository next to gate_wire_v1.h and
// gate_codec_v1.cpp; check_format_version.py reads its domains from here.
#pragma once

#include <cstdint>

namespace mflush::frame {

inline constexpr Kind kWire{"daemon", "MFLUSNET", 1};
inline constexpr Kind kJournal{"campaign", "MFLUSWAL", 1};

}  // namespace mflush::frame
