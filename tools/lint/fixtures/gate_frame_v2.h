// Gate fixture: gate_frame_v1.h with the 'daemon' kind's version bumped —
// paired with a wire layout change, the gate must accept it.
#pragma once

#include <cstdint>

namespace mflush::frame {

inline constexpr Kind kWire{"daemon", "MFLUSNET", 2};
inline constexpr Kind kJournal{"campaign", "MFLUSWAL", 1};

}  // namespace mflush::frame
