#pragma once

#include <cstddef>

namespace mflush::test {

/// sizeof of the chip's main classes as seen by one translation unit.
struct LayoutSizes {
  std::size_t cmp = 0;
  std::size_t hierarchy = 0;
  std::size_t core = 0;
};

/// The view of layout_probe.cpp, which is compiled with the library's
/// flags (NDEBUG in every release build).
LayoutSizes library_layout();

}  // namespace mflush::test
