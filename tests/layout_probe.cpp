// Compiled with the same flags as the mflush library, so these sizes are
// the library's view of the layouts (see test_ndebug_layout.cpp).
#include "layout_probe.h"

#include "sim/cmp.h"

namespace mflush::test {

LayoutSizes library_layout() {
  return {sizeof(CmpSimulator), sizeof(MemoryHierarchy), sizeof(SmtCore)};
}

}  // namespace mflush::test
