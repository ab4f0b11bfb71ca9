// Compiled into the library target, so these sizes are the library's view
// of the layouts. mflushbench compares them with its own view at start-up
// (see selftest.cpp): a mismatch means the two were built with different
// NDEBUG settings and sharing objects between them would corrupt memory.
#include "harness.h"
#include "sim/cmp.h"

namespace perfbench {

LibraryLayout library_layout() {
  return {sizeof(mflush::CmpSimulator), sizeof(mflush::MemoryHierarchy),
          sizeof(mflush::SmtCore)};
}

}  // namespace perfbench
