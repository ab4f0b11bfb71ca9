// This file is compiled with -UNDEBUG, the library with the build type's
// flags (NDEBUG in every release build). The chip's layouts must agree
// across that boundary: a member that exists only with asserts on makes
// every object built on one side and used on the other corrupt the heap.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "layout_probe.h"
#include "sim/cmp.h"
#include "sim/workloads.h"

#ifdef NDEBUG
#error "test_ndebug_layout.cpp must be compiled without NDEBUG"
#endif

namespace mflush {
namespace {

TEST(NdebugLayout, AssertBuildMatchesTheLibraryLayout) {
  const test::LayoutSizes lib = test::library_layout();
  ASSERT_EQ(sizeof(CmpSimulator), lib.cmp);
  ASSERT_EQ(sizeof(MemoryHierarchy), lib.hierarchy);
  ASSERT_EQ(sizeof(SmtCore), lib.core);

  // A chip constructed here and run by library code stays intact.
  CmpSimulator sim(*workloads::by_name("2W1"), PolicySpec::mflush(), 1);
  sim.run(2'000);
  EXPECT_GT(sim.metrics().committed, 0u);
}

}  // namespace
}  // namespace mflush
