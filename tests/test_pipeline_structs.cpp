#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "pipeline/fu.h"
#include "pipeline/iq.h"
#include "pipeline/regfile.h"
#include "pipeline/rename.h"
#include "pipeline/rob.h"
#include "pipeline/uop.h"

namespace mflush {
namespace {

// ------------------------------------------------------------------- UopPool

TEST(UopPool, AllocRelease) {
  UopPool pool(4);
  const UopHandle h = pool.alloc();
  EXPECT_TRUE(pool[h].in_use);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(h);
  EXPECT_FALSE(pool[h].in_use);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(UopPool, ReusedSlotsAreFresh) {
  UopPool pool(2);
  const UopHandle h = pool.alloc();
  pool[h].seq = 99;
  pool[h].completed = true;
  pool.release(h);
  const UopHandle h2 = pool.alloc();
  EXPECT_EQ(pool[h2].seq, 0u);
  EXPECT_FALSE(pool[h2].completed);
}

TEST(UopPool, GrowsBeyondInitialCapacity) {
  UopPool pool(2);
  const auto a = pool.alloc();
  const auto b = pool.alloc();
  const auto c = pool.alloc();  // grows
  EXPECT_TRUE(pool[c].in_use);
  EXPECT_EQ(pool.live(), 3u);
  (void)a;
  (void)b;
}

// ----------------------------------------------------------------------- Rob

TEST(Rob, FifoOrder) {
  Rob rob(4);
  rob.push_back(10);
  rob.push_back(11);
  rob.push_back(12);
  EXPECT_EQ(rob.front(), 10u);
  rob.pop_front();
  EXPECT_EQ(rob.front(), 11u);
  EXPECT_EQ(rob.back(), 12u);
}

TEST(Rob, PopBackForSquash) {
  Rob rob(4);
  rob.push_back(1);
  rob.push_back(2);
  rob.pop_back();
  EXPECT_EQ(rob.back(), 1u);
  EXPECT_EQ(rob.size(), 1u);
}

TEST(Rob, FullAndWrapAround) {
  Rob rob(3);
  rob.push_back(1);
  rob.push_back(2);
  rob.push_back(3);
  EXPECT_TRUE(rob.full());
  rob.pop_front();
  rob.push_back(4);  // wraps
  EXPECT_EQ(rob.front(), 2u);
  EXPECT_EQ(rob.back(), 4u);
  EXPECT_EQ(rob.at(0), 2u);
  EXPECT_EQ(rob.at(2), 4u);
}

// --------------------------------------------------------------- IssueQueue

TEST(IssueQueue, InsertRemove) {
  IssueQueue q(4);
  q.insert(5);
  q.insert(6);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.remove(5));
  EXPECT_FALSE(q.remove(5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(IssueQueue, PreservesAgeOrder) {
  IssueQueue q(8);
  for (UopHandle h : {3u, 1u, 4u, 1u + 4u}) q.insert(h);
  q.remove(4);
  ASSERT_EQ(q.entries().size(), 3u);
  EXPECT_EQ(q.entries()[0], 3u);
  EXPECT_EQ(q.entries()[1], 1u);
  EXPECT_EQ(q.entries()[2], 5u);
}

TEST(IssueQueue, FullAtCapacity) {
  IssueQueue q(2);
  q.insert(1);
  q.insert(2);
  EXPECT_TRUE(q.full());
}

TEST(IssueQueue, CountForThread) {
  UopPool pool(4);
  const auto a = pool.alloc();
  const auto b = pool.alloc();
  const auto c = pool.alloc();
  pool[a].tid = 0;
  pool[b].tid = 1;
  pool[c].tid = 0;
  IssueQueue q(8);
  q.insert(a);
  q.insert(b);
  q.insert(c);
  EXPECT_EQ(q.count_for(pool, 0), 2u);
  EXPECT_EQ(q.count_for(pool, 1), 1u);
}

TEST(IssueQueue, OldestReadyAfterOutOfOrderRemovals) {
  IssueQueue q(8);
  for (UopHandle h : {10u, 11u, 12u, 13u, 14u}) q.insert(h);
  EXPECT_FALSE(q.any_ready());
  EXPECT_EQ(q.oldest_ready(), kNoUop);
  q.mark_ready(14);
  q.mark_ready(12);
  q.mark_ready(11);
  EXPECT_EQ(q.oldest_ready(), 11u);
  EXPECT_TRUE(q.remove(11));  // issued
  EXPECT_TRUE(q.remove(10));  // squashed while not ready
  EXPECT_EQ(q.oldest_ready(), 12u);
  EXPECT_TRUE(q.remove(12));
  EXPECT_EQ(q.oldest_ready(), 14u);
  q.insert(15);
  q.mark_ready(15);
  q.mark_ready(13);
  EXPECT_EQ(q.oldest_ready(), 13u);
  EXPECT_TRUE(q.is_ready(13));
  EXPECT_EQ(q.entries(), (std::vector<UopHandle>{13, 14, 15}));
  q.remove(13);
  q.remove(14);
  q.remove(15);
  EXPECT_FALSE(q.any_ready());
  EXPECT_EQ(q.size(), 0u);
}

TEST(IssueQueue, CompactsWhileAnOldEntryStays) {
  // Entry 1000 never leaves while more than twice the capacity of younger
  // entries pass through: the slot window must compact, keeping age order
  // and ready bits.
  IssueQueue q(64);
  q.insert(1000);
  for (UopHandle h = 0; h < 5 * 64; ++h) {
    q.insert(h);
    if (h % 3 == 0) q.mark_ready(h);
    if (h >= 2) q.remove(h - 2);
    if (h >= 1) {
      ASSERT_EQ(q.entries(), (std::vector<UopHandle>{1000, h - 1, h}));
      const UopHandle want = (h - 1) % 3 == 0 ? h - 1 : h % 3 == 0 ? h : kNoUop;
      ASSERT_EQ(q.oldest_ready(), want) << h;
    }
  }
  q.mark_ready(1000);
  EXPECT_EQ(q.oldest_ready(), 1000u);
  EXPECT_FALSE(q.full());
}

TEST(IssueQueue, MatchesAReferenceModelAtOddCapacities) {
  // Random insert / remove / mark_ready against a plain age-ordered
  // vector, at capacities that are not multiples of 64.
  for (const std::uint32_t cap : {3u, 96u}) {
    IssueQueue q(cap);
    std::vector<UopHandle> model;  // age order
    std::vector<bool> ready(4 * cap, false);
    std::mt19937 rng(cap);
    UopHandle next = 0;
    for (int step = 0; step < 20'000; ++step) {
      const unsigned op = rng() % 3;
      if (op == 0 && model.size() < cap) {
        // Handles are reused once free, as the uop pool reuses slots.
        const UopHandle h = next++ % (4 * cap);
        if (std::find(model.begin(), model.end(), h) != model.end()) continue;
        q.insert(h);
        model.push_back(h);
        ready[h] = false;
      } else if (op == 1 && !model.empty()) {
        const auto it = model.begin() + rng() % model.size();
        ASSERT_TRUE(q.remove(*it));
        model.erase(it);
      } else if (!model.empty()) {
        const UopHandle h = model[rng() % model.size()];
        q.mark_ready(h);
        ready[h] = true;
      }
      ASSERT_EQ(q.entries(), model) << "cap " << cap << " step " << step;
      ASSERT_EQ(q.full(), model.size() >= cap);
      UopHandle oldest = kNoUop;
      for (const UopHandle h : model) {
        if (ready[h]) {
          oldest = h;
          break;
        }
      }
      ASSERT_EQ(q.oldest_ready(), oldest) << "cap " << cap << " step " << step;
    }
  }
}

TEST(IssueQueue, RemoveOfAbsentHandleReturnsFalse) {
  IssueQueue q(4, 8);
  EXPECT_FALSE(q.remove(3));     // never inserted, inside the index
  EXPECT_FALSE(q.remove(5000));  // beyond the preallocated index
  q.insert(3);
  EXPECT_TRUE(q.remove(3));
  EXPECT_FALSE(q.remove(3));
  EXPECT_EQ(q.size(), 0u);
}

TEST(IssueQueue, SavesTheBytesOfAnAgeOrderedVector) {
  IssueQueue q(8);
  for (UopHandle h : {7u, 2u, 9u, 4u, 6u}) q.insert(h);
  q.remove(2);
  q.remove(6);
  q.mark_ready(9);
  ArchiveWriter got;
  q.save(got);
  ArchiveWriter want;
  want.put_vec(std::vector<UopHandle>{7, 9, 4});
  EXPECT_EQ(got.bytes(), want.bytes());

  // Loading replaces the old contents and clears every ready bit.
  IssueQueue r(8);
  r.insert(9);
  r.insert(1);
  r.mark_ready(1);
  ArchiveReader in(got.bytes());
  r.load(in);
  EXPECT_EQ(r.entries(), (std::vector<UopHandle>{7, 9, 4}));
  EXPECT_FALSE(r.any_ready());
  EXPECT_FALSE(r.remove(1));
  r.mark_ready(4);
  EXPECT_EQ(r.oldest_ready(), 4u);
}

// -------------------------------------------------------------- PhysRegFile

TEST(PhysRegFile, AllocClearsReady) {
  PhysRegFile rf(4);
  const PhysReg r = rf.alloc();
  EXPECT_FALSE(rf.ready(r));
  rf.set_ready(r);
  EXPECT_TRUE(rf.ready(r));
}

TEST(PhysRegFile, NoRegSentinelIsAlwaysReady) {
  PhysRegFile rf(4);
  EXPECT_TRUE(rf.ready(kNoPhysReg));
}

TEST(PhysRegFile, ExhaustionAndRelease) {
  PhysRegFile rf(2);
  const PhysReg a = rf.alloc();
  (void)rf.alloc();
  EXPECT_FALSE(rf.has_free());
  rf.release(a);
  EXPECT_TRUE(rf.has_free());
  EXPECT_EQ(rf.free_count(), 1u);
}

// ----------------------------------------------------------------- RenameMap

TEST(RenameMap, InitialMappingsAreReady) {
  PhysRegFile iregs(320), fregs(320);
  RenameMap map(iregs, fregs);
  for (LogReg r = 0; r < kNumLogicalRegs; ++r) {
    const PhysReg p = map.lookup(r);
    EXPECT_NE(p, kNoPhysReg);
    EXPECT_TRUE(RenameMap::is_fp_reg(r) ? fregs.ready(p) : iregs.ready(p));
  }
  // 32 int + 32 fp consumed.
  EXPECT_EQ(iregs.free_count(), 288u);
  EXPECT_EQ(fregs.free_count(), 288u);
}

TEST(RenameMap, RenameRedirectsLookups) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const PhysReg before = map.lookup(3);
  const auto ren = map.rename_dst(3);
  EXPECT_EQ(ren.previous, before);
  EXPECT_EQ(map.lookup(3), ren.fresh);
  EXPECT_NE(ren.fresh, before);
}

TEST(RenameMap, UnwindRestoresAndFrees) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const auto free_before = iregs.free_count();
  const auto ren = map.rename_dst(3);
  map.unwind(3, ren.fresh, ren.previous);
  EXPECT_EQ(map.lookup(3), ren.previous);
  EXPECT_EQ(iregs.free_count(), free_before);
}

TEST(RenameMap, CommitReleasesPrevious) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const auto free_before = iregs.free_count();
  const auto ren = map.rename_dst(3);
  map.commit_release(3, ren.previous);
  EXPECT_EQ(map.lookup(3), ren.fresh);
  EXPECT_EQ(iregs.free_count(), free_before);  // one taken, one released
}

TEST(RenameMap, NestedRenameUnwindInReverseOrder) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const PhysReg orig = map.lookup(7);
  const auto r1 = map.rename_dst(7);
  const auto r2 = map.rename_dst(7);
  map.unwind(7, r2.fresh, r2.previous);
  map.unwind(7, r1.fresh, r1.previous);
  EXPECT_EQ(map.lookup(7), orig);
}

TEST(RenameMap, FpIntSplit) {
  EXPECT_FALSE(RenameMap::is_fp_reg(0));
  EXPECT_FALSE(RenameMap::is_fp_reg(31));
  EXPECT_TRUE(RenameMap::is_fp_reg(32));
  EXPECT_TRUE(RenameMap::is_fp_reg(63));
}

// ------------------------------------------------------------------ FuBudget

TEST(FuBudget, CapsPerClass) {
  const CoreConfig cfg;  // 4 int, 3 fp, 2 ld/st
  FuBudget fu(cfg);
  fu.begin_cycle();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(fu.try_take(InstrClass::IntAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::IntAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::Branch));  // branches use int units
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(fu.try_take(InstrClass::FpAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::FpMul));
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(fu.try_take(InstrClass::Load));
  EXPECT_FALSE(fu.try_take(InstrClass::Store));
}

TEST(FuBudget, BeginCycleResets) {
  const CoreConfig cfg;
  FuBudget fu(cfg);
  fu.begin_cycle();
  for (int i = 0; i < 4; ++i) (void)fu.try_take(InstrClass::IntAlu);
  fu.begin_cycle();
  EXPECT_TRUE(fu.try_take(InstrClass::IntAlu));
}

TEST(FuBudget, Latencies) {
  const CoreConfig cfg;
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::IntAlu), 1u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::IntMul), 3u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::FpAlu), 4u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::FpMul), 6u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::Branch), 1u);
}

}  // namespace
}  // namespace mflush
