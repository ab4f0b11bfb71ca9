#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "pipeline/uop.h"

namespace mflush {

/// One issue queue (int, fp, or ld/st), shared among the core's contexts.
///
/// Entries sit in an age-ordered slot window: insert appends at the tail,
/// remove leaves a tombstone, and the window is compacted in place when the
/// tail reaches the end of the slots (amortized O(1): the slots are at
/// least twice the capacity). A per-handle slot index makes remove and
/// mark_ready O(1), and a ready bit per slot lets the issue selector take
/// the oldest ready entry by find-first-set instead of scanning.
///
/// Ready bits are derived state: the owner sets them (producer-driven
/// wakeup) and rebuilds them after load(). The archive holds only the live
/// entries, oldest first — the same bytes as a plain age-ordered vector.
class IssueQueue {
 public:
  /// `handles` preallocates the per-handle index (the uop pool's
  /// capacity); larger handles grow it on insert.
  explicit IssueQueue(std::uint32_t capacity, std::size_t handles = 0);

  [[nodiscard]] bool full() const noexcept { return live_ >= cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }

  /// Append `h` as the youngest entry (not ready). Caller checks full().
  void insert(UopHandle h);

  /// Remove a specific entry (issued or squashed); returns true if found.
  bool remove(UopHandle h);

  /// Mark a queued entry issuable (idempotent).
  void mark_ready(UopHandle h) noexcept {
    const std::uint32_t p = pos_[h];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    if ((ready_[p / 64] & bit) == 0) ++nready_;
    ready_[p / 64] |= bit;
  }
  /// Whether a queued entry is marked issuable.
  [[nodiscard]] bool is_ready(UopHandle h) const noexcept {
    const std::uint32_t p = pos_[h];
    return (ready_[p / 64] >> (p % 64)) & 1;
  }
  [[nodiscard]] bool any_ready() const noexcept { return nready_ != 0; }

  /// The oldest ready entry, or kNoUop.
  [[nodiscard]] UopHandle oldest_ready() const noexcept {
    if (nready_ == 0) return kNoUop;
    // No bit is set below head_ or at/after tail_, so the first set bit
    // from head_'s word on is the oldest ready entry.
    std::uint32_t w = head_ / 64;
    while (ready_[w] == 0) ++w;
    return slots_[w * 64 + std::countr_zero(ready_[w])];
  }

  /// Live entries, oldest first.
  [[nodiscard]] std::vector<UopHandle> entries() const;

  /// Count of entries belonging to `tid` (ICOUNT bookkeeping checks).
  [[nodiscard]] std::uint32_t count_for(const UopPool& pool,
                                        ThreadId tid) const;

  void save(ArchiveWriter& ar) const;
  /// Restores the entries with every ready bit clear.
  void load(ArchiveReader& ar);

 private:
  static constexpr std::uint32_t kNoPos = 0xffffffff;

  /// Record that `h` lives in slot `p`, growing the index if needed.
  void index(UopHandle h, std::uint32_t p);
  void clear_ready(std::uint32_t p) noexcept;
  /// Slide the live entries down to slot 0, keeping order and ready bits.
  void compact();
  /// Empty the queue in O(live entries) (before load).
  void drop_all() noexcept;

  /// Entries in [head_, tail_) that are not tombstones.
  std::uint32_t live_ = 0;
  /// Oldest live slot (== tail_ when empty), and the next insert slot.
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
  /// Handles in age order; kNoUop marks a tombstone.
  std::vector<UopHandle> slots_;
  // lint: transient — per-slot ready bits, rebuilt by the owner after load
  std::vector<std::uint64_t> ready_;
  // lint: transient — set bits in ready_, recounted with them
  std::uint32_t nready_ = 0;
  // lint: transient — handle -> slot index, rebuilt from slots_ by load
  std::vector<std::uint32_t> pos_;
  std::uint32_t cap_;  // lint: transient — ctor capacity
};

}  // namespace mflush
