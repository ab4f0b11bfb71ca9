#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pipeline/uop.h"

namespace mflush {

/// Producer-driven wakeup for the issue stage: per-register lists of the
/// queued uops waiting on it.
///
/// A uop entering an issue queue waits on each of its not-yet-ready source
/// registers (keyed by the owner: one key space over both register files).
/// When a producer writes a register, wake() walks that register's list and
/// reports every uop whose last outstanding source it was. Waiters are
/// linked through one node per (uop, source) in flat arrays sized to the uop
/// pool, doubly linked so a squash unlinks in O(1); nothing allocates while
/// the pool keeps its size.
///
/// Entirely derived state: the owner rebuilds it from its queues after a
/// snapshot restore (clear(), then wait() per queued uop).
class WakeupLists {
 public:
  static constexpr std::uint32_t kNone = 0xffffffff;

  WakeupLists(std::size_t num_keys, std::size_t num_uops)
      : head_(num_keys, kNone), nodes_(2 * num_uops), pending_(num_uops, 0) {}

  /// `h` waits on the registers keyed `key0`/`key1` (kNone for a source
  /// that is absent or already ready). Returns true if it waits on any.
  bool wait(UopHandle h, std::uint32_t key0, std::uint32_t key1) {
    if (h >= pending_.size()) {
      pending_.resize(std::size_t{h} + 1, 0);
      nodes_.resize(2 * pending_.size());
    }
    pending_[h] = 0;
    link(2 * h, key0);
    link(2 * h + 1, key1);
    return pending_[h] != 0;
  }

  /// A queued uop was squashed: drop it from every list it is still on.
  /// Only for a uop that called wait() since entering its queue (a slot's
  /// nodes are otherwise stale: an earlier occupant's, or pre-restore).
  void cancel(UopHandle h) noexcept {
    unlink(2 * h);
    unlink(2 * h + 1);
    pending_[h] = 0;
  }

  /// The register keyed `key` was written: call `on_ready(h)` for every
  /// waiter with no source left outstanding. Empties the list.
  template <typename F>
  void wake(std::uint32_t key, F&& on_ready) {
    std::uint32_t n = head_[key];
    head_[key] = kNone;
    while (n != kNone) {
      Node& node = nodes_[n];
      const std::uint32_t next = node.next;
      node.key = kNone;
      const UopHandle h = n / 2;
      if (--pending_[h] == 0) on_ready(h);
      n = next;
    }
  }

  /// Empty every list (before a rebuild).
  void clear() noexcept { std::fill(head_.begin(), head_.end(), kNone); }

 private:
  struct Node {
    std::uint32_t key = kNone;  ///< list it is on, kNone when unlinked
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };

  void link(std::uint32_t n, std::uint32_t key) noexcept {
    Node& node = nodes_[n];
    node.key = key;
    if (key == kNone) return;
    node.prev = kNone;
    node.next = head_[key];
    if (node.next != kNone) nodes_[node.next].prev = n;
    head_[key] = n;
    ++pending_[n / 2];
  }

  void unlink(std::uint32_t n) noexcept {
    Node& node = nodes_[n];
    if (node.key == kNone) return;
    if (node.prev != kNone)
      nodes_[node.prev].next = node.next;
    else
      head_[node.key] = node.next;
    if (node.next != kNone) nodes_[node.next].prev = node.prev;
    node.key = kNone;
  }

  std::vector<std::uint32_t> head_;    ///< per key: first waiter node
  std::vector<Node> nodes_;            ///< per (uop, source)
  std::vector<std::uint8_t> pending_;  ///< per uop: sources still awaited
};

}  // namespace mflush
