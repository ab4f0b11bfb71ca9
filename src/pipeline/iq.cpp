#include "pipeline/iq.h"

#include <algorithm>
#include <stdexcept>

namespace mflush {

IssueQueue::IssueQueue(std::uint32_t capacity, std::size_t handles)
    : cap_(capacity) {
  // At least twice the capacity, so a compaction (which leaves at most
  // cap_ - 1 entries) is followed by at least cap_ tombstone-free inserts.
  const std::size_t words = (2 * std::size_t{capacity} + 63) / 64;
  ready_.assign(std::max<std::size_t>(words, 1), 0);
  slots_.assign(64 * ready_.size(), kNoUop);
  pos_.assign(handles, kNoPos);
}

void IssueQueue::index(UopHandle h, std::uint32_t p) {
  if (h >= pos_.size()) pos_.resize(std::size_t{h} + 1, kNoPos);
  pos_[h] = p;
}

void IssueQueue::clear_ready(std::uint32_t p) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << (p % 64);
  if ((ready_[p / 64] & bit) == 0) return;
  ready_[p / 64] &= ~bit;
  --nready_;
}

void IssueQueue::insert(UopHandle h) {
  if (tail_ == slots_.size()) compact();
  slots_[tail_] = h;
  index(h, tail_);
  ++tail_;
  ++live_;
}

bool IssueQueue::remove(UopHandle h) {
  if (h >= pos_.size() || pos_[h] == kNoPos) return false;
  const std::uint32_t p = pos_[h];
  pos_[h] = kNoPos;
  slots_[p] = kNoUop;
  clear_ready(p);
  if (--live_ == 0) {
    head_ = tail_ = 0;
  } else if (p == head_) {
    while (slots_[head_] == kNoUop) ++head_;
  }
  return true;
}

void IssueQueue::compact() {
  std::uint32_t j = 0;
  for (std::uint32_t i = head_; i < tail_; ++i) {
    const UopHandle h = slots_[i];
    if (h == kNoUop) continue;
    const bool ready = (ready_[i / 64] >> (i % 64)) & 1;
    clear_ready(i);
    slots_[j] = h;
    pos_[h] = j;
    if (ready) mark_ready(h);
    ++j;
  }
  std::fill(slots_.begin() + j, slots_.begin() + tail_, kNoUop);
  head_ = 0;
  tail_ = j;
}

std::vector<UopHandle> IssueQueue::entries() const {
  std::vector<UopHandle> out;
  out.reserve(live_);
  for (std::uint32_t i = head_; i < tail_; ++i)
    if (slots_[i] != kNoUop) out.push_back(slots_[i]);
  return out;
}

std::uint32_t IssueQueue::count_for(const UopPool& pool, ThreadId tid) const {
  std::uint32_t n = 0;
  for (std::uint32_t i = head_; i < tail_; ++i)
    if (slots_[i] != kNoUop && pool[slots_[i]].tid == tid) ++n;
  return n;
}

void IssueQueue::save(ArchiveWriter& ar) const {
  // The bytes of put_vec over the age-ordered entries.
  ar.put<std::uint64_t>(live_);
  for (std::uint32_t i = head_; i < tail_; ++i)
    if (slots_[i] != kNoUop) ar.put(slots_[i]);
}

void IssueQueue::drop_all() noexcept {
  for (std::uint32_t i = head_; i < tail_; ++i) {
    if (slots_[i] == kNoUop) continue;
    pos_[slots_[i]] = kNoPos;
    slots_[i] = kNoUop;
  }
  std::fill(ready_.begin(), ready_.end(), 0);
  nready_ = 0;
}

void IssueQueue::load(ArchiveReader& ar) {
  drop_all();
  const auto n = ar.get<std::uint64_t>();
  if (n > cap_) throw std::runtime_error("IssueQueue: entries exceed capacity");
  live_ = static_cast<std::uint32_t>(n);
  head_ = 0;
  tail_ = live_;
  for (std::uint32_t i = 0; i < live_; ++i) {
    slots_[i] = ar.get<UopHandle>();
    index(slots_[i], i);
  }
}

}  // namespace mflush
