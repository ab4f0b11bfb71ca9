#pragma once

#include "core/fetch_policy.h"

/// The other counting fetch heuristics of Tullsen et al. (ISCA-23), which
/// the ADTS work the paper discusses in §5 switches among: BRCOUNT and
/// (L1D)MISSCOUNT. Like ICOUNT they are priority-only policies with no
/// response action.
namespace mflush {

/// BRCOUNT: favour the thread with the fewest unresolved branches (least
/// speculative fetch path).
class BrcountPolicy final : public FetchPolicy {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "BRCOUNT";
  }

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    sort_contexts(view.num_threads, order, [&view](ThreadId a, ThreadId b) {
      if (view.brcount[a] != view.brcount[b])
        return view.brcount[a] < view.brcount[b];
      if (view.icount[a] != view.icount[b])
        return view.icount[a] < view.icount[b];
      return a < b;
    });
  }
};

/// L1DMISSCOUNT: favour the thread with the fewest outstanding D-cache
/// misses (the crudest long-latency-load awareness).
class L1DMissCountPolicy final : public FetchPolicy {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "L1DMISSCOUNT";
  }

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    sort_contexts(view.num_threads, order, [&view](ThreadId a, ThreadId b) {
      if (view.misscount[a] != view.misscount[b])
        return view.misscount[a] < view.misscount[b];
      if (view.icount[a] != view.icount[b])
        return view.icount[a] < view.icount[b];
      return a < b;
    });
  }
};

}  // namespace mflush
