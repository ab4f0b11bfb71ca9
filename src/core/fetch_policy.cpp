#include "core/fetch_policy.h"

namespace mflush {

void icount_order(const CoreView& view,
                  std::array<ThreadId, kMaxContexts>& order) {
  sort_contexts(view.num_threads, order, [&view](ThreadId a, ThreadId b) {
    if (view.icount[a] != view.icount[b])
      return view.icount[a] < view.icount[b];
    return a < b;
  });
}

}  // namespace mflush
