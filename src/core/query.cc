#include "core/query.h"

#include <utility>

namespace p3q {

ActiveQuery::ActiveQuery(std::uint64_t id, QuerySpec spec, int k,
                         std::size_t expected)
    : id_(id), spec_(std::move(spec)), expected_(expected), nra_(k) {}

void ActiveQuery::DeliverPartialResult(PartialResultMessage message) {
  if (finalized_) {
    ++late_results_dropped_;
    return;
  }
  // Deliveries before the cycle-0 snapshot are the querier's own local
  // result; anything after comes from a remote collaborator, and the first
  // one marks time-to-first-result (history_.size() snapshots exist after
  // that many elapsed cycles, so it doubles as the cycles-since-issue lag).
  if (!history_.empty() && first_result_cycle_ < 0) {
    first_result_cycle_ = static_cast<std::int64_t>(history_.size());
  }
  inbox_.push_back(std::move(message));
}

void ActiveQuery::EndOfCycle(bool complete) {
  for (auto& message : inbox_) {
    for (UserId u : message.used_profiles) used_profiles_.insert(u);
    nra_.AddList(std::move(message.entries));
  }
  inbox_.clear();
  if (complete) {
    // All partial lists have arrived: drain so worst == best == exact and
    // the final ranking matches the centralized reference ordering.
    nra_.DrainAll();
  } else {
    nra_.Process();
  }
  QueryCycleSnapshot snapshot;
  snapshot.top_k = nra_.TopK();
  snapshot.used_profiles = used_profiles_.size();
  snapshot.complete = complete;
  history_.push_back(std::move(snapshot));
  if (complete) finalized_ = true;
}

std::vector<ItemId> ActiveQuery::CurrentTopKItems() const {
  std::vector<ItemId> items;
  if (history_.empty()) return items;
  for (const RankedItem& r : history_.back().top_k) items.push_back(r.item);
  return items;
}

}  // namespace p3q
