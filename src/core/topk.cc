#include "core/topk.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <map>
#include <string>

#include "sim/checkpoint.h"

namespace p3q {

IncrementalNra::IncrementalNra(int k)
    : k_(static_cast<std::uint32_t>(k < 1 ? 1 : k)) {}

void IncrementalNra::AddList(
    std::vector<std::pair<ItemId, std::uint32_t>> entries) {
#ifndef NDEBUG
  // Precondition: scores descending, items unique within a list.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    assert(entries[i - 1].second >= entries[i].second);
  }
#endif
  List list;
  list.entries = std::move(entries);
  lists_.push_back(std::move(list));
}

void IncrementalNra::ConsumeEntry(std::uint32_t idx, std::size_t pos) {
  List& list = lists_[idx];
  const auto& [item, score] = list.entries[pos];
  list.last_seen = score;
  list.next_pos = pos + 1;
  Candidate& cand = candidates_[item];
  cand.worst += score;
  cand.seen_lists.push_back(idx);
  ++total_scanned_;
}

std::uint64_t IncrementalNra::ActiveTail() const {
  std::uint64_t tail = 0;
  for (const List& list : lists_) {
    if (list.Exhausted()) continue;
    if (list.last_seen == kUnknown) return kUnknown;
    tail += list.last_seen;
  }
  return tail;
}

std::uint64_t IncrementalNra::BestCase(const Candidate& c,
                                       std::uint64_t tail) const {
  // best = worst + (bound of every active list the item was NOT seen in)
  //      = worst + tail - sum(last_seen of active lists it WAS seen in).
  std::uint64_t best = c.worst + tail;
  for (std::uint32_t idx : c.seen_lists) {
    const List& list = lists_[idx];
    if (!list.Exhausted()) best -= list.last_seen;
  }
  return best;
}

bool IncrementalNra::StopConditionHolds() const {
  const std::uint64_t tail = ActiveTail();
  if (tail == kUnknown) return false;  // an unscanned list bounds nothing
  if (candidates_.empty()) return tail == 0;
  if (candidates_.size() <= static_cast<std::size_t>(k_)) {
    // Fewer candidates than k: final only when no list can produce more.
    return tail == 0;
  }
  struct Entry {
    ItemId item;
    std::uint64_t worst;
    std::uint64_t best;
  };
  std::vector<Entry> all;
  all.reserve(candidates_.size());
  for (const auto& [item, cand] : candidates_) {
    all.push_back(Entry{item, cand.worst, BestCase(cand, tail)});
  }
  auto before = [](const Entry& a, const Entry& b) {
    if (a.worst != b.worst) return a.worst > b.worst;
    if (a.best != b.best) return a.best > b.best;
    return a.item < b.item;
  };
  std::nth_element(all.begin(), all.begin() + (k_ - 1), all.end(), before);
  const std::uint64_t kth_worst = all[static_cast<std::size_t>(k_) - 1].worst;
  std::uint64_t max_other_best = 0;
  for (std::size_t i = static_cast<std::size_t>(k_); i < all.size(); ++i) {
    max_other_best = std::max(max_other_best, all[i].best);
  }
  // `tail` also upper-bounds any item never seen in any list (Fagin's
  // threshold); the paper's heap-only condition implicitly relies on it.
  max_other_best = std::max(max_other_best, tail);
  return kth_worst >= max_other_best;
}

bool IncrementalNra::Converged() const { return StopConditionHolds(); }

std::size_t IncrementalNra::Process() {
  const std::size_t before = total_scanned_;
  if (StopConditionHolds()) return 0;

  // Cohorts of non-exhausted lists grouped by their next position. The
  // paper's global cursor rule — new lists scan from rank 1, parked lists
  // rejoin when the cursor reaches where they stopped — is exactly
  // "always advance the cohort with the smallest next position".
  std::map<std::size_t, std::vector<std::uint32_t>> pending;
  for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
    if (!lists_[idx].Exhausted()) pending[lists_[idx].next_pos].push_back(idx);
  }
  std::size_t sweeps = 0;
  std::size_t next_check = 1;
  while (!pending.empty()) {
    auto it = pending.begin();
    const std::size_t pos = it->first;
    std::vector<std::uint32_t> cohort = std::move(it->second);
    pending.erase(it);
    for (std::uint32_t idx : cohort) {
      ConsumeEntry(idx, pos);
      if (!lists_[idx].Exhausted()) pending[pos + 1].push_back(idx);
    }
    ++sweeps;
    // Algorithm 4 re-evaluates the stop condition after every position; we
    // check at geometrically spaced sweeps (1, 2, 4, ...), which bounds the
    // extra scanning by 2x while keeping the check cost off the hot path.
    if (sweeps >= next_check) {
      next_check *= 2;
      if (StopConditionHolds()) break;
    }
  }
  return total_scanned_ - before;
}

std::size_t IncrementalNra::DrainAll() {
  const std::size_t before = total_scanned_;
  for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
    while (!lists_[idx].Exhausted()) {
      ConsumeEntry(idx, lists_[idx].next_pos);
    }
  }
  return total_scanned_ - before;
}

void IncrementalNra::FinishLoad() const {
  if (k_ == 0 || k_ > static_cast<std::uint32_t>(INT_MAX)) {
    throw CheckpointError("corrupt checkpoint: NRA result size " +
                          std::to_string(k_) + " out of range");
  }
  for (const List& list : lists_) {
    if (list.next_pos > list.entries.size()) {
      throw CheckpointError(
          "corrupt checkpoint: NRA list cursor past the list's end");
    }
  }
  for (const auto& [item, cand] : candidates_) {
    for (std::uint32_t idx : cand.seen_lists) {
      if (idx >= lists_.size()) {
        throw CheckpointError(
            "corrupt checkpoint: NRA candidate references an unknown list");
      }
    }
  }
}

std::vector<RankedItem> IncrementalNra::TopK() const {
  // Display tail: bound from the lists scanned so far (unscanned lists
  // cannot be accounted; Converged() is what certifies finality).
  std::uint64_t tail = 0;
  for (const List& list : lists_) {
    if (!list.Exhausted() && list.last_seen != kUnknown) tail += list.last_seen;
  }
  std::vector<RankedItem> ranked;
  ranked.reserve(candidates_.size());
  for (const auto& [item, cand] : candidates_) {
    ranked.push_back(RankedItem{item, cand.worst, BestCase(cand, tail)});
  }
  auto before = [](const RankedItem& a, const RankedItem& b) {
    if (a.worst != b.worst) return a.worst > b.worst;
    if (a.best != b.best) return a.best > b.best;
    return a.item < b.item;
  };
  std::sort(ranked.begin(), ranked.end(), before);
  if (ranked.size() > static_cast<std::size_t>(k_)) {
    ranked.resize(static_cast<std::size_t>(k_));
  }
  return ranked;
}

}  // namespace p3q
