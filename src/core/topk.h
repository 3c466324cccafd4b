// Incremental NRA top-k over asynchronously arriving partial result lists
// (Section 2.3, Algorithm 4 of the paper).
//
// Classic NRA (Fagin's No Random Access) scans all ranked lists round-robin
// from the start. In P3Q the lists trickle in over gossip cycles, so the
// paper adapts it: each invocation scans the newly received lists from rank
// one with a global cursor, and lists parked in earlier invocations rejoin
// the sweep when the cursor reaches the position where they stopped — which
// guarantees every list is scanned at most once over the whole processing.
// Candidates carry a worst-case score (sum of the scores actually seen) and
// a best-case score (worst case plus the last-seen value of every active
// list the item has not appeared in); scanning stops when the k-th
// worst-case dominates every other candidate's best case.
#ifndef P3Q_CORE_TOPK_H_
#define P3Q_CORE_TOPK_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace p3q {

/// One candidate of the current top-k, with its NRA score interval.
struct RankedItem {
  ItemId item = kInvalidItem;
  std::uint64_t worst = 0;  ///< lower bound (sum of seen scores)
  std::uint64_t best = 0;   ///< upper bound

  /// The checkpoint field list (sim/checkpoint.h).
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.item...);
    f(s.worst...);
    f(s.best...);
  }
};

/// Incremental NRA accumulator.
///
/// Usage per gossip cycle: AddList() for every partial result received this
/// cycle, then Process() once, then TopK() for the refreshed answer.
class IncrementalNra {
 public:
  explicit IncrementalNra(int k = 1);

  /// Registers a partial result list: (item, score) pairs sorted by score
  /// descending. The list is scanned lazily by Process().
  void AddList(std::vector<std::pair<ItemId, std::uint32_t>> entries);

  /// Runs Algorithm 4: sweeps positions until the stop condition holds or
  /// every known list is exhausted. Returns the number of list entries
  /// consumed by this invocation.
  std::size_t Process();

  /// Consumes every remaining entry of every list, making worst == best ==
  /// exact for all candidates (used at query completion and by tests).
  std::size_t DrainAll();

  /// Current top-k, ranked by worst-case score (ties: higher best case,
  /// then smaller item id). May return fewer than k items early on.
  std::vector<RankedItem> TopK() const;

  /// True when the stop condition currently holds (top-k provably final
  /// given the lists seen so far).
  bool Converged() const;

  int k() const { return static_cast<int>(k_); }
  std::size_t num_lists() const { return lists_.size(); }
  std::size_t num_candidates() const { return candidates_.size(); }
  /// Total list entries consumed since construction (scan-depth metric).
  std::size_t total_entries_scanned() const { return total_scanned_; }

  /// The checkpoint field list (sim/checkpoint.h): the full accumulator
  /// state — lists with scan cursors, candidates, counters. The load hook
  /// rejects a cursor past its list's end and a candidate seen in a list
  /// that does not exist.
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.k_...);
    f(s.total_scanned_...);
    f(s.lists_...);
    f(s.candidates_...);
  }
  void FinishLoad() const;

 private:
  struct List {
    std::vector<std::pair<ItemId, std::uint32_t>> entries;
    std::size_t next_pos = 0;  ///< entries consumed so far
    /// Score of the last consumed entry; kUnknown until the first
    /// consumption (an unscanned list bounds nothing).
    std::uint64_t last_seen = kUnknown;
    bool Exhausted() const { return next_pos >= entries.size(); }

    template <typename F, typename... S>
    static void Fields(F&& f, S&... s) {
      f(s.entries...);
      f(s.next_pos...);
      f(s.last_seen...);
    }
  };
  struct Candidate {
    std::uint64_t worst = 0;
    std::vector<std::uint32_t> seen_lists;  ///< list ids item appeared in

    template <typename F, typename... S>
    static void Fields(F&& f, S&... s) {
      f(s.worst...);
      f(s.seen_lists...);
    }
  };

  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

  /// Sum of last_seen over active (scanned, non-exhausted) lists; kUnknown
  /// when some non-exhausted list has not been scanned yet.
  std::uint64_t ActiveTail() const;

  /// Exact best-case score of a candidate given the current tail sum.
  std::uint64_t BestCase(const Candidate& c, std::uint64_t tail) const;

  /// Evaluates the stop condition (worst of k-th >= every non-top-k best).
  bool StopConditionHolds() const;

  /// Consumes entry `pos` of list `idx`.
  void ConsumeEntry(std::uint32_t idx, std::size_t pos);

  std::uint32_t k_;  ///< >= 1
  std::vector<List> lists_;
  std::unordered_map<ItemId, Candidate> candidates_;
  std::size_t total_scanned_ = 0;
};

}  // namespace p3q

#endif  // P3Q_CORE_TOPK_H_
