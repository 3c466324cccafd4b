// Per-query lifecycle tracking for the open-loop serving harness.
//
// Every open-loop query is registered at issue time with its issue cycle
// and the centralized reference captured then (the same issue-time-snapshot
// convention as the scenario runner's closed-loop queries). After each
// eager cycle the tracker polls its open queries in ascending id order —
// deterministic regardless of thread count — and records into a
// QueryLatencyStats accumulator:
//
//   - time to first result: the cycle the first REMOTE partial result
//     reached the querier (ActiveQuery::first_result_cycle);
//   - completion latency: the first cycle at which the query's current
//     top-k reaches the recall target against its reference, or the eager
//     mode finalized it (no remaining list anywhere), whichever is first.
//
// Completed queries are released (P3QSystem::ForgetQuery) so thousands can
// flow through a long timeline without accumulating state; queries still
// open when the run ends are counted as abandoned.
#ifndef P3Q_SERVING_LIFECYCLE_H_
#define P3Q_SERVING_LIFECYCLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "sim/metrics.h"

namespace p3q {

class P3QSystem;
class CheckpointWriter;
class CheckpointReader;

/// Tracks open-loop queries from issue to completion across phase
/// boundaries; one instance per scenario run.
class ServingTracker {
 public:
  /// slo_cycles / recall_target: the serving SLO (ArrivalSpec's knobs).
  ServingTracker(std::uint64_t slo_cycles, double recall_target);
  /// An empty tracker for LoadState to fill.
  ServingTracker() = default;

  /// Registers a query issued at serving cycle `cycle` with the
  /// centralized reference captured at issue time, and counts it into
  /// `stats`. A query already complete at issue (the querier's own stored
  /// profiles answered it) is recorded with latency 0 and not tracked.
  void Track(P3QSystem* system, std::uint64_t query_id, std::uint64_t cycle,
             std::vector<ItemId> reference, QueryLatencyStats* stats);

  /// Polls every open query after the eager cycle that ended at serving
  /// cycle `cycle`: records first results and completions into `stats` and
  /// releases completed queries. Deterministic: ascending query-id order.
  void Poll(P3QSystem* system, std::uint64_t cycle, QueryLatencyStats* stats);

  /// End of run at serving cycle `cycle`: every still-open query is counted
  /// as abandoned and released.
  void Abandon(P3QSystem* system, std::uint64_t cycle,
               QueryLatencyStats* stats);

  /// Queries currently in flight.
  std::size_t open() const { return open_.size(); }

  std::uint64_t slo_cycles() const { return slo_cycles_; }

  /// Serializes the SLO knobs and every open query into a checkpoint.
  void SaveState(CheckpointWriter* out) const;

  /// Restores state written by SaveState, replacing current contents.
  void LoadState(CheckpointReader* in);

 private:
  struct OpenQuery {
    std::uint64_t issue_cycle = 0;
    UserId querier = kInvalidUser;
    bool first_result_recorded = false;
    std::vector<ItemId> reference;
  };

  /// True when the query's latest top-k reaches the recall target.
  bool MeetsRecallTarget(const P3QSystem& system, std::uint64_t query_id,
                         const OpenQuery& open) const;

  std::uint64_t slo_cycles_ = 0;
  double recall_target_ = 1.0;
  /// Ordered by query id so polling order is deterministic.
  std::map<std::uint64_t, OpenQuery> open_;
};

}  // namespace p3q

#endif  // P3Q_SERVING_LIFECYCLE_H_
