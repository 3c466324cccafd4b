// Declarative timeline-driven workloads.
//
// The paper evaluates P3Q under a handful of fixed situations (converge then
// query, one massive departure, one update batch). A Scenario generalizes
// all of them: an ordered list of phases, each running a number of protocol
// cycles in one mode (lazy maintenance, eager querying, or both) with events
// scheduled at cycle offsets — churn waves (departures *and* rejoins),
// flash-crowd query bursts, profile-update storms — and optionally a duty
// cycle driving diurnal on/off availability. The runner (runner.h) drives a
// P3QSystem through the timeline and reports per-phase traffic, recall and
// throughput; the registry (registry.h) names the built-in scenarios.
#ifndef P3Q_SCENARIO_SCENARIO_H_
#define P3Q_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "serving/arrival.h"
#include "sim/delivery.h"

namespace p3q {

/// What runs during a phase's cycles.
enum class PhaseMode {
  kLazy,   ///< lazy maintenance cycles only (network construction)
  kEager,  ///< eager query cycles only (queries over frozen networks)
  kMixed,  ///< one lazy + one eager cycle per timeline cycle
};

/// Human-readable mode name ("lazy" / "eager" / "mixed").
const char* PhaseModeName(PhaseMode mode);

/// A scheduled workload event.
enum class EventKind {
  kDeparture,    ///< a fraction of currently-online users leaves
  kRejoin,       ///< a fraction of currently-offline users rejoins
  kQueryBurst,   ///< `count` queries issued at once (flash crowd)
  kUpdateStorm,  ///< a profile-update batch drawn from `update`
};

/// Human-readable event name ("departure" / "rejoin" / ...).
const char* EventKindName(EventKind kind);

/// One event on a phase's timeline, fired when the phase reaches `at_cycle`.
struct ScenarioEvent {
  std::uint64_t at_cycle = 0;  ///< offset within the phase (0 = first cycle)
  EventKind kind = EventKind::kDeparture;
  double fraction = 0.0;  ///< kDeparture / kRejoin: share of eligible users
  int count = 0;          ///< kQueryBurst: queries to issue
  UpdateConfig update{};  ///< kUpdateStorm: batch shape
};

/// Target online fraction as a function of (cycle offset, phase length).
/// The runner departs/rejoins users every cycle to track the target.
using DutyCycleFn =
    std::function<double(std::uint64_t cycle, std::uint64_t phase_cycles)>;

/// Always-on / always-reduced availability.
DutyCycleFn ConstantDuty(double fraction);

/// Diurnal availability: starts at `high`, dips cosinusoidally to `low` at
/// mid-phase and recovers to `high` by the end — one day/night/day wave.
DutyCycleFn DiurnalDuty(double high, double low);

/// One phase: a cycle budget, a mode, a background query workload, events at
/// cycle offsets and an optional duty cycle.
struct ScenarioPhase {
  std::string name;
  std::uint64_t cycles = 0;
  PhaseMode mode = PhaseMode::kLazy;
  /// Queries issued every cycle from random online users (eager/mixed).
  /// Closed-loop: the runner tracks each query to the phase end. Distinct
  /// from the open-loop `arrivals` workload below — both may run at once.
  int queries_per_cycle = 0;
  /// Open-loop arrivals for this phase only, overriding the scenario-level
  /// default (serving/arrival.h). Set to ArrivalSpec{} (kind kNone) to
  /// silence a scenario-level process for one phase.
  std::optional<ArrivalSpec> arrivals;
  std::vector<ScenarioEvent> events;
  DutyCycleFn duty;  ///< empty = liveness driven by events only
};

/// A named, ordered timeline of phases.
struct Scenario {
  std::string name;
  std::string description;
  /// Message-delivery latency model the whole timeline runs under
  /// (sim/delivery.h). The default ZeroLatency reproduces the synchronous
  /// engine byte for byte; non-zero models put every planned gossip effect
  /// in flight for whole cycles and surface delivery-lag statistics in the
  /// reports.
  LatencySpec latency;
  /// Open-loop query arrival process (serving/arrival.h) applied to every
  /// eager/mixed phase unless the phase overrides it. The default (kind
  /// kNone) keeps the scenario purely closed-loop — no serving harness, no
  /// latency blocks in the reports.
  ArrivalSpec arrivals;
  /// Per-node per-cycle cap on planned eager gossips (P3QConfig's
  /// eager_gossip_budget); 0 = unlimited. Finite budgets give the system a
  /// real service rate for open-loop saturation sweeps.
  int eager_gossip_budget = 0;
  std::vector<ScenarioPhase> phases;

  /// True when any phase runs an open-loop arrival process.
  bool HasArrivals() const;

  /// Sum of all phase cycle budgets.
  std::uint64_t TotalCycles() const;

  /// Returns an empty string when the timeline is well formed, else a
  /// human-readable description of the first problem (empty phases, events
  /// scheduled past the phase end, fractions outside [0, 1], ...).
  std::string Validate() const;
};

}  // namespace p3q

#endif  // P3Q_SCENARIO_SCENARIO_H_
