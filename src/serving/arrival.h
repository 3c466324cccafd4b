// Open-loop query arrival processes for the serving harness.
//
// The scenario engine used to issue queries synchronously inside the cycle
// loop (closed loop: a new query only enters when the runner decides to
// inject one), which can never saturate the system — the standard
// serving-systems pitfall. An ArrivalSpec describes an OPEN-loop arrival
// process instead: queries enter at a configured rate regardless of how
// many are already in flight, so latency under concurrent load becomes
// measurable. Two families:
//
//   - poisson:R      Poisson(R) arrivals per cycle (memoryless, the
//                    standard open-loop model);
//   - trace:a,b,c    a cyclic per-cycle rate trace — cycle t draws
//                    Poisson(trace[t mod len]) arrivals, modelling diurnal
//                    or bursty demand curves.
//
// The spec also carries the serving SLO: a query "completes" when its
// result reaches `recall_target` recall against the centralized reference
// captured at issue time, or when the eager mode finalizes it (no remaining
// list anywhere); completion within `slo_cycles` cycles counts toward the
// queries/sec-at-SLO metric. Draws come from a dedicated seeded stream, so
// arrivals are deterministic in (spec, seed) and independent of the thread
// count like every other subsystem.
#ifndef P3Q_SERVING_ARRIVAL_H_
#define P3Q_SERVING_ARRIVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace p3q {

/// The built-in arrival-process families.
enum class ArrivalKind { kNone, kPoisson, kTrace };

/// Declarative description of an open-loop arrival process — what scenarios
/// embed (Scenario::arrivals / ScenarioPhase::arrivals) and the
/// --arrival-rate / --arrival-sweep CLI flags construct.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kNone;
  double rate = 0.0;          ///< kPoisson: mean arrivals per cycle
  std::vector<double> trace;  ///< kTrace: cyclic per-cycle rates
  /// Completion-latency SLO in cycles: a query completed within this many
  /// cycles of its arrival counts as served at SLO.
  std::uint64_t slo_cycles = 8;
  /// Recall@k against the issue-time centralized reference at which a query
  /// counts as complete even before the eager mode finalizes it (1.0 = the
  /// exact reference answer).
  double recall_target = 1.0;

  bool IsNone() const { return kind == ArrivalKind::kNone; }
  bool operator==(const ArrivalSpec&) const = default;

  /// Canonical compact form: "none", "poisson:3", "trace:1,4,2".
  /// Round-trips through ParseArrivalSpec (SLO/recall knobs excluded).
  std::string Name() const;

  /// Empty when well formed, else a description of the first problem.
  std::string Validate() const;

  /// The field list (checkpoint order): calls `f` once per field with that
  /// field of every `s`.
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.kind...);
    f(s.rate...);
    f(s.trace...);
    f(s.slo_cycles...);
    f(s.recall_target...);
  }
};

/// Parses "none" | "poisson:R" | "trace:A,B,C" into `spec` (slo_cycles and
/// recall_target keep their defaults). Returns an empty string on success,
/// else a human-readable error.
std::string ParseArrivalSpec(const std::string& text, ArrivalSpec* spec);

/// Draws the per-cycle arrival counts of one spec from a dedicated seeded
/// stream. Deterministic: equal (spec, seed) produce identical count
/// sequences regardless of what else the simulation draws.
class ArrivalProcess {
 public:
  /// Throws std::invalid_argument when the spec fails Validate().
  ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed);

  /// Number of queries arriving in `cycle` (the phase-relative offset for
  /// trace indexing). Always 0 for a kNone spec.
  int ArrivalsAt(std::uint64_t cycle);

  const ArrivalSpec& spec() const { return spec_; }

  /// Mutable draw stream — exposed so checkpoints can save/restore the
  /// cursor and keep resumed arrival sequences byte-identical.
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

 private:
  ArrivalSpec spec_;
  Rng rng_;
};

}  // namespace p3q

#endif  // P3Q_SERVING_ARRIVAL_H_
