#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "eval/metrics_eval.h"
#include "eval/recall.h"
#include "serving/lifecycle.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// A query in flight plus the centralized reference captured at issue time.
struct OpenQuery {
  std::uint64_t id = 0;
  std::vector<ItemId> reference;

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.id...);
    f(s.reference...);
  }
};

/// A traced run's tracer position — event numbering and per-kind counts —
/// plus the counts the current phase started from.
struct TraceCursor {
  std::uint64_t next_seq = 0;
  Tracer::KindCounts counts{};
  Tracer::KindCounts phase_start{};

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.next_seq...);
    f(s.counts...);
    f(s.phase_start...);
  }
};

/// Everything the runner carries from one timeline cycle to the next, in
/// the order a checkpoint's runner section stores it. A straight run starts
/// from a fresh state; a resumed run reads it from the snapshot — the phase
/// loop cannot tell the two apart. A new piece of runner state is declared
/// here and listed once in Fields, which both the save and the load walk.
struct RunState {
  /// Closed phases; the current phase's index is phases.size().
  std::vector<PhaseReport> phases;
  std::uint64_t cycle = 0;          ///< cycles the current phase has run
  std::uint64_t serving_cycle = 0;  ///< global timeline cycle, across phases
  /// Workload randomness (querier choice, duty sampling, update batches).
  Rng workload_rng;
  /// Open-loop querier choice: its own stream, so enabling the serving
  /// harness never perturbs the closed-loop workload stream (arrival
  /// counts have yet another, arrival_rng).
  Rng serving_rng;
  /// Created at the first serving phase, which also fixes the run's SLO.
  std::optional<ServingTracker> tracker;
  bool open_loop = false;
  std::uint64_t slo_cycles = 0;
  QueryLatencyStats serving_stats;

  // The current phase: its arrival draws, partial counts and open queries,
  // and the counters its report is a delta of.
  std::optional<Rng> arrival_rng;  ///< set while the phase serves arrivals
  std::uint64_t departures = 0;
  std::uint64_t rejoins = 0;
  int queries_issued = 0;
  Metrics traffic_before;
  DeliveryStats delivery_before;
  QueryLatencyStats serving_before;
  std::optional<TraceCursor> trace;  ///< set in traced runs
  double online_cycle_sum = 0;  ///< Σ over cycles of online users (work rate)
  std::vector<OpenQuery> open;

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.phases...);
    f(s.cycle...);
    f(s.serving_cycle...);
    f(s.workload_rng...);
    f(s.serving_rng...);
    f(s.tracker...);
    f(s.open_loop...);
    f(s.slo_cycles...);
    f(s.serving_stats...);
    f(s.arrival_rng...);
    f(s.departures...);
    f(s.rejoins...);
    f(s.queries_issued...);
    f(s.traffic_before...);
    f(s.delivery_before...);
    f(s.serving_before...);
    f(s.trace...);
    f(s.online_cycle_sum...);
    f(s.open...);
  }
};

}  // namespace

template <>
struct CheckpointTraits<LatencyKind> {
  static constexpr LatencyKind kLast = LatencyKind::kLossy;
  static constexpr const char* kNoun = "latency model kind";
};
template <>
struct CheckpointTraits<ArrivalKind> {
  static constexpr ArrivalKind kLast = ArrivalKind::kTrace;
  static constexpr const char* kNoun = "arrival-process kind";
};
template <>
struct CheckpointTraits<SimilarityMetric> {
  static constexpr SimilarityMetric kLast = SimilarityMetric::kOverlap;
  static constexpr const char* kNoun = "similarity metric";
};

namespace {

/// Scales a phase-relative cycle offset so events keep their position when
/// the whole timeline is stretched or compressed.
std::uint64_t ScaleOffset(std::uint64_t at_cycle, double cycle_scale,
                          std::uint64_t scaled_cycles) {
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<double>(at_cycle) * cycle_scale);
  return std::min(scaled, scaled_cycles - 1);
}

/// Process peak RSS in MiB (0 where getrusage is unavailable). Linux
/// reports ru_maxrss in KiB, macOS in bytes.
double PeakRssMb() {
#if defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#elif defined(__unix__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return 0;
#endif
}

/// Issues one query from a uniformly random online user with a non-empty
/// profile and returns it with its issue-time centralized reference;
/// nothing when no attempt produced a usable query. Queries draw from the
/// user's ORIGINAL (version-0) actions — the paper generates the whole
/// query workload from the initial trace — which the store keeps reachable
/// across updates (RetainOriginals).
std::optional<OpenQuery> IssueQuery(P3QSystem* system,
                                    const std::vector<UserId>& online,
                                    Rng* rng) {
  if (online.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const UserId u = online[rng->NextUint64(online.size())];
    QuerySpec spec = GenerateQueryForUser(
        system->profile_store().OriginalActionsOf(u), u, rng);
    if (spec.tags.empty()) continue;
    OpenQuery q;
    q.reference = ReferenceTopK(*system, spec, system->config().top_k);
    q.id = system->IssueQuery(spec);
    return q;
  }
  return std::nullopt;
}

/// The arrival process a phase actually serves: the CLI override wins, then
/// the phase's own block, then the scenario default; lazy phases never
/// serve (no eager cycles run, so nothing could ever complete).
const ArrivalSpec& EffectiveArrivals(const Scenario& scenario,
                                     const ScenarioPhase& phase,
                                     const ScenarioRunnerOptions& options) {
  static const ArrivalSpec kNone;
  if (phase.mode == PhaseMode::kLazy) return kNone;
  if (options.arrivals.has_value()) return *options.arrivals;
  if (phase.arrivals.has_value()) return *phase.arrivals;
  return scenario.arrivals;
}

/// Phase cycle budget after applying --cycle-scale (every phase keeps >= 1).
std::uint64_t ScaledCycles(const ScenarioPhase& phase, double cycle_scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             static_cast<double>(phase.cycles) * cycle_scale)));
}

/// The run identity a checkpoint opens with, as one field list: calls `f`
/// with each field's name and that field of every `info`. It drives the
/// header codec and the resume check alike.
template <typename F, typename... Info>
void RunHeaderFields(F&& f, Info&... info) {
  f("scenario", info.scenario...);
  f("users", info.options.users...);
  f("seed", info.options.seed...);
  f("cycle_scale", info.options.cycle_scale...);
  f("network_size", info.options.network_size...);
  f("stored_profiles", info.options.stored_profiles...);
  f("alpha", info.options.alpha...);
  f("top_k", info.options.top_k...);
  f("similarity", info.options.similarity...);
  f("latency", *info.options.latency...);
  f("arrivals", info.options.arrivals...);
}

CheckpointRunInfo ReadRunHeader(CheckpointReader* in) {
  CheckpointRunInfo info;
  info.options.latency.emplace();
  RunHeaderFields([in](const char*, auto& field) { in->Get(&field); }, info);
  in->Sentinel("run header");
  return info;
}

/// How a resume-mismatch message prints a run-header field.
std::string Show(const std::string& s) { return s; }
std::string Show(SimilarityMetric metric) {
  return SimilarityMetricName(metric);
}
std::string Show(const LatencySpec& latency) { return latency.Name(); }
std::string Show(const std::optional<ArrivalSpec>& arrivals) {
  return arrivals.has_value() ? arrivals->Name() : "none";
}
template <typename Number>
std::string Show(Number n) {
  return std::to_string(n);
}

/// Throws a CheckpointError naming the first identity field the resuming
/// run sets differently from what the snapshot was written with.
void VerifyResumeHeader(const CheckpointRunInfo& saved,
                        const CheckpointRunInfo& now) {
  RunHeaderFields(
      [](const char* name, const auto& was, const auto& is) {
        if (was == is) return;
        throw CheckpointError("checkpoint was written with " +
                              std::string(name) + " = " + Show(was) +
                              " but this run uses " + Show(is) +
                              "; resume with matching options");
      },
      saved, now);
}

/// Snapshots the whole run — identity header, system, runner state — into
/// `path`.
void WriteRunCheckpoint(const std::string& path,
                        const CheckpointRunInfo& identity,
                        const P3QSystem& system, const RunState& state) {
  CheckpointWriter payload;
  RunHeaderFields(
      [&payload](const char*, const auto& field) { payload.Put(field); },
      identity);
  payload.Sentinel();
  system.SaveCheckpoint(&payload);
  payload.Put(state);
  payload.Sentinel();
  WriteCheckpointFile(path, payload);
}

/// Starts the phase after the closed ones: no cycles run, no partial
/// counts or open queries, and fresh snapshots of the counters the phase's
/// report is a delta of.
void OpenPhase(const P3QSystem& system, const Tracer* tracer,
               RunState* state) {
  state->cycle = 0;
  state->arrival_rng.reset();  // the phase's ArrivalProcess seeds its own
  state->departures = 0;
  state->rejoins = 0;
  state->queries_issued = 0;
  state->traffic_before = system.network().metrics().Snapshot();
  state->delivery_before = system.DeliveryStatsTotal();
  state->serving_before = state->serving_stats;
  if (tracer != nullptr) state->trace->phase_start = tracer->counts();
  state->online_cycle_sum = 0;
  state->open.clear();
}

/// Emits one node_departed / node_rejoined event per user at the timeline
/// cycle; no-op without a tracer.
void TraceLiveness(Tracer* tracer, TraceEventKind kind, std::uint64_t cycle,
                   const std::vector<UserId>& users) {
  if (tracer == nullptr) return;
  for (UserId u : users) {
    TraceEvent event;
    event.cycle = cycle;
    event.kind = kind;
    event.node = u;
    tracer->Emit(event);
  }
}

ScenarioReport RunScenarioTimeline(const Scenario& scenario,
                                   const ScenarioRunnerOptions& options) {
  if (const std::string problem = scenario.Validate(); !problem.empty()) {
    throw std::invalid_argument("scenario '" + scenario.name +
                                "': " + problem);
  }
  if (options.users < 1) {
    throw std::invalid_argument("ScenarioRunnerOptions: users must be >= 1");
  }
  if (!(options.cycle_scale > 0)) {
    throw std::invalid_argument(
        "ScenarioRunnerOptions: cycle_scale must be > 0");
  }
  if (options.threads < 0) {
    throw std::invalid_argument(
        "ScenarioRunnerOptions: threads must be >= 0 (0 = inherit)");
  }

  P3QConfig config;
  // The paper's default s = users/10 is fine at experiment scale but would
  // mean 100k-entry personal networks at a million users; past the largest
  // golden scale the default saturates at 500 (users <= 5000 keep the
  // historical value exactly, so existing reports are unchanged).
  config.network_size = options.network_size > 0
                            ? options.network_size
                            : std::min(std::max(10, options.users / 10), 500);
  config.stored_profiles =
      std::min(options.stored_profiles, config.network_size);
  config.alpha = options.alpha;
  config.top_k = options.top_k;
  config.similarity = options.similarity;
  config.eager_gossip_budget = scenario.eager_gossip_budget;
  if (const std::string problem = config.Validate(); !problem.empty()) {
    throw std::invalid_argument("ScenarioRunnerOptions: " + problem);
  }

  // Stream the synthetic trace straight into the profile store, one user at
  // a time: each action vector is packed into an arena-backed snapshot and
  // dropped, so setup memory is O(one profile) beyond the store itself —
  // the trace is never materialized. The store keeps each updated user's
  // original actions aside (RetainOriginals) because the query workload and
  // update batches keep drawing against the initial trace.
  SyntheticTraceStream stream(SyntheticConfig::DeliciousLike(options.users),
                              options.seed);
  ProfileStore store;
  store.RetainOriginals(true);
  while (!stream.Done()) {
    const UserId u = stream.next_user();
    store.AddUser(u, stream.NextUserActions(), config.digest_bits);
  }

  P3QSystem system(std::move(store), config, /*per_user_storage=*/{},
                   options.seed);
  const ActionsView original_actions = [&system](UserId u) {
    return system.profile_store().OriginalActionsOf(u);
  };
  if (options.threads > 0) system.SetThreads(options.threads);
  // The CLI override wins over the scenario's own latency block; the
  // default is ZeroLatency (byte-identical to the synchronous engine).
  const LatencySpec latency = options.latency.value_or(scenario.latency);
  system.SetLatency(latency);
  system.SetTracer(options.tracer);
  system.SetProfiler(options.profiler);
  Tracer* const tracer = options.tracer;
  const bool resuming = !options.resume_path.empty();
  // A resumed run restores every view/network/rng below, so the bootstrap
  // draws would be overwritten anyway — skip the work.
  if (!resuming) system.BootstrapRandomViews();

  // The checkpoint fires at the top of timeline cycle K, before K's events
  // — so a resumed run fires them exactly once.
  const bool want_checkpoint = options.checkpoint_at.has_value();
  if (want_checkpoint) {
    std::uint64_t total_scaled = 0;
    for (const ScenarioPhase& phase : scenario.phases) {
      total_scaled += ScaledCycles(phase, options.cycle_scale);
    }
    if (options.checkpoint_path.empty()) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at requires checkpoint_path");
    }
    if (*options.checkpoint_at >= total_scaled) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at " +
          std::to_string(*options.checkpoint_at) +
          " is past the scaled timeline (" + std::to_string(total_scaled) +
          " cycles)");
    }
  }
  bool checkpoint_written = false;
  CheckpointRunInfo identity{scenario.name, options};
  identity.options.latency = latency;

  RunState state;
  if (resuming) {
    const std::vector<std::uint8_t> payload =
        ReadCheckpointPayload(options.resume_path);
    CheckpointReader in(payload.data(), payload.size());
    VerifyResumeHeader(ReadRunHeader(&in), identity);
    system.LoadCheckpoint(&in);
    in.Get(&state);
    in.Sentinel("runner");
    in.ExpectEnd();
    if (state.phases.size() >= scenario.phases.size()) {
      throw CheckpointError(
          "checkpoint resume position is past the end of the timeline");
    }
    const ScenarioPhase& phase = scenario.phases[state.phases.size()];
    if (state.cycle >= ScaledCycles(phase, options.cycle_scale)) {
      throw CheckpointError("checkpoint resume position is past the phase end");
    }
    if (state.arrival_rng.has_value() ==
        EffectiveArrivals(scenario, phase, options).IsNone()) {
      throw CheckpointError(
          "checkpoint arrival-process state does not match the scenario's "
          "phase");
    }
    // The snapshot's trace cursor applies only when this run is traced too.
    if (tracer == nullptr) {
      state.trace.reset();
    } else if (state.trace.has_value()) {
      // Continue the straight run's event numbering: a resumed JSONL trace
      // is a byte-suffix of the full trace.
      tracer->RestoreCursor(state.trace->next_seq, state.trace->counts);
    } else {
      state.trace.emplace().phase_start = tracer->counts();
    }
  } else {
    // Workload and serving randomness fork off the master seed,
    // decorrelated from the system's own stream.
    state.workload_rng =
        Rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    state.serving_rng =
        Rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x8a5cd789635d2dffULL);
    if (tracer != nullptr) state.trace.emplace();
    OpenPhase(system, tracer, &state);
  }
  if (want_checkpoint && *options.checkpoint_at < state.serving_cycle) {
    throw std::invalid_argument(
        "ScenarioRunnerOptions: checkpoint_at " +
        std::to_string(*options.checkpoint_at) +
        " is before the resume position (" +
        std::to_string(state.serving_cycle) + ")");
  }

  // The ideal networks the success ratio compares against; recomputed only
  // when an update storm changed the profiles.
  IdealNetworks ideal;
  bool ideal_dirty = true;

  for (std::size_t phase_index = state.phases.size();
       phase_index < scenario.phases.size(); ++phase_index) {
    const ScenarioPhase& phase = scenario.phases[phase_index];
    const std::uint64_t cycles = ScaledCycles(phase, options.cycle_scale);

    const ArrivalSpec& phase_arrivals =
        EffectiveArrivals(scenario, phase, options);
    std::optional<ArrivalProcess> arrival_process;
    if (!phase_arrivals.IsNone()) {
      if (!state.tracker.has_value()) {
        // The SLO/recall target of the run come from the first serving
        // phase; later phases may change the rate but not the target.
        state.tracker.emplace(phase_arrivals.slo_cycles,
                              phase_arrivals.recall_target);
        state.open_loop = true;
        state.slo_cycles = phase_arrivals.slo_cycles;
      }
      arrival_process.emplace(phase_arrivals, options.seed + phase_index);
      if (state.arrival_rng.has_value()) {
        arrival_process->rng() = *state.arrival_rng;
      }
    }
    std::map<std::string, PhaseBreakdown> profile_before;
    if (options.profiler != nullptr) {
      profile_before = options.profiler->Snapshot();
    }
    // Closed-loop queries: tracked by the phase, sampled at its end.
    const auto issue_queries = [&](int count) {
      const std::vector<UserId> online = system.network().OnlineUsers();
      for (int i = 0; i < count; ++i) {
        if (std::optional<OpenQuery> q =
                IssueQuery(&system, online, &state.workload_rng)) {
          state.open.push_back(std::move(*q));
          ++state.queries_issued;
        }
      }
    };

    const auto wall_start = std::chrono::steady_clock::now();
    for (; state.cycle < cycles; ++state.cycle) {
      const std::uint64_t cycle = state.cycle;
      // 0. Checkpoint — taken at the top of the timeline cycle, BEFORE this
      // cycle's events fire, so the resumed run fires them exactly once.
      if (want_checkpoint && !checkpoint_written &&
          state.serving_cycle == *options.checkpoint_at) {
        if (tracer != nullptr) {
          state.trace->next_seq = tracer->accepted();
          state.trace->counts = tracer->counts();
        }
        if (arrival_process.has_value()) {
          state.arrival_rng = arrival_process->rng();
        }
        WriteRunCheckpoint(options.checkpoint_path, identity, system, state);
        checkpoint_written = true;
      }

      // 1. Scheduled events.
      for (const ScenarioEvent& event : phase.events) {
        if (ScaleOffset(event.at_cycle, options.cycle_scale, cycles) != cycle) {
          continue;
        }
        switch (event.kind) {
          case EventKind::kDeparture: {
            const std::vector<UserId> departed =
                system.FailRandomFraction(event.fraction);
            state.departures += departed.size();
            TraceLiveness(tracer, TraceEventKind::kNodeDeparted,
                          state.serving_cycle, departed);
            break;
          }
          case EventKind::kRejoin: {
            const std::vector<UserId> rejoined =
                system.RejoinRandomFraction(event.fraction);
            state.rejoins += rejoined.size();
            TraceLiveness(tracer, TraceEventKind::kNodeRejoined,
                          state.serving_cycle, rejoined);
            break;
          }
          case EventKind::kQueryBurst:
            issue_queries(event.count);
            break;
          case EventKind::kUpdateStorm: {
            const UpdateBatch batch = stream.MakeUpdateBatch(
                event.update, &state.workload_rng, original_actions);
            system.ApplyUpdateBatch(batch);
            ideal_dirty = true;
            break;
          }
        }
      }

      // 2. Duty-cycle liveness: depart/rejoin users to track the target
      // online fraction.
      if (phase.duty) {
        const double target =
            std::clamp(phase.duty(cycle, cycles), 0.0, 1.0);
        const auto target_online = static_cast<std::size_t>(std::llround(
            target * static_cast<double>(system.NumUsers())));
        const std::size_t current = system.network().NumOnline();
        if (current > target_online) {
          const std::vector<UserId> leaving =
              state.workload_rng.SampleWithoutReplacement(
                  system.network().OnlineUsers(), current - target_online);
          for (UserId u : leaving) system.FailUser(u);
          state.departures += leaving.size();
          TraceLiveness(tracer, TraceEventKind::kNodeDeparted,
                        state.serving_cycle, leaving);
        } else if (current < target_online) {
          std::vector<UserId> back =
              state.workload_rng.SampleWithoutReplacement(
                  system.network().OfflineUsers(), target_online - current);
          std::sort(back.begin(), back.end());
          for (UserId u : back) system.RejoinUser(u);
          state.rejoins += back.size();
          TraceLiveness(tracer, TraceEventKind::kNodeRejoined,
                        state.serving_cycle, back);
        }
      }

      // 3. Background query workload.
      if (phase.queries_per_cycle > 0) issue_queries(phase.queries_per_cycle);

      // 4. Open-loop arrivals (the serving workload rides the same cycle as
      // the closed-loop background queries, but is tracked to completion).
      if (arrival_process.has_value()) {
        const int n = arrival_process->ArrivalsAt(cycle);
        if (n > 0) {
          const std::vector<UserId> online = system.network().OnlineUsers();
          for (int i = 0; i < n; ++i) {
            if (std::optional<OpenQuery> q =
                    IssueQuery(&system, online, &state.serving_rng)) {
              state.tracker->Track(&system, q->id, state.serving_cycle,
                                   std::move(q->reference),
                                   &state.serving_stats);
            }
          }
        }
      }

      // 5. Protocol cycles.
      state.online_cycle_sum +=
          static_cast<double>(system.network().NumOnline());
      switch (phase.mode) {
        case PhaseMode::kLazy:
          system.RunLazyCycles(1);
          break;
        case PhaseMode::kEager:
          system.RunEagerCycles(1);
          break;
        case PhaseMode::kMixed:
          system.RunLazyCycles(1);
          system.RunEagerCycles(1);
          break;
      }

      // 6. Serving lifecycle: poll open queries for first results and
      // completions (a query issued this cycle completing right after its
      // first eager cycle scores latency 1; latency 0 is issue-time-local
      // completion inside Track).
      ++state.serving_cycle;
      if (state.tracker.has_value() && state.tracker->open() > 0) {
        state.tracker->Poll(&system, state.serving_cycle, &state.serving_stats);
      }

      // 7. Progress heartbeat (stderr only; stdout reports are sacred).
      if (options.progress_every > 0 &&
          state.serving_cycle % options.progress_every == 0) {
        std::fprintf(stderr,
                     "p3q_sim: phase %s cycle %llu/%llu (timeline %llu), "
                     "%zu queries open, %zu messages in flight\n",
                     phase.name.c_str(),
                     static_cast<unsigned long long>(cycle + 1),
                     static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(state.serving_cycle),
                     state.tracker.has_value() ? state.tracker->open()
                                               : std::size_t{0},
                     system.MessagesInFlight());
      }
    }
    const auto wall_end = std::chrono::steady_clock::now();

    PhaseReport pr;
    pr.name = phase.name;
    pr.mode = PhaseModeName(phase.mode);
    pr.cycles = cycles;
    if (arrival_process.has_value()) pr.arrivals = phase_arrivals.Name();
    pr.departures = state.departures;
    pr.rejoins = state.rejoins;
    pr.queries_issued = state.queries_issued;

    // Phase boundary: sample every query issued during the phase against
    // its centralized reference, then release it.
    double recall_sum = 0, coverage_sum = 0;
    for (const OpenQuery& q : state.open) {
      const ActiveQuery& query = system.query(q.id);
      recall_sum += RecallAtK(query.CurrentTopKItems(), q.reference);
      coverage_sum +=
          query.expected_profiles() == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(query.NumUsedProfiles()) /
                                  static_cast<double>(
                                      query.expected_profiles()));
      if (system.QueryComplete(q.id)) ++pr.queries_completed;
      system.ForgetQuery(q.id);
    }
    if (pr.queries_issued > 0) {
      pr.avg_recall = recall_sum / pr.queries_issued;
      pr.avg_coverage = coverage_sum / pr.queries_issued;
    }

    if (ideal_dirty) {
      // The exact baseline is O(users^2) similarity scores; past experiment
      // scale the success ratio is estimated over a deterministic user
      // sample instead (non-sampled users keep empty ideal lists, which
      // AverageSuccessRatio skips). Scales <= the gate — every golden —
      // keep the exact computation.
      constexpr std::size_t kIdealExactLimit = 20000;
      constexpr std::size_t kIdealSampleSize = 512;
      ideal = system.NumUsers() > kIdealExactLimit
                  ? ComputeIdealNetworksSampled(
                        system.profile_store(), config.network_size,
                        kIdealSampleSize, options.seed, config.similarity)
                  : ComputeIdealNetworks(system.profile_store(),
                                         config.network_size,
                                         config.similarity);
      ideal_dirty = false;
    }
    pr.success_ratio = AverageSuccessRatio(system, ideal);
    pr.online_at_end = system.network().NumOnline();
    pr.traffic = system.metrics().Since(state.traffic_before);
    pr.delivery = system.DeliveryStatsTotal().Since(state.delivery_before);
    pr.in_flight_at_end = system.MessagesInFlight();
    pr.query_latency = state.serving_stats.Since(state.serving_before);
    pr.open_queries_at_end =
        state.tracker.has_value() ? state.tracker->open() : 0;
    if (tracer != nullptr) {
      const Tracer::KindCounts& now = tracer->counts();
      for (std::size_t i = 0; i < now.size(); ++i) {
        pr.trace_events[i] = MonotoneDelta(now[i], state.trace->phase_start[i]);
      }
    }
    if (options.profiler != nullptr) {
      for (const auto& [label, breakdown] : options.profiler->breakdowns()) {
        pr.profile[label] = breakdown.Since(profile_before[label]);
      }
    }

    pr.timing.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    pr.timing.threads = system.threads();
    if (pr.timing.wall_seconds > 0) {
      pr.timing.cycles_per_sec =
          static_cast<double>(cycles) / pr.timing.wall_seconds;
      pr.timing.user_cycles_per_sec =
          state.online_cycle_sum / pr.timing.wall_seconds;
      pr.timing.queries_per_sec =
          static_cast<double>(pr.query_latency.completed) /
          pr.timing.wall_seconds;
      pr.timing.slo_queries_per_sec =
          static_cast<double>(pr.query_latency.completed_within_slo) /
          pr.timing.wall_seconds;
    }
    state.phases.push_back(std::move(pr));
    OpenPhase(system, tracer, &state);
  }

  // Queries still open when the timeline ends never completed: count them
  // as abandoned in the run totals (the per-phase deltas are already
  // closed, so no phase claims them as completions).
  if (state.tracker.has_value()) {
    state.tracker->Abandon(&system, state.serving_cycle, &state.serving_stats);
  }

  ScenarioReport report;
  report.scenario = scenario.name;
  report.description = scenario.description;
  report.seed = options.seed;
  report.users = stream.num_users();
  report.network_size = config.network_size;
  report.stored_profiles = config.stored_profiles;
  report.top_k = config.top_k;
  report.alpha = config.alpha;
  report.latency = latency;
  report.traced = tracer != nullptr;
  report.profiled = options.profiler != nullptr;
  report.open_loop = state.open_loop;
  report.slo_cycles = state.slo_cycles;
  report.phases = std::move(state.phases);
  double online_weighted = 0;
  for (const PhaseReport& pr : report.phases) {
    report.total_cycles += pr.cycles;
    report.total_departures += pr.departures;
    report.total_rejoins += pr.rejoins;
    report.total_queries_issued += pr.queries_issued;
    report.total_queries_completed += pr.queries_completed;
    report.total_timing.wall_seconds += pr.timing.wall_seconds;
    online_weighted += pr.timing.user_cycles_per_sec * pr.timing.wall_seconds;
  }
  report.total_query_latency = state.serving_stats;
  report.total_traffic = system.metrics().Snapshot();
  report.total_delivery = system.DeliveryStatsTotal();
  // Whole-run rollups are read AFTER Abandon so end-of-run query_abandoned
  // events are included (they land past the last phase's delta).
  if (tracer != nullptr) report.total_trace_events = tracer->counts();
  if (options.profiler != nullptr) {
    report.total_profile = options.profiler->Snapshot();
  }
  const SystemMemoryStats mem = system.MemoryStats();
  report.memory.arena_reserved_bytes = mem.store.arena.reserved_bytes;
  report.memory.arena_used_bytes = mem.store.arena.used_bytes;
  report.memory.arena_slabs = mem.store.arena.slabs;
  report.memory.arena_live_blocks = mem.store.arena.live_blocks;
  report.memory.arena_recycled_slabs = mem.store.arena.recycled_slabs;
  report.memory.pool_hits = mem.store.pool_hits;
  report.memory.pool_misses = mem.store.pool_misses;
  report.memory.peak_pending_depth = mem.store.peak_pending_depth;
  report.memory.pair_cache_entries = mem.pair_cache_entries;
  report.memory.pair_cache_evictions = mem.pair_cache_evictions;
  report.memory.peak_rss_mb = PeakRssMb();

  report.total_timing.threads = system.threads();
  if (report.total_timing.wall_seconds > 0) {
    report.total_timing.cycles_per_sec =
        static_cast<double>(report.total_cycles) /
        report.total_timing.wall_seconds;
    report.total_timing.user_cycles_per_sec =
        online_weighted / report.total_timing.wall_seconds;
    report.total_timing.queries_per_sec =
        static_cast<double>(report.total_query_latency.completed) /
        report.total_timing.wall_seconds;
    report.total_timing.slo_queries_per_sec =
        static_cast<double>(report.total_query_latency.completed_within_slo) /
        report.total_timing.wall_seconds;
  }
  return report;
}

}  // namespace

CheckpointRunInfo ReadScenarioCheckpointInfo(const std::string& path) {
  const std::vector<std::uint8_t> payload = ReadCheckpointPayload(path);
  CheckpointReader in(payload.data(), payload.size());
  return ReadRunHeader(&in);
}

ScenarioReport RunScenario(const Scenario& scenario,
                           const ScenarioRunnerOptions& options) {
  try {
    return RunScenarioTimeline(scenario, options);
  } catch (...) {
    // Flight recorder: when any part of the timeline throws, dump the last
    // N buffered events before propagating (idempotent — the engine may
    // already have dumped for an engine-level throw).
    if (options.tracer != nullptr) options.tracer->DumpRing();
    throw;
  }
}

}  // namespace p3q
