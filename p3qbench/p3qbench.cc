// p3qbench — the P3Q benchmark program.
//
// Runs one named workload (converge, query or churn; see README.md for why
// each exists) against the p3q library and prints its metrics, one JSON
// object on the last line of standard output:
//
//   p3qbench --workload query --seed 1 --seconds 15 --trace 0
//
// The benchmark calls P3QSystem and the dataset/baseline/eval functions itself,
// so it can time every public call from outside the library. Work is fixed
// per (workload, seed, --seconds): the number of timed cycles is derived from
// --seconds, never from the clock, so every deterministic output repeats
// exactly and is fingerprinted by the correctness gate.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "eval/metrics_eval.h"
#include "eval/recall.h"
#include "obs/profiler.h"
#include "sim/metrics.h"

namespace {

using p3q::IdealNetworks;
using p3q::ItemId;
using p3q::MessageType;
using p3q::Metrics;
using p3q::P3QSystem;
using p3q::Rng;
using p3q::UserId;
using Clock = std::chrono::steady_clock;

constexpr int kNumMessageTypes = static_cast<int>(MessageType::kCount);

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload's shape. Every workload uses a DeliciousLike trace with
/// s = users / 10 and c = 10.
struct Workload {
  std::string name;
  int users = 0;
  /// Install the ideal networks with SeedNetworks during setup.
  bool seeded = false;
  /// What one timed cycle runs.
  bool lazy = false;
  bool eager = false;
  /// Closed-loop queries kept in flight during the timed section (0: none).
  int in_flight = 0;
  /// Timed cycles per requested second (fixes the work, not the duration).
  double cycles_per_second = 0;
  /// Set-ups per run; setup_s is their median.
  int setups = 3;
  /// converge only: eager cycles of the closed-loop query probe run over the
  /// gossip-built networks after the timed section; converge's queries_per_s
  /// is over the probe's wall time.
  int probe_cycles = 0;
  int probe_in_flight = 0;
  /// churn only: every churn_period cycles a departure wave, half a period
  /// later a rejoin wave; every update_period cycles an update batch. The
  /// timed cycle count is a whole number of churn periods, so every departed
  /// user is back before the in-flight queries drain.
  int churn_period = 0;
  double fail_fraction = 0;
  double rejoin_fraction = 0;
  int update_period = 0;
  double update_fraction = 0;
};

/// Cycles a query may take before it counts as unfinished.
constexpr int kBudget = 30;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "converge") {
    w.users = 3000;
    w.lazy = true;
    w.cycles_per_second = 2.4;
    w.setups = 5;  // a sub-second set-up: more samples for its median
    w.probe_cycles = 50;
    w.probe_in_flight = 50;
  } else if (name == "query") {
    w.users = 2000;
    w.seeded = true;
    w.eager = true;
    w.in_flight = 50;
    w.cycles_per_second = 15.0;
  } else if (name == "churn") {
    w.users = 2000;
    w.seeded = true;
    w.lazy = true;
    w.eager = true;
    w.in_flight = 40;
    w.cycles_per_second = 7.0;
    w.churn_period = 10;
    w.fail_fraction = 0.02;
    w.rejoin_fraction = 1.0;
    w.update_period = 15;
    w.update_fraction = 0.05;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected converge, query or churn)");
  }
  return w;
}

/// The correctness gate's replica of a workload: same code paths, tiny scale.
Workload TinyReplica(Workload w) {
  w.users = 240;
  if (w.in_flight > 0) w.in_flight = 8;
  if (w.probe_in_flight > 0) w.probe_in_flight = 8;
  if (w.probe_cycles > 0) w.probe_cycles = 6;
  if (w.churn_period > 0) w.churn_period = 4;
  if (w.update_period > 0) w.update_period = 5;
  return w;
}
constexpr int kTinyCycles = 12;

// ---------------------------------------------------------------------------
// Call timing and spans
// ---------------------------------------------------------------------------

/// One timed public call. Spans of one pass share the pass label; `cycle` is
/// the timed-section cycle (-1 outside the cycle loop).
struct Span {
  std::string name;
  std::string pass;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::int64_t cycle = -1;
  std::uint64_t messages = 0;  ///< wire messages recorded during the call
  std::uint64_t bytes = 0;     ///< wire bytes recorded during the call
};

/// Times every call the benchmark makes into the library. Durations are always
/// accumulated per (pass, call name); with spans on, each call also leaves a
/// Span with its parent and traffic delta, kept in memory until the run ends.
class CallTimer {
 public:
  CallTimer(bool spans, Clock::time_point origin)
      : spans_on_(spans), origin_(origin) {}

  void SetPass(std::string pass) { pass_ = std::move(pass); }
  void SetSystem(const P3QSystem* system) { system_ = system; }

  template <typename F>
  decltype(auto) Call(const char* name, std::int64_t cycle, F&& fn) {
    Scope scope(this, name, cycle);
    return fn();
  }

  /// Durations (seconds) of every call named `name` in `pass`, in order.
  const std::vector<double>& Durations(const std::string& pass,
                                       const std::string& name) const {
    static const std::vector<double> kNone;
    const auto it = durations_.find({pass, name});
    return it == durations_.end() ? kNone : it->second;
  }
  double Total(const std::string& pass, const std::string& name) const {
    double sum = 0;
    for (double d : Durations(pass, name)) sum += d;
    return sum;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Wall time spent recording spans (the direct cost of tracing).
  double bookkeeping_s() const { return bookkeeping_s_; }

 private:
  class Scope {
   public:
    Scope(CallTimer* timer, const char* name, std::int64_t cycle)
        : timer_(timer), name_(name), start_(Clock::now()) {
      if (!timer_->spans_on_) return;
      const Clock::time_point enter = start_;
      Span span;
      span.name = name;
      span.pass = timer_->pass_;
      span.cycle = cycle;
      span.parent = timer_->open_.empty() ? -1 : timer_->open_.back();
      span.start = SecondsBetween(timer_->origin_, start_);
      if (timer_->system_ != nullptr) {
        before_ = timer_->system_->network().metrics().Snapshot();
      }
      index_ = static_cast<int>(timer_->spans_.size());
      timer_->spans_.push_back(std::move(span));
      timer_->open_.push_back(index_);
      start_ = Clock::now();
      timer_->bookkeeping_s_ += SecondsBetween(enter, start_);
    }
    ~Scope() {
      const Clock::time_point end = Clock::now();
      timer_->durations_[{timer_->pass_, name_}].push_back(
          SecondsBetween(start_, end));
      if (index_ < 0) return;
      Span& span = timer_->spans_[static_cast<std::size_t>(index_)];
      span.end = SecondsBetween(timer_->origin_, end);
      if (timer_->system_ != nullptr) {
        const Metrics delta =
            timer_->system_->network().metrics().Since(before_);
        span.messages = delta.TotalMessages();
        span.bytes = delta.TotalBytes();
      }
      timer_->open_.pop_back();
      timer_->bookkeeping_s_ += SecondsBetween(end, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CallTimer* timer_;
    const char* name_;
    Clock::time_point start_;
    int index_ = -1;
    Metrics before_;
  };

  bool spans_on_;
  Clock::time_point origin_;
  std::string pass_;
  const P3QSystem* system_ = nullptr;
  std::map<std::pair<std::string, std::string>, std::vector<double>>
      durations_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double bookkeeping_s_ = 0;
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<p3q::SyntheticTrace> trace;
  std::unique_ptr<P3QSystem> system;
  IdealNetworks ideal;
  int network_size = 0;
};

p3q::P3QConfig ConfigFor(const Workload& w) {
  p3q::P3QConfig config;
  config.network_size = std::max(2, w.users / 10);
  config.stored_profiles = 10;
  // The paper's 50-digest proposal cap at s = 1000, kept proportional.
  config.gossip_profile_fanout = std::max(2, config.network_size / 20);
  return config;
}

/// Builds the workload's deployment: trace, system, bootstrap, the ideal
/// networks the workload needs, and (seeded workloads) SeedNetworks.
Deployment SetUp(const Workload& w, std::uint64_t seed, int threads,
                 CallTimer* timer) {
  Deployment d;
  const p3q::P3QConfig config = ConfigFor(w);
  d.network_size = config.network_size;
  timer->Call("bench.setup", -1, [&] {
    d.trace = timer->Call("dataset.generate", -1, [&] {
      return std::make_unique<p3q::SyntheticTrace>(p3q::GenerateSyntheticTrace(
          p3q::SyntheticConfig::DeliciousLike(w.users), seed));
    });
    d.system = timer->Call("core.construct", -1, [&] {
      return std::make_unique<P3QSystem>(d.trace->dataset(), config,
                                         std::vector<int>{},
                                         seed ^ 0x5eed5eed5eed5eedULL);
    });
    d.system->SetThreads(threads);
    timer->Call("core.bootstrap", -1, [&] { d.system->BootstrapRandomViews(); });
    d.ideal = timer->Call("baseline.ideal_networks", -1, [&] {
      return p3q::ComputeIdealNetworks(d.trace->dataset(), d.network_size);
    });
    if (w.seeded) {
      timer->Call("core.seed_networks", -1,
                  [&] { d.system->SeedNetworks(d.ideal); });
    }
  });
  return d;
}

// ---------------------------------------------------------------------------
// The measured pass
// ---------------------------------------------------------------------------

/// Deterministic outputs of one pass plus its timings.
struct PassResult {
  // Deterministic.
  std::uint64_t timed_cycles = 0;
  std::uint64_t user_cycles = 0;  ///< sum over timed cycles of online users
  std::array<p3q::MessageStats, kNumMessageTypes> timed_traffic{};
  std::vector<std::uint64_t> query_bytes;  ///< eager wire bytes per issued query
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::vector<int> latencies;  ///< per issued query; kBudget + 1 = unfinished
  double recall_sum = 0;
  double success_ratio = 0;
  std::uint64_t departed = 0, rejoined = 0, updated_users = 0;
  p3q::DeliveryStats delivery;
  p3q::SystemMemoryStats memory;
  // Timed.
  double setup_s = 0;
  double timed_s = 0;        ///< wall time of the timed section
  double query_timed_s = 0;  ///< wall time the queries_per_s rate is over
  std::uint64_t rate_queries = 0;  ///< completions queries_per_s counts
  std::map<std::string, p3q::PhaseBreakdown> phases;
};

/// One open closed-loop query.
struct OpenQuery {
  std::uint64_t id = 0;
  std::uint64_t issued_at = 0;  ///< eager cycles run before issue
  std::vector<ItemId> reference;
};

/// The closed query loop: keeps `target` queries in flight, resolving each
/// as completed (QueryComplete) or unfinished (kBudget exhausted).
class QueryLoop {
 public:
  QueryLoop(Deployment* d, CallTimer* timer, Rng* rng, PassResult* out)
      : d_(d), timer_(timer), rng_(rng), out_(out) {}

  /// Issues one query from a random online user per free slot of `target`
  /// (a query answered at issue frees its slot only at the next cycle).
  void TopUp(std::size_t target, std::int64_t cycle) {
    if (open_.size() >= target) return;
    const std::vector<UserId> online = d_->system->network().OnlineUsers();
    if (online.empty()) return;
    for (std::size_t free = target - open_.size(); free > 0;) {
      const UserId u = online[rng_->NextUint64(online.size())];
      p3q::QuerySpec spec = p3q::GenerateQueryForUser(d_->trace->dataset(), u, rng_);
      if (spec.tags.empty()) continue;
      P3QSystem& system = *d_->system;
      OpenQuery q;
      q.reference = timer_->Call("baseline.reference_topk", cycle, [&] {
        return p3q::ReferenceTopK(system, spec, system.config().top_k);
      });
      q.id = timer_->Call("core.issue_query", cycle,
                          [&] { return system.IssueQuery(spec); });
      q.issued_at = eager_cycles_;
      ++out_->issued;
      --free;
      if (system.QueryComplete(q.id)) {
        Resolve(q, /*complete=*/true);
      } else {
        open_.push_back(std::move(q));
      }
    }
  }

  /// Call after every eager cycle: resolves finished and expired queries.
  void AfterEagerCycle() {
    ++eager_cycles_;
    P3QSystem& system = *d_->system;
    std::vector<OpenQuery> still;
    still.reserve(open_.size());
    for (OpenQuery& q : open_) {
      if (system.QueryComplete(q.id)) {
        Resolve(q, true);
      } else if (eager_cycles_ - q.issued_at >=
                 static_cast<std::uint64_t>(kBudget)) {
        Resolve(q, false);
      } else {
        still.push_back(std::move(q));
      }
    }
    open_ = std::move(still);
  }

  bool Empty() const { return open_.empty(); }

 private:
  void Resolve(const OpenQuery& q, bool complete) {
    P3QSystem& system = *d_->system;
    out_->query_bytes.push_back(system.query(q.id).traffic().TotalBytes());
    if (complete) {
      ++out_->completed;
      out_->latencies.push_back(static_cast<int>(eager_cycles_ - q.issued_at));
      out_->recall_sum += timer_->Call("eval.recall", -1, [&] {
        return p3q::RecallAtK(system.query(q.id).CurrentTopKItems(),
                              q.reference);
      });
    } else {
      out_->latencies.push_back(kBudget + 1);
    }
    system.ForgetQuery(q.id);
  }

  Deployment* d_;
  CallTimer* timer_;
  Rng* rng_;
  PassResult* out_;
  std::uint64_t eager_cycles_ = 0;
  std::vector<OpenQuery> open_;
};

/// Runs one pass of the workload: `setups` set-ups (the last one is kept),
/// the timed section, the query drain/probe and the evaluation.
PassResult RunPass(const Workload& w, std::uint64_t seed, int threads,
                   int cycles, int setups, bool profile, CallTimer* timer) {
  PassResult out;
  Deployment d;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setups; ++rep) {
    timer->SetSystem(nullptr);
    timer->SetPass("setup");
    d = Deployment{};  // free the previous deployment before building anew
    const Clock::time_point t0 = Clock::now();
    d = SetUp(w, seed, threads, timer);
    setup_times.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::sort(setup_times.begin(), setup_times.end());
  out.setup_s = setup_times[setup_times.size() / 2];

  P3QSystem& system = *d.system;
  timer->SetSystem(&system);
  p3q::PhaseProfiler profiler;
  if (profile) system.SetProfiler(&profiler);

  // The workload's own stream: queries, churn waves and update batches. The
  // library sees only what it generates.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  QueryLoop loop(&d, timer, &rng, &out);

  timer->SetPass("timed");
  const Metrics before = system.network().metrics().Snapshot();
  const p3q::DeliveryStats delivery_before = system.DeliveryStatsTotal();
  const Clock::time_point t0 = Clock::now();
  timer->Call("bench.timed", -1, [&] {
    for (int c = 0; c < cycles; ++c) {
      timer->Call("bench.cycle", c, [&] {
        if (w.churn_period > 0 && c % w.churn_period == 1) {
          out.departed += timer->Call("core.churn", c, [&] {
            return system.FailRandomFraction(w.fail_fraction).size();
          });
        }
        if (w.churn_period > 0 &&
            c % w.churn_period == 1 + w.churn_period / 2) {
          out.rejoined += timer->Call("core.churn", c, [&] {
            return system.RejoinRandomFraction(w.rejoin_fraction).size();
          });
        }
        if (w.update_period > 0 && c % w.update_period == w.update_period - 1) {
          p3q::UpdateConfig update;
          update.changed_user_fraction = w.update_fraction;
          const p3q::UpdateBatch batch =
              timer->Call("dataset.update_batch", c, [&] {
                return d.trace->MakeUpdateBatch(update, &rng);
              });
          out.updated_users += batch.NumChangedUsers();
          timer->Call("profile.apply_update", c,
                      [&] { system.ApplyUpdateBatch(batch); });
        }
        loop.TopUp(static_cast<std::size_t>(w.in_flight), c);
        out.user_cycles += system.network().NumOnline();
        if (w.lazy) timer->Call("core.lazy", c, [&] { system.RunLazyCycles(1); });
        if (w.eager) {
          timer->Call("core.eager", c, [&] { system.RunEagerCycles(1); });
          loop.AfterEagerCycle();
        }
      });
    }
  });
  out.timed_s = SecondsBetween(t0, Clock::now());
  out.timed_cycles = static_cast<std::uint64_t>(cycles);
  const Metrics timed = system.network().metrics().Since(before);
  for (int t = 0; t < kNumMessageTypes; ++t) {
    out.timed_traffic[t] = timed.Of(static_cast<MessageType>(t));
  }
  out.delivery = system.DeliveryStatsTotal().Since(delivery_before);
  if (profile) out.phases = profiler.Snapshot();
  system.SetProfiler(nullptr);
  out.query_timed_s = out.timed_s;
  out.rate_queries = out.completed;

  // Success ratio against the oracle: version-0 ideal networks, or for churn
  // the ideal networks of the store's current snapshots.
  timer->SetPass("eval");
  out.success_ratio = timer->Call("eval.success_ratio", -1, [&] {
    if (w.update_period > 0) {
      return p3q::AverageSuccessRatio(
          system, p3q::ComputeIdealNetworks(system.profile_store(),
                                            d.network_size));
    }
    return p3q::AverageSuccessRatio(system, d.ideal);
  });

  // Resolve the queries still in flight with eager-only cycles, so every
  // issued query counts. converge instead probes the gossip-built networks
  // with its own closed query loop here.
  if (w.probe_cycles > 0) {
    timer->SetPass("probe");
    const std::uint64_t completed_before = out.completed;
    const Clock::time_point p0 = Clock::now();
    for (int c = 0; c < w.probe_cycles; ++c) {
      loop.TopUp(static_cast<std::size_t>(w.probe_in_flight), c);
      timer->Call("core.eager", c, [&] { system.RunEagerCycles(1); });
      loop.AfterEagerCycle();
    }
    out.query_timed_s = SecondsBetween(p0, Clock::now());
    out.rate_queries = out.completed - completed_before;
  }
  timer->SetPass("drain");
  while (!loop.Empty()) {
    timer->Call("core.eager", -1, [&] { system.RunEagerCycles(1); });
    loop.AfterEagerCycle();
  }
  out.memory = system.MemoryStats();
  timer->SetSystem(nullptr);
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprints (the correctness gate)
// ---------------------------------------------------------------------------

/// Canonical text of every deterministic output of a pass.
std::string FingerprintText(const PassResult& r) {
  std::ostringstream s;
  s.precision(17);
  s << "cycles " << r.timed_cycles << " user_cycles " << r.user_cycles << "\n";
  for (int t = 0; t < kNumMessageTypes; ++t) {
    s << p3q::MessageTypeName(static_cast<MessageType>(t)) << " "
      << r.timed_traffic[t].messages << " " << r.timed_traffic[t].bytes << "\n";
  }
  s << "query_bytes";
  for (std::uint64_t b : r.query_bytes) s << " " << b;
  s << "\n";
  s << "success_ratio " << r.success_ratio << "\n";
  s << "recall_sum " << r.recall_sum << "\n";
  s << "issued " << r.issued << " completed " << r.completed << "\n";
  s << "latencies";
  for (int l : r.latencies) s << " " << l;
  s << "\nchurn " << r.departed << " " << r.rejoined << " " << r.updated_users
    << "\n";
  return s.str();
}

std::string Fingerprint(const PassResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char ch : FingerprintText(r)) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Key of a recorded fingerprint: everything that fixes a pass's work.
std::string FingerprintKey(const std::string& label, const Workload& w,
                           int cycles, std::uint64_t seed) {
  return label + " users=" + std::to_string(w.users) +
         " cycles=" + std::to_string(cycles) + " seed=" + std::to_string(seed);
}

/// Recorded fingerprints: lines "<key> <hash>"; '#' starts a comment.
std::map<std::string, std::string> LoadFingerprints(const std::string& path) {
  std::map<std::string, std::string> recorded;
  if (path.empty()) return recorded;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fingerprints file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    recorded[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return recorded;
}

/// Result of the gate: each check is one attempted operation.
struct Gate {
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) ++failed;
    lines.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  }

  /// Compares against the recorded fingerprint, when one exists.
  void CheckRecorded(const std::map<std::string, std::string>& recorded,
                     const std::string& key, const std::string& actual) {
    lines.push_back("fingerprint " + key + " " + actual);
    const auto it = recorded.find(key);
    if (it == recorded.end()) return;
    Check(it->second == actual, "matches recorded " + key + " " + it->second);
  }
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Percentile of query latencies in cycles, read as grouped data: latency L
/// stands for the interval (L - 1, L], so the value moves smoothly with the
/// share of queries at each latency instead of jumping a whole cycle.
double LatencyPercentile(const std::vector<int>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double target = p * static_cast<double>(sorted.size());
  const auto below = [&](int l) {
    return static_cast<double>(
        std::lower_bound(sorted.begin(), sorted.end(), l) - sorted.begin());
  };
  const int l = sorted[static_cast<std::size_t>(
      std::min(std::ceil(target), static_cast<double>(sorted.size())) - 1)];
  const double lo = below(l);        // samples < l
  const double hi = below(l + 1);    // samples <= l
  return static_cast<double>(l) - 1.0 + (target - lo) / (hi - lo);
}

/// Samples ranked above the p95 rank (the tail the percentile rests on).
std::uint64_t BeyondP95(const PassResult& r) {
  const double n = static_cast<double>(r.latencies.size());
  return static_cast<std::uint64_t>(n - std::ceil(0.95 * n));
}

/// Nearest-rank percentile of a sorted sample.
template <typename T>
T Percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void Add(std::vector<MetricOut>* out, std::string name, double value,
         std::string unit) {
  out->push_back({std::move(name), value, std::move(unit)});
}

std::vector<MetricOut> EndToEnd(const PassResult& r) {
  std::vector<MetricOut> m;
  std::vector<int> lat = r.latencies;
  std::sort(lat.begin(), lat.end());
  const double issued = static_cast<double>(std::max<std::uint64_t>(1, r.issued));
  std::uint64_t timed_bytes = 0;
  for (const auto& t : r.timed_traffic) timed_bytes += t.bytes;
  Add(&m, "setup_s", r.setup_s, "s");
  Add(&m, "user_cycles_per_s",
      static_cast<double>(r.user_cycles) / r.timed_s, "user-cycles/s");
  Add(&m, "queries_per_s",
      static_cast<double>(r.rate_queries) / r.query_timed_s, "queries/s");
  Add(&m, "peak_rss_mb", PeakRssMb(), "MB");
  Add(&m, "success_ratio", r.success_ratio, "fraction");
  Add(&m, "recall_at_k",
      r.completed == 0 ? 0 : r.recall_sum / static_cast<double>(r.completed),
      "fraction");
  Add(&m, "query_success_ratio", static_cast<double>(r.completed) / issued,
      "fraction");
  Add(&m, "query_latency_p50_cycles", LatencyPercentile(lat, 0.50), "cycles");
  Add(&m, "query_latency_p95_cycles", LatencyPercentile(lat, 0.95), "cycles");
  Add(&m, "kb_per_user_cycle",
      static_cast<double>(timed_bytes) / 1024.0 /
          static_cast<double>(std::max<std::uint64_t>(1, r.user_cycles)),
      "KB/user-cycle");
  std::vector<std::uint64_t> bytes = r.query_bytes;
  std::sort(bytes.begin(), bytes.end());
  Add(&m, "kb_per_query", static_cast<double>(Percentile(bytes, 0.5)) / 1024.0,
      "KB/query");
  return m;
}

/// Nearest-rank percentile of a call's durations, in milliseconds.
double CallPercentileMs(const CallTimer& timer, const std::string& name,
                        double p) {
  std::vector<double> d = timer.Durations("timed", name);
  std::sort(d.begin(), d.end());
  return 1000.0 * Percentile(d, p);
}

/// Self time per layer (the span name's prefix before '.'): each span's
/// duration minus the part its child spans cover.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
    self[layer] += spans[i].end - spans[i].start - child[i];
  }
  return self;
}

std::vector<MetricOut> PerLayer(const PassResult& r, const CallTimer& timer,
                                double overhead_pct) {
  std::vector<MetricOut> m;
  for (const char* name :
       {"dataset.generate", "core.construct", "core.bootstrap",
        "baseline.ideal_networks", "core.seed_networks"}) {
    Add(&m, std::string(name) + "_s", timer.Total("setup", name), "s");
  }
  const auto timed = [&](const char* name) { return timer.Total("timed", name); };
  Add(&m, "core.lazy_s", timed("core.lazy"), "s");
  Add(&m, "core.lazy_cycle_p50_ms", CallPercentileMs(timer, "core.lazy", 0.5), "ms");
  Add(&m, "core.lazy_cycle_p95_ms", CallPercentileMs(timer, "core.lazy", 0.95), "ms");
  Add(&m, "core.eager_s", timed("core.eager"), "s");
  Add(&m, "core.eager_cycle_p50_ms", CallPercentileMs(timer, "core.eager", 0.5), "ms");
  Add(&m, "core.eager_cycle_p95_ms", CallPercentileMs(timer, "core.eager", 0.95), "ms");
  Add(&m, "core.issue_query_s", timed("core.issue_query"), "s");
  Add(&m, "baseline.reference_topk_s", timed("baseline.reference_topk"), "s");
  Add(&m, "core.churn_s", timed("core.churn"), "s");
  Add(&m, "profile.apply_update_s", timed("profile.apply_update"), "s");
  Add(&m, "dataset.update_batch_s", timed("dataset.update_batch"), "s");
  Add(&m, "bench.timed_s", r.timed_s, "s");

  for (const char* engine : {"lazy", "eager"}) {
    const auto it = r.phases.find(engine);
    const p3q::PhaseBreakdown b =
        it == r.phases.end() ? p3q::PhaseBreakdown{} : it->second;
    const std::string p = std::string("sim.engine.") + engine + ".";
    Add(&m, p + "plan_s", b.plan_seconds, "s");
    Add(&m, p + "barrier_s", b.barrier_seconds, "s");
    Add(&m, p + "commit_s", b.commit_seconds, "s");
    Add(&m, p + "drain_s", b.drain_seconds, "s");
    Add(&m, p + "end_cycle_s", b.end_cycle_seconds, "s");
    if (std::string(engine) == "lazy") {
      Add(&m, p + "imbalance_mean", b.MeanImbalance(), "ratio");
    }
  }

  for (int t = 0; t < kNumMessageTypes; ++t) {
    const std::string type = p3q::MessageTypeName(static_cast<MessageType>(t));
    Add(&m, "sim.msgs." + type,
        static_cast<double>(r.timed_traffic[t].messages), "count");
    Add(&m, "sim.kb." + type,
        static_cast<double>(r.timed_traffic[t].bytes) / 1024.0, "KB");
  }
  const auto msgs = [&](MessageType t) {
    return static_cast<double>(r.timed_traffic[static_cast<int>(t)].messages);
  };
  const double proposals = msgs(MessageType::kLazyDigestProposal);
  Add(&m, "core.lazy.transfer_ratio",
      proposals == 0 ? 0
                     : (msgs(MessageType::kLazyFullProfile) +
                        msgs(MessageType::kDirectProfileFetch)) / proposals,
      "ratio");

  const double delivered = static_cast<double>(r.delivery.delivered);
  const double stale = static_cast<double>(r.delivery.stale_dropped);
  Add(&m, "sim.delivery.delivered", delivered, "count");
  Add(&m, "sim.delivery.stale_dropped", stale, "count");
  Add(&m, "sim.delivery.stale_ratio",
      delivered + stale == 0 ? 0 : stale / (delivered + stale), "ratio");

  const auto& arena = r.memory.store.arena;
  constexpr double kMb = 1024.0 * 1024.0;
  Add(&m, "profile.arena_used_mb", static_cast<double>(arena.used_bytes) / kMb, "MB");
  Add(&m, "profile.arena_reserved_mb",
      static_cast<double>(arena.reserved_bytes) / kMb, "MB");
  Add(&m, "profile.arena_packing",
      arena.reserved_bytes == 0 ? 0
                                : static_cast<double>(arena.used_bytes) /
                                      static_cast<double>(arena.reserved_bytes),
      "ratio");
  Add(&m, "profile.arena_recycled_slabs",
      static_cast<double>(arena.recycled_slabs), "count");
  Add(&m, "profile.peak_pending_depth",
      static_cast<double>(r.memory.store.peak_pending_depth), "count");
  Add(&m, "profile.pair_cache_entries",
      static_cast<double>(r.memory.pair_cache_entries), "count");
  Add(&m, "profile.pair_cache_evictions",
      static_cast<double>(r.memory.pair_cache_evictions), "count");

  Add(&m, "eval.queries_issued", static_cast<double>(r.issued), "count");
  Add(&m, "eval.queries_unfinished",
      static_cast<double>(r.issued - r.completed), "count");
  Add(&m, "eval.latency_beyond_p95", static_cast<double>(BeyondP95(r)),
      "count");

  const std::map<std::string, double> self = SelfTimes(timer.spans());
  for (const char* layer :
       {"bench", "dataset", "core", "baseline", "profile", "eval"}) {
    const auto it = self.find(layer);
    Add(&m, std::string("self.") + layer + "_s",
        it == self.end() ? 0 : it->second, "s");
  }
  Add(&m, "trace.overhead_pct", overhead_pct, "%");
  Add(&m, "trace.bookkeeping_s", timer.bookkeeping_s(), "s");
  Add(&m, "trace.spans", static_cast<double>(timer.spans().size()), "count");
  return m;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteSpans(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"workload\":\"" << JsonEscape(workload)
        << "\",\"seed\":" << seed << ",\"pass\":\"" << JsonEscape(s.pass)
        << "\",\"cycle\":" << s.cycle << ",\"start_s\":" << Num(s.start)
        << ",\"end_s\":" << Num(s.end) << ",\"messages\":" << s.messages
        << ",\"bytes\":" << s.bytes << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 2;
  int users = 0;   ///< 0: the workload's own size
  int cycles = 0;  ///< 0: derived from --seconds
  std::string fingerprints;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "p3qbench: %s\n"
               "usage: p3qbench --workload converge|query|churn [--seed N]\n"
               "  [--seconds S] [--trace 0|1] [--threads T] [--users U]\n"
               "  [--cycles C] [--fingerprints FILE] [--spans FILE]\n",
               problem.c_str());
  std::exit(2);
}

long long ParseInt(const std::string& flag, const std::string& v, long long lo,
                   long long hi) {
  try {
    std::size_t used = 0;
    const long long x = std::stoll(v, &used);
    if (used != v.size() || x < lo || x > hi) throw std::out_of_range(v);
    return x;
  } catch (const std::exception&) {
    Usage("bad value '" + v + "' for " + flag);
  }
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      try {
        std::size_t used = 0;
        a.seed = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        Usage("bad value '" + v + "' for --seed");
      }
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseInt(flag, v, 1, 3600));
    } else if (flag == "--trace") {
      a.trace = ParseInt(flag, v, 0, 1) == 1;
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(ParseInt(flag, v, 1, 64));
    } else if (flag == "--users") {
      a.users = static_cast<int>(ParseInt(flag, v, 20, 1000000));
    } else if (flag == "--cycles") {
      a.cycles = static_cast<int>(ParseInt(flag, v, 1, 100000));
    } else if (flag == "--fingerprints") {
      a.fingerprints = v;
    } else if (flag == "--spans") {
      a.spans_out = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload w = MakeWorkload(args.workload);
  if (args.users > 0) w.users = args.users;
  int cycles = args.cycles > 0
                   ? args.cycles
                   : std::max(1, static_cast<int>(std::lround(
                                     w.cycles_per_second * args.seconds)));
  if (w.churn_period > 0) {
    cycles = (cycles + w.churn_period - 1) / w.churn_period * w.churn_period;
  }
  const std::map<std::string, std::string> recorded =
      LoadFingerprints(args.fingerprints);
  const Clock::time_point origin = Clock::now();
  Gate gate;

  // The measured pass. A traced run follows it with a traced and then a
  // second untraced pass: the tracing overhead is the traced pass against
  // the second untraced one, as both run in an already warmed-up process
  // (the first pass of a process ran about 14% slower than later ones).
  CallTimer plain(false, origin);
  PassResult result = RunPass(w, args.seed, args.threads, cycles,
                              args.trace ? 1 : w.setups, false, &plain);
  const std::string fingerprint = Fingerprint(result);
  gate.CheckRecorded(recorded, FingerprintKey(w.name, w, cycles, args.seed),
                    fingerprint);
  CallTimer traced(true, origin);
  double overhead_pct = 0;
  if (args.trace) {
    PassResult t = RunPass(w, args.seed, args.threads, cycles, 1, true, &traced);
    CallTimer unused(false, origin);
    const PassResult u =
        RunPass(w, args.seed, args.threads, cycles, 1, false, &unused);
    gate.Check(Fingerprint(t) == fingerprint && Fingerprint(u) == fingerprint,
               "traced pass matches the untraced passes");
    overhead_pct = 100.0 * (t.timed_s - u.timed_s) / u.timed_s;
    result = std::move(t);
  }

  // The tiny replica, at 1 and 2 threads: results must not depend on the
  // thread count, and must match the recorded fingerprint for this seed.
  const Workload tiny = TinyReplica(w);
  std::string prints[2];
  for (int threads : {1, 2}) {
    CallTimer unused(false, origin);
    prints[threads - 1] = Fingerprint(
        RunPass(tiny, args.seed, threads, kTinyCycles, 1, false, &unused));
  }
  gate.Check(prints[0] == prints[1], "tiny replica: --threads 1 == 2");
  gate.CheckRecorded(recorded,
                     FingerprintKey(w.name + "-tiny", tiny, kTinyCycles, args.seed),
                     prints[0]);

  const std::vector<MetricOut> metrics =
      args.trace ? PerLayer(result, traced, overhead_pct) : EndToEnd(result);
  if (args.trace && !args.spans_out.empty()) {
    WriteSpans(args.spans_out, w.name, args.seed, traced.spans());
  }

  std::printf("workload %s seed %" PRIu64 " users %d cycles %d threads %d\n",
              w.name.c_str(), args.seed, w.users, cycles, args.threads);
  for (const std::string& line : gate.lines) std::printf("%s\n", line.c_str());
  std::printf("queries issued %" PRIu64 " completed %" PRIu64
              "; latency percentiles over %zu samples, %" PRIu64
              " beyond p95, unfinished read as %d cycles\n",
              result.issued, result.completed, result.latencies.size(),
              BeyondP95(result), kBudget + 1);
  for (const MetricOut& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::uint64_t attempted =
      result.issued + result.timed_cycles + gate.checks;
  std::string json = "{\"correct\": " + std::string(gate.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(gate.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p3qbench: %s\n", e.what());
    return 1;
  }
}
