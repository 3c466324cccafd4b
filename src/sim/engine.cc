#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"

namespace p3q {
namespace {

/// SplitMix64-based hash chaining for stream derivation: absorbing a word
/// and remixing keeps sibling streams (adjacent cycles/nodes/salts)
/// decorrelated.
std::uint64_t Absorb(std::uint64_t state, std::uint64_t word) {
  std::uint64_t s =
      state ^ (word + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2));
  return SplitMix64(&s);
}

int ClampThreads(std::int64_t threads) {
  return static_cast<int>(std::clamp<std::int64_t>(
      threads, 1, static_cast<std::int64_t>(kEngineShards)));
}

}  // namespace

/// Persistent plan-phase workers: spawned once and fed one job per plan
/// phase through an epoch counter, so a run pays the thread spawn cost once
/// instead of once per protocol per cycle (idle workers block on the
/// condition variable between phases). Run() returns only after every
/// worker finished the job — the cycle barrier — even when the job throws:
/// exceptions from any thread are captured and the first one is rethrown
/// on the calling thread after the barrier, matching threads=1 semantics.
class PlanWorkerPool {
 public:
  explicit PlanWorkerPool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~PlanWorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs `job` on every worker and the calling thread; returns when all
  /// workers are done with it.
  void Run(const std::function<void()>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      finished_ = 0;
      error_ = nullptr;
      ++epoch_;
    }
    work_cv_.notify_all();
    std::exception_ptr caller_error;
    try {
      job();
    } catch (...) {
      caller_error = std::current_exception();
    }
    std::exception_ptr worker_error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return finished_ == threads_.size(); });
      worker_error = error_;
    }
    if (caller_error) std::rethrow_exception(caller_error);
    if (worker_error) std::rethrow_exception(worker_error);
  }

 private:
  void Loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void()>* job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ > seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
      }
      std::exception_ptr error;
      try {
        (*job)();
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (error != nullptr && error_ == nullptr) error_ = error;
        ++finished_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void()>* job_ = nullptr;
  std::exception_ptr error_;
  std::uint64_t epoch_ = 0;
  std::size_t finished_ = 0;
  bool stop_ = false;
};

void CycleProtocol::EncodeMessage(const DeliveryMessage&,
                                  CheckpointWriter*) const {
  throw CheckpointError(
      "protocol cannot encode delivery messages (EncodeMessage not "
      "overridden)");
}

std::unique_ptr<DeliveryMessage> CycleProtocol::DecodeMessage(
    CheckpointReader*) const {
  throw CheckpointError(
      "protocol cannot decode delivery messages (DecodeMessage not "
      "overridden)");
}

void PlanContext::Send(std::unique_ptr<DeliveryMessage> message) const {
  std::uint64_t delay = 0;
  if (latency != nullptr) {
    const std::optional<std::uint64_t> d =
        latency->Delay(cycle, node, delivery_rng);
    if (!d.has_value()) {
      queue->RecordPlannedDrop(shard, node, cycle);
      return;
    }
    delay = *d;
  }
  queue->EnqueuePending(shard, node, cycle, cycle + delay,
                        std::move(message));
}

Engine::Engine(std::size_t num_nodes, std::uint64_t seed)
    : num_nodes_(num_nodes),
      seed_(seed),
      threads_(ClampThreads(GetEnvInt("P3Q_THREADS", 1))),
      alive_(num_nodes, 1) {}

Engine::~Engine() = default;

void Engine::AddProtocol(CycleProtocol* protocol) {
  protocols_.push_back(protocol);
  queues_.push_back(std::make_unique<DeliveryQueue>());
  queues_.back()->SetTracer(tracer_);
}

void Engine::SetLatencyModel(std::shared_ptr<const LatencyModel> model) {
  latency_ = std::move(model);
}

void Engine::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& queue : queues_) queue->SetTracer(tracer);
}

void Engine::SetProfiler(PhaseProfiler* profiler, const std::string& label) {
  profile_ = profiler != nullptr ? profiler->Breakdown(label) : nullptr;
}

DeliveryStats Engine::DeliveryStatsTotal() const {
  DeliveryStats total;
  for (const auto& queue : queues_) total.MergeFrom(queue->stats());
  return total;
}

std::size_t Engine::MessagesInFlight() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue->InFlightDepth();
  return total;
}

void Engine::SetThreads(int threads) {
  const int clamped = ClampThreads(threads);
  if (clamped != threads_) pool_.reset();  // respawned lazily at the new size
  threads_ = clamped;
}

Rng Engine::ForkStream(std::uint64_t seed, std::uint64_t cycle, UserId node,
                       std::uint64_t salt) {
  std::uint64_t h = Absorb(seed, salt);
  h = Absorb(h, cycle);
  h = Absorb(h, static_cast<std::uint64_t>(node));
  return Rng(h);
}

std::pair<UserId, UserId> Engine::ShardRange(std::size_t shard) const {
  const std::size_t per = ShardWidth(num_nodes_);
  const std::size_t lo = std::min(shard * per, num_nodes_);
  const std::size_t hi = std::min(lo + per, num_nodes_);
  return {static_cast<UserId>(lo), static_cast<UserId>(hi)};
}

void Engine::SnapshotLiveness() {
  if (!liveness_) {
    std::fill(alive_.begin(), alive_.end(), char{1});
    return;
  }
  for (UserId u = 0; u < static_cast<UserId>(num_nodes_); ++u) {
    alive_[u] = liveness_(u) ? 1 : 0;
  }
}

void Engine::RunPlanPhase(std::size_t protocol_index, std::uint64_t tag) {
  CycleProtocol* protocol = protocols_[protocol_index];
  DeliveryQueue* queue = queues_[protocol_index].get();
  // ZeroLatency (or no model) takes the fast path: no model consultation,
  // no delivery-stream forks, every message due this cycle.
  const LatencyModel* latency =
      (latency_ != nullptr && !latency_->IsZero()) ? latency_.get() : nullptr;
  // Per-shard wall-clock is only tracked while profiling; each slot is
  // written by the one thread that planned the shard, so no synchronization
  // is needed beyond the pool's barrier.
  const bool profiled = profile_ != nullptr;
  if (profiled) shard_plan_seconds_.fill(0.0);
  std::atomic<std::size_t> next_shard{0};
  const std::function<void()> plan_shards = [&]() {
    for (std::size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
         s < kEngineShards;
         s = next_shard.fetch_add(1, std::memory_order_relaxed)) {
      const auto shard_start = profiled
                                   ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point();
      const auto [first, last] = ShardRange(s);
      PlanContext ctx;
      ctx.cycle = cycle_;
      ctx.shard = s;
      ctx.queue = queue;
      ctx.latency = latency;
      for (UserId u = first; u < last; ++u) {
        if (!alive_[u] || !protocol->ActiveInCycle(u)) continue;
        Rng rng = ForkStream(seed_, cycle_, u, kPlanSalt ^ tag);
        Rng delivery_rng(0);
        if (latency != nullptr) {
          delivery_rng = ForkStream(seed_, cycle_, u, kDeliverySalt ^ tag);
          ctx.delivery_rng = &delivery_rng;
        }
        ctx.node = u;
        ctx.rng = &rng;
        protocol->PlanCycle(u, ctx);
      }
      if (profiled) {
        shard_plan_seconds_[s] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          shard_start)
                .count();
      }
    }
  };
  if (threads_ <= 1) {
    plan_shards();
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<PlanWorkerPool>(threads_ - 1);
  pool_->Run(plan_shards);
}

void Engine::DrainDueMessages(std::size_t protocol_index, std::uint64_t tag) {
  CycleProtocol* protocol = protocols_[protocol_index];
  std::vector<DeliveryQueue::InFlight> due =
      queues_[protocol_index]->TakeDue(cycle_);
  // One commit stream per (cycle, sender), shared by every message of that
  // sender arriving this cycle — the exact stream the classic per-node
  // commit used, so ZeroLatency reproduces it draw for draw.
  UserId current_sender = kInvalidUser;
  Rng rng(0);
  for (DeliveryQueue::InFlight& message : due) {
    if (message.sender != current_sender) {
      current_sender = message.sender;
      rng = ForkStream(seed_, cycle_, message.sender, kCommitSalt ^ tag);
    }
    protocol->CommitMessage(message.sender, message.send_cycle, cycle_,
                            *message.payload, &rng);
  }
}

void Engine::RunOneCycle() {
  using Clock = std::chrono::steady_clock;
  const bool profiled = profile_ != nullptr;
  SnapshotLiveness();
  for (std::size_t p = 0; p < protocols_.size(); ++p) {
    CycleProtocol* protocol = protocols_[p];
    // Distinct per-protocol salts keep the streams of co-registered
    // protocols decorrelated.
    const std::uint64_t tag = static_cast<std::uint64_t>(p) << 32;
    protocol->BeginCycle(cycle_);
    const auto t0 = profiled ? Clock::now() : Clock::time_point();
    RunPlanPhase(p, tag);
    const auto t1 = profiled ? Clock::now() : Clock::time_point();
    protocol->EndPlan(cycle_);
    // The trace fold sits at the same barrier as the mailbox merges and the
    // queue fold, so the accept order is (shard, emit order) — independent
    // of the thread count, like every other folded structure.
    if (tracer_ != nullptr) tracer_->FoldShards();
    queues_[p]->Fold();
    const auto t2 = profiled ? Clock::now() : Clock::time_point();
    if (protocol->UsesPerNodeCommit()) {
      for (UserId u = 0; u < static_cast<UserId>(num_nodes_); ++u) {
        if (!alive_[u] || !protocol->ActiveInCycle(u)) continue;
        Rng rng = ForkStream(seed_, cycle_, u, kCommitSalt ^ tag);
        protocol->CommitCycle(u, cycle_, &rng);
      }
    }
    const auto t3 = profiled ? Clock::now() : Clock::time_point();
    DrainDueMessages(p, tag);
    const auto t4 = profiled ? Clock::now() : Clock::time_point();
    Rng end_rng = ForkStream(seed_, cycle_, 0, kCycleSalt ^ tag);
    protocol->EndCycle(cycle_, &end_rng);
    if (profiled) {
      const auto t5 = Clock::now();
      double shard_max = 0.0;
      double shard_sum = 0.0;
      std::uint64_t active_shards = 0;
      for (std::size_t s = 0; s < kEngineShards; ++s) {
        const auto [first, last] = ShardRange(s);
        if (first >= last) continue;
        ++active_shards;
        shard_max = std::max(shard_max, shard_plan_seconds_[s]);
        shard_sum += shard_plan_seconds_[s];
      }
      const auto sec = [](Clock::time_point from, Clock::time_point to) {
        return std::chrono::duration<double>(to - from).count();
      };
      profile_->AddCycle(sec(t0, t1), sec(t1, t2), sec(t2, t3), sec(t3, t4),
                         sec(t4, t5), shard_max, shard_sum, active_shards);
    }
  }
  for (auto& observer : observers_) observer(cycle_);
  ++cycle_;
}

void Engine::SaveState(CheckpointWriter* out) const {
  out->U64(seed_);
  out->U64(cycle_);
  out->U64(queues_.size());
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    out->set_messages(protocols_[p]);
    out->Put(*queues_[p]);
  }
  out->set_messages(nullptr);
  out->Sentinel();
}

void Engine::LoadState(CheckpointReader* in) {
  if (in->U64() != seed_) {
    throw CheckpointError(
        "checkpoint engine seed does not match this run (different master "
        "seed or engine construction order)");
  }
  cycle_ = in->U64();
  const std::uint64_t num_queues = in->U64();
  if (num_queues != queues_.size()) {
    throw CheckpointError(
        "checkpoint engine has " + std::to_string(num_queues) +
        " protocol queue(s) but this run registered " +
        std::to_string(queues_.size()));
  }
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    in->set_messages(protocols_[p]);
    in->Get(queues_[p].get());
  }
  in->set_messages(nullptr);
  in->Sentinel("engine");
}

void Engine::RunCycles(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (tracer_ == nullptr) {
      RunOneCycle();
      continue;
    }
    try {
      RunOneCycle();
    } catch (...) {
      // Flight recorder: fold whatever the plan threads had buffered (best
      // effort — the cycle was cut short, so the tail may be partial) and
      // dump the ring so the last events before the failure survive.
      tracer_->FoldShards();
      tracer_->DumpRing();
      throw;
    }
  }
}

}  // namespace p3q
