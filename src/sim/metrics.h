// Message and bandwidth accounting for the simulator.
//
// Every message the protocols exchange is recorded here with its wire size
// (computed from the paper's cost model in common/types.h). The bandwidth
// figures of Section 3.3 — lazy-mode maintenance traffic, per-query traffic
// split by message kind, messages per query — are all derived from these
// counters.
#ifndef P3Q_SIM_METRICS_H_
#define P3Q_SIM_METRICS_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

namespace p3q {

/// `now - earlier` for monotone counters. Every Since delta in this file
/// goes through here: a misordered snapshot (subtracting a LATER
/// snapshot from an earlier one) would otherwise silently wrap to ~2^64.
/// Asserts the ordering in debug builds; clamps to zero in release.
inline std::uint64_t MonotoneDelta(std::uint64_t now, std::uint64_t earlier) {
  assert(now >= earlier &&
         "monotone counter delta: 'earlier' snapshot is newer than 'now'");
  return now >= earlier ? now - earlier : 0;
}

/// Every kind of message P3Q puts on the wire.
enum class MessageType : int {
  kRandomViewGossip = 0,  ///< bottom layer: r profile digests each way
  kLazyDigestProposal,    ///< top layer step 1: proposed profile digests
  kLazyCommonItems,       ///< top layer step 2: actions on common items
  kLazyFullProfile,       ///< top layer step 3: remaining profile actions
  kDirectProfileFetch,    ///< random-view probe: full profile from owner
  kEagerQueryForward,     ///< eager gossip: query + forwarded remaining list
  kEagerQueryReturn,      ///< eager gossip reply: returned remaining list
  kPartialResult,         ///< partial result list sent to the querier
  kCount
};

/// Human-readable name of a message type.
const char* MessageTypeName(MessageType type);

/// Count/byte totals for one message type.
struct MessageStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void Add(std::uint64_t b) {
    ++messages;
    bytes += b;
  }

  /// The field list: calls `f` once per field with that field of every
  /// `s`, in checkpoint order. The stats structs below share this shape, so
  /// one walk serves the checkpoint codec, MergeFrom and Since.
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.messages...);
    f(s.bytes...);
  }
};

/// Aggregated traffic counters, indexable by MessageType.
class Metrics {
 public:
  /// Records one message of `type` carrying `bytes` payload bytes.
  void Record(MessageType type, std::uint64_t bytes) {
    stats_[static_cast<int>(type)].Add(bytes);
  }

  const MessageStats& Of(MessageType type) const {
    return stats_[static_cast<int>(type)];
  }

  /// Sum of bytes over all message types.
  std::uint64_t TotalBytes() const;

  /// Sum of message counts over all message types.
  std::uint64_t TotalMessages() const;

  /// Copy of the current counters (use to compute per-phase deltas).
  Metrics Snapshot() const { return *this; }

  /// Per-type difference (this - earlier).
  Metrics Since(const Metrics& earlier) const;

  /// Adds every counter of `other` into this (per-shard mailbox folding).
  void MergeFrom(const Metrics& other);

  /// True when every counter is zero.
  bool Empty() const { return TotalMessages() == 0 && TotalBytes() == 0; }

  /// Zeroes every counter.
  void Reset();

  /// The field list: every MessageStats in MessageType order.
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    for (std::size_t t = 0; t < kNumTypes; ++t) {
      MessageStats::Fields(f, s.stats_[t]...);
    }
  }

 private:
  static constexpr std::size_t kNumTypes =
      static_cast<std::size_t>(MessageType::kCount);
  std::array<MessageStats, kNumTypes> stats_{};
};

/// A percentile read off a clamped histogram. The final bucket aggregates
/// every observation at or past the clamp, so a percentile landing there is
/// only a LOWER bound on the true value — `lower_bound` flags that instead
/// of letting the clamp masquerade as an exact measurement.
struct PercentileValue {
  double value = -1.0;       ///< -1 when nothing was recorded
  bool lower_bound = false;  ///< true: the true percentile is >= value
};

/// Counts of small non-negative values (lags, latencies in cycles):
/// values 0..N-2 are counted exactly, the final bucket absorbs everything
/// larger.
template <std::size_t N>
struct Histogram {
  std::array<std::uint64_t, N> buckets{};

  void Record(std::uint64_t value) { ++buckets[value < N ? value : N - 1]; }

  std::uint64_t operator[](std::size_t i) const { return buckets[i]; }
  bool operator==(const Histogram&) const = default;

  /// Smallest value V such that at least `p` (in [0, 1]) of all recorded
  /// values are <= V; value -1 when nothing was recorded. A read landing in
  /// the final bucket only bounds the true value from below and sets
  /// `lower_bound`.
  PercentileValue Percentile(double p) const {
    std::uint64_t total = 0;
    for (std::uint64_t count : buckets) total += count;
    if (total == 0) return PercentileValue{-1.0, false};
    const double target = p * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < N; ++i) {
      cumulative += buckets[i];
      if (static_cast<double>(cumulative) >= target) {
        return PercentileValue{static_cast<double>(i), false};
      }
    }
    return PercentileValue{static_cast<double>(N - 1), true};
  }

  void MergeFrom(const Histogram& other) {
    for (std::size_t i = 0; i < N; ++i) buckets[i] += other.buckets[i];
  }

  /// Per-bucket difference (this - earlier).
  Histogram Since(const Histogram& earlier) const {
    Histogram delta;
    for (std::size_t i = 0; i < N; ++i) {
      delta.buckets[i] = MonotoneDelta(buckets[i], earlier.buckets[i]);
    }
    return delta;
  }

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.buckets...);
  }
};

/// Delivery-lag histogram resolution: lags of 0..kDeliveryLagBuckets-2
/// cycles are counted exactly; the last bucket absorbs everything longer.
inline constexpr std::size_t kDeliveryLagBuckets = 33;

/// Counters of the asynchronous delivery layer (sim/delivery.h): how many
/// planned effects went onto the wire, how long they stayed in flight, and
/// how many never arrived. All counters are deterministic in (seed, latency
/// model) — they never depend on the thread count.
struct DeliveryStats {
  std::uint64_t enqueued = 0;       ///< messages accepted onto the wire
  std::uint64_t dropped = 0;        ///< lost in flight (latency model)
  std::uint64_t delivered = 0;      ///< committed at the receiver
  std::uint64_t stale_dropped = 0;  ///< arrived but obsolete (superseded)
  std::uint64_t max_in_flight = 0;  ///< peak queue depth after a plan barrier
  /// delivered messages by lag = commit cycle - send cycle.
  Histogram<kDeliveryLagBuckets> lag_histogram;

  void RecordDelivery(std::uint64_t lag) {
    ++delivered;
    lag_histogram.Record(lag);
  }

  /// Adds every counter of `other`; max_in_flight takes the maximum.
  void MergeFrom(const DeliveryStats& other);

  /// Per-counter difference (this - earlier) for phase deltas.
  /// max_in_flight keeps this side's running peak (peaks do not subtract).
  DeliveryStats Since(const DeliveryStats& earlier) const;

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.enqueued...);
    f(s.dropped...);
    f(s.delivered...);
    f(s.stale_dropped...);
    f(s.max_in_flight...);
    f(s.lag_histogram...);
  }
};

/// Query-completion-latency histogram resolution: latencies of
/// 0..kQueryLatencyBuckets-2 cycles are counted exactly; the last bucket
/// absorbs everything longer (and reports as a flagged lower bound).
inline constexpr std::size_t kQueryLatencyBuckets = 65;

/// Per-query serving latencies of the open-loop workload layer
/// (serving/lifecycle.h): how many queries entered the system, how long
/// each took to produce its first remote result and to complete
/// (completion = the recall target reached, or the eager mode's NRA
/// finalization), and how many met the completion SLO. All counters are
/// deterministic in (seed, scenario, latency model) — like DeliveryStats
/// they never depend on the thread count.
struct QueryLatencyStats {
  std::uint64_t issued = 0;     ///< open-loop queries injected
  std::uint64_t completed = 0;  ///< reached the recall target / finalized
  std::uint64_t completed_within_slo = 0;  ///< completed within slo cycles
  std::uint64_t first_results = 0;  ///< received >= 1 remote partial result
  std::uint64_t abandoned = 0;      ///< still open when the run ended
  /// completed queries by latency = completion cycle - issue cycle.
  Histogram<kQueryLatencyBuckets> completion_histogram;
  /// first-result queries by latency = first-result cycle - issue cycle.
  Histogram<kQueryLatencyBuckets> first_result_histogram;

  void RecordCompletion(std::uint64_t latency, std::uint64_t slo_cycles) {
    ++completed;
    if (latency <= slo_cycles) ++completed_within_slo;
    completion_histogram.Record(latency);
  }

  void RecordFirstResult(std::uint64_t latency) {
    ++first_results;
    first_result_histogram.Record(latency);
  }

  /// True when no query was ever issued.
  bool Empty() const { return issued == 0; }

  /// Adds every counter of `other`.
  void MergeFrom(const QueryLatencyStats& other);

  /// Per-counter difference (this - earlier) for phase deltas.
  QueryLatencyStats Since(const QueryLatencyStats& earlier) const;

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.issued...);
    f(s.completed...);
    f(s.completed_within_slo...);
    f(s.first_results...);
    f(s.abandoned...);
    f(s.completion_histogram...);
    f(s.first_result_histogram...);
  }
};

}  // namespace p3q

#endif  // P3Q_SIM_METRICS_H_
