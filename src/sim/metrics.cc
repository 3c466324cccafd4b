#include "sim/metrics.h"

#include <algorithm>

namespace p3q {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kRandomViewGossip:
      return "random_view_gossip";
    case MessageType::kLazyDigestProposal:
      return "lazy_digest_proposal";
    case MessageType::kLazyCommonItems:
      return "lazy_common_items";
    case MessageType::kLazyFullProfile:
      return "lazy_full_profile";
    case MessageType::kDirectProfileFetch:
      return "direct_profile_fetch";
    case MessageType::kEagerQueryForward:
      return "eager_query_forward";
    case MessageType::kEagerQueryReturn:
      return "eager_query_return";
    case MessageType::kPartialResult:
      return "partial_result";
    case MessageType::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t Metrics::TotalBytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.bytes;
  return total;
}

std::uint64_t Metrics::TotalMessages() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.messages;
  return total;
}

namespace {

// Field-list walkers shared by the stats structs: counters add up and
// subtract (never below zero), histograms merge and subtract per bucket.
struct AddField {
  void operator()(std::uint64_t& into, std::uint64_t v) const { into += v; }
  template <std::size_t N>
  void operator()(Histogram<N>& into, const Histogram<N>& v) const {
    into.MergeFrom(v);
  }
};

struct DeltaField {
  void operator()(std::uint64_t& delta, std::uint64_t now,
                  std::uint64_t earlier) const {
    delta = MonotoneDelta(now, earlier);
  }
  template <std::size_t N>
  void operator()(Histogram<N>& delta, const Histogram<N>& now,
                  const Histogram<N>& earlier) const {
    delta = now.Since(earlier);
  }
};

}  // namespace

Metrics Metrics::Since(const Metrics& earlier) const {
  Metrics delta;
  Fields(DeltaField{}, delta, *this, earlier);
  return delta;
}

void Metrics::MergeFrom(const Metrics& other) {
  Fields(AddField{}, *this, other);
}

void Metrics::Reset() {
  for (auto& s : stats_) s = MessageStats{};
}

void DeliveryStats::MergeFrom(const DeliveryStats& other) {
  const std::uint64_t peak = std::max(max_in_flight, other.max_in_flight);
  Fields(AddField{}, *this, other);
  max_in_flight = peak;
}

DeliveryStats DeliveryStats::Since(const DeliveryStats& earlier) const {
  DeliveryStats delta;
  Fields(DeltaField{}, delta, *this, earlier);
  delta.max_in_flight = max_in_flight;
  return delta;
}

void QueryLatencyStats::MergeFrom(const QueryLatencyStats& other) {
  Fields(AddField{}, *this, other);
}

QueryLatencyStats QueryLatencyStats::Since(
    const QueryLatencyStats& earlier) const {
  QueryLatencyStats delta;
  Fields(DeltaField{}, delta, *this, earlier);
  return delta;
}

}  // namespace p3q
