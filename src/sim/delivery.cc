#include "sim/delivery.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// %g keeps the shortest faithful form ("0.1", "0.105", "1e-07"), so a
/// spec's Name() round-trips through ParseLatencySpec to the same model.
std::string FormatLoss(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

/// Splits "a:b:c" into pieces.
std::vector<std::string> SplitColon(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  // common/parse.h: whole-string, no silent wrap of "-1" to 2^64-1.
  return ParseStrictUint64(s, out);
}

}  // namespace

std::string LatencySpec::Name() const {
  switch (kind) {
    case LatencyKind::kZero:
      return "zero";
    case LatencyKind::kFixed:
      return "fixed:" + std::to_string(fixed);
    case LatencyKind::kUniform:
      return "uniform:" + std::to_string(lo) + ":" + std::to_string(hi);
    case LatencyKind::kLossy:
      return "lossy:" + FormatLoss(loss) + ":" + std::to_string(max_delay);
  }
  return "unknown";
}

std::string LatencySpec::Validate() const {
  switch (kind) {
    case LatencyKind::kZero:
    case LatencyKind::kFixed:
      return "";
    case LatencyKind::kUniform:
      if (lo > hi) return "uniform latency: lo > hi";
      return "";
    case LatencyKind::kLossy:
      // The negated form also rejects NaN (every comparison false).
      if (!(loss >= 0.0 && loss <= 1.0)) {
        return "lossy latency: loss probability outside [0, 1]";
      }
      return "";
  }
  return "unknown latency kind";
}

std::string ParseLatencySpec(const std::string& text, LatencySpec* spec) {
  const std::vector<std::string> parts = SplitColon(text);
  LatencySpec parsed;
  const std::string usage =
      " (expected zero | fixed:K | uniform:LO:HI | lossy:P:MAX)";
  if (parts[0] == "zero") {
    if (parts.size() != 1) return "zero latency takes no parameters" + usage;
  } else if (parts[0] == "fixed") {
    parsed.kind = LatencyKind::kFixed;
    if (parts.size() != 2 || !ParseU64(parts[1], &parsed.fixed)) {
      return "cannot parse fixed latency '" + text + "'" + usage;
    }
  } else if (parts[0] == "uniform") {
    parsed.kind = LatencyKind::kUniform;
    if (parts.size() != 3 || !ParseU64(parts[1], &parsed.lo) ||
        !ParseU64(parts[2], &parsed.hi)) {
      return "cannot parse uniform latency '" + text + "'" + usage;
    }
  } else if (parts[0] == "lossy") {
    parsed.kind = LatencyKind::kLossy;
    if (parts.size() != 3 || !ParseStrictDouble(parts[1], &parsed.loss) ||
        !ParseU64(parts[2], &parsed.max_delay)) {
      return "cannot parse lossy latency '" + text + "'" + usage;
    }
  } else {
    return "unknown latency model '" + text + "'" + usage;
  }
  if (const std::string problem = parsed.Validate(); !problem.empty()) {
    return problem;
  }
  *spec = parsed;
  return "";
}

std::string FixedLatency::Name() const {
  return "fixed:" + std::to_string(k_);
}

std::string UniformLatency::Name() const {
  return "uniform:" + std::to_string(lo_) + ":" + std::to_string(hi_);
}

std::string LossyLatency::Name() const {
  return "lossy:" + FormatLoss(p_) + ":" + std::to_string(max_delay_);
}

std::unique_ptr<const LatencyModel> MakeLatencyModel(const LatencySpec& spec) {
  switch (spec.kind) {
    case LatencyKind::kZero:
      return std::make_unique<ZeroLatency>();
    case LatencyKind::kFixed:
      return std::make_unique<FixedLatency>(spec.fixed);
    case LatencyKind::kUniform:
      return std::make_unique<UniformLatency>(spec.lo, spec.hi);
    case LatencyKind::kLossy:
      return std::make_unique<LossyLatency>(spec.loss, spec.max_delay);
  }
  return std::make_unique<ZeroLatency>();
}

void DeliveryQueue::EnqueuePending(std::size_t shard, UserId sender,
                                   std::uint64_t send_cycle,
                                   std::uint64_t due_cycle,
                                   std::unique_ptr<DeliveryMessage> payload) {
  InFlight message;
  message.sender = sender;
  message.send_cycle = send_cycle;
  message.due_cycle = due_cycle;
  message.payload = std::move(payload);
  pending_[shard].push_back(std::move(message));
}

void DeliveryQueue::RecordPlannedDrop(std::size_t shard, UserId sender,
                                      std::uint64_t cycle) {
  ++pending_drops_[shard];
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.cycle = cycle;
    event.kind = TraceEventKind::kMessageDropped;
    event.node = sender;
    tracer_->EmitShard(shard, event);
  }
}

void DeliveryQueue::Fold() {
  for (std::size_t shard = 0; shard < kEngineShards; ++shard) {
    for (InFlight& message : pending_[shard]) {
      message.seq = next_seq_++;
      if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = message.send_cycle;
        event.kind = TraceEventKind::kMessageEnqueued;
        event.node = message.sender;
        event.id = message.seq;
        event.value =
            static_cast<std::int64_t>(message.due_cycle - message.send_cycle);
        tracer_->Emit(event);
      }
      due_[message.due_cycle].push_back(std::move(message));
      ++in_flight_;
      ++stats_.enqueued;
    }
    pending_[shard].clear();
    stats_.dropped += pending_drops_[shard];
    pending_drops_[shard] = 0;
  }
  if (in_flight_ > stats_.max_in_flight) stats_.max_in_flight = in_flight_;
}

std::vector<DeliveryQueue::InFlight> DeliveryQueue::TakeDue(
    std::uint64_t cycle) {
  std::vector<InFlight> out;
  while (!due_.empty() && due_.begin()->first <= cycle) {
    std::vector<InFlight>& bucket = due_.begin()->second;
    // Within a bucket entries are already in seq order; a stable sort by
    // sender yields the contract's (due cycle, sender, seq) order.
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const InFlight& a, const InFlight& b) {
                       return a.sender < b.sender;
                     });
    for (InFlight& message : bucket) {
      stats_.RecordDelivery(cycle - message.send_cycle);
      if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = cycle;
        event.kind = TraceEventKind::kMessageDelivered;
        event.node = message.sender;
        event.id = message.seq;
        event.value = static_cast<std::int64_t>(cycle - message.send_cycle);
        tracer_->Emit(event);
      }
      out.push_back(std::move(message));
    }
    in_flight_ -= bucket.size();
    due_.erase(due_.begin());
  }
  return out;
}

void DeliveryQueue::SaveState(const CycleProtocol& protocol,
                              CheckpointWriter* out,
                              ProfilePool* pool) const {
  out->U64(next_seq_);
  out->Put(stats_);
  out->U64(due_.size());
  for (const auto& [due_cycle, bucket] : due_) {
    out->U64(due_cycle);
    out->U64(bucket.size());
    for (const InFlight& message : bucket) {
      out->U32(message.sender);
      out->U64(message.send_cycle);
      out->U64(message.seq);
      protocol.EncodeMessage(*message.payload, out, pool);
    }
  }
  out->Sentinel();
}

void DeliveryQueue::LoadState(const CycleProtocol& protocol,
                              CheckpointReader* in,
                              const ProfileTable& profiles) {
  next_seq_ = in->U64();
  in->Get(&stats_);
  due_.clear();
  in_flight_ = 0;
  const std::uint64_t num_buckets = in->Count(16);
  std::uint64_t prev_due = 0;
  for (std::uint64_t b = 0; b < num_buckets; ++b) {
    const std::uint64_t due_cycle = in->U64();
    if (b > 0 && due_cycle <= prev_due) {
      throw CheckpointError(
          "corrupt checkpoint: delivery due cycles out of order");
    }
    prev_due = due_cycle;
    const std::uint64_t num_messages = in->Count(20);
    std::vector<InFlight>& bucket = due_[due_cycle];
    bucket.reserve(static_cast<std::size_t>(num_messages));
    for (std::uint64_t m = 0; m < num_messages; ++m) {
      InFlight message;
      message.sender = in->U32();
      message.send_cycle = in->U64();
      message.due_cycle = due_cycle;
      message.seq = in->U64();
      if (message.seq >= next_seq_ || message.send_cycle > due_cycle) {
        throw CheckpointError(
            "corrupt checkpoint: in-flight message with inconsistent "
            "sequence number or cycles");
      }
      message.payload = protocol.DecodeMessage(in, profiles);
      bucket.push_back(std::move(message));
      ++in_flight_;
    }
  }
  in->Sentinel("delivery queue");
}

}  // namespace p3q
