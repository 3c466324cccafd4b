#include "gossip/peer_sampling.h"

#include <algorithm>
#include <unordered_map>

#include "sim/checkpoint.h"

namespace p3q {

void DigestInfo::FinishLoad() const {
  if (snapshot == nullptr) {
    throw CheckpointError(
        "corrupt checkpoint: digest descriptor without a profile snapshot");
  }
}

RandomView::RandomView(UserId self, std::size_t capacity)
    : self_(self), capacity_(capacity) {}

void RandomView::Init(std::vector<DigestInfo> entries) {
  entries_ = std::move(entries);
  if (entries_.size() > capacity_) entries_.resize(capacity_);
}

std::vector<DigestInfo> RandomView::MakeExchangePayload(
    const DigestInfo& self_digest) const {
  std::vector<DigestInfo> payload = entries_;
  payload.push_back(self_digest);
  return payload;
}

void RandomView::Merge(const std::vector<DigestInfo>& received, Rng* rng) {
  // Union by user, keeping the freshest digest of each.
  std::unordered_map<UserId, DigestInfo> merged;
  merged.reserve(entries_.size() + received.size());
  auto absorb = [&](const DigestInfo& d) {
    if (d.user == self_) return;
    auto [it, inserted] = merged.emplace(d.user, d);
    if (!inserted && d.version() > it->second.version()) it->second = d;
  };
  for (const auto& d : entries_) absorb(d);
  for (const auto& d : received) absorb(d);

  std::vector<DigestInfo> pool;
  pool.reserve(merged.size());
  for (auto& [user, d] : merged) pool.push_back(std::move(d));
  if (pool.size() <= capacity_) {
    entries_ = std::move(pool);
    return;
  }
  entries_ = rng->SampleWithoutReplacement(pool, capacity_);
}

void RandomView::Remove(UserId user) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [user](const DigestInfo& d) {
                                  return d.user == user;
                                }),
                 entries_.end());
}

}  // namespace p3q
