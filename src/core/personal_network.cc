#include "core/personal_network.h"

#include <algorithm>
#include <string>

#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// Ordering of the network: higher score first, then lower user id so the
/// order (and thus the stored top-c set) is deterministic.
bool EntryBefore(const NetworkEntry& a, const NetworkEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.user < b.user;
}

}  // namespace

PersonalNetwork::PersonalNetwork(UserId self, int s, int c)
    : self_(self), s_(s), c_(c) {
  entries_.reserve(static_cast<std::size_t>(s));
}

const NetworkEntry* PersonalNetwork::Find(UserId user) const {
  auto it = index_.find(user);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

std::uint32_t PersonalNetwork::KnownVersion(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? kNoVersion : e->digest.version();
}

void PersonalNetwork::Reindex() {
  index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_[entries_[i].user] = i;
  }
}

void PersonalNetwork::RebalanceStorage() {
  // Exactly the entries ranked in the top-c may hold replicas.
  for (std::size_t i = static_cast<std::size_t>(c_); i < entries_.size(); ++i) {
    entries_[i].stored_profile.reset();
  }
}

ConsiderOutcome PersonalNetwork::Consider(UserId user, std::uint64_t score,
                                          const DigestInfo& digest,
                                          ProfilePtr replica) {
  ConsiderOutcome outcome;
  if (user == self_ || score == 0) return outcome;

  auto it = index_.find(user);
  if (it != index_.end()) {
    NetworkEntry& entry = entries_[it->second];
    // Refresh only when the offered digest is at least as new as ours.
    if (digest.version() < entry.digest.version()) return outcome;
    const std::uint32_t old_stored_version =
        entry.HasStoredProfile() ? entry.stored_profile->version() : kNoVersion;
    entry.score = score;
    entry.digest = digest;
    if (replica != nullptr &&
        (old_stored_version == kNoVersion ||
         replica->version() > old_stored_version)) {
      entry.stored_profile = std::move(replica);
    }
    std::sort(entries_.begin(), entries_.end(), EntryBefore);
    RebalanceStorage();
    Reindex();
    outcome.accepted = true;
    // A transfer happened iff the entry now stores a replica strictly newer
    // than what it stored before (or one where none existed).
    const NetworkEntry* now = Find(user);
    outcome.stored_profile =
        now->HasStoredProfile() &&
        (old_stored_version == kNoVersion ||
         now->stored_profile->version() > old_stored_version);
    return outcome;
  }

  // New candidate: qualify against the current worst when full.
  if (static_cast<int>(entries_.size()) >= s_) {
    const NetworkEntry& worst = entries_.back();
    NetworkEntry probe;
    probe.user = user;
    probe.score = score;
    if (!EntryBefore(probe, worst)) return outcome;
    entries_.pop_back();
  }
  NetworkEntry entry;
  entry.user = user;
  entry.score = score;
  entry.digest = digest;
  entry.timestamp = 0;
  entry.stored_profile = std::move(replica);
  entries_.push_back(std::move(entry));
  std::sort(entries_.begin(), entries_.end(), EntryBefore);
  RebalanceStorage();
  Reindex();
  outcome.accepted = true;
  outcome.stored_profile = Find(user)->HasStoredProfile();
  return outcome;
}

std::vector<UserId> PersonalNetwork::EntriesNeedingProfile() const {
  std::vector<UserId> out;
  const std::size_t limit =
      std::min(entries_.size(), static_cast<std::size_t>(c_));
  for (std::size_t i = 0; i < limit; ++i) {
    const NetworkEntry& e = entries_[i];
    if (!e.HasStoredProfile() ||
        e.stored_profile->version() < e.digest.version()) {
      out.push_back(e.user);
    }
  }
  return out;
}

UserId PersonalNetwork::OldestNeighbour(const std::vector<UserId>& skip) const {
  UserId best = kInvalidUser;
  std::uint32_t best_ts = 0;
  for (const NetworkEntry& e : entries_) {
    if (std::find(skip.begin(), skip.end(), e.user) != skip.end()) continue;
    if (best == kInvalidUser || e.timestamp > best_ts ||
        (e.timestamp == best_ts && e.user < best)) {
      best = e.user;
      best_ts = e.timestamp;
    }
  }
  return best;
}

void PersonalNetwork::TouchGossiped(UserId user) {
  for (NetworkEntry& e : entries_) {
    if (e.user == user) {
      e.timestamp = 0;
    } else {
      ++e.timestamp;
    }
  }
}

void PersonalNetwork::ResetTimestamp(UserId user) {
  auto it = index_.find(user);
  if (it != index_.end()) entries_[it->second].timestamp = 0;
}

std::vector<ProfilePtr> PersonalNetwork::StoredProfiles() const {
  std::vector<ProfilePtr> out;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) out.push_back(e.stored_profile);
  }
  return out;
}

ProfilePtr PersonalNetwork::StoredProfileOf(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? nullptr : e->stored_profile;
}

std::vector<UserId> PersonalNetwork::Members() const {
  std::vector<UserId> out;
  out.reserve(entries_.size());
  for (const NetworkEntry& e : entries_) out.push_back(e.user);
  return out;
}

std::vector<UserId> PersonalNetwork::MembersWithoutProfile() const {
  std::vector<UserId> out;
  for (const NetworkEntry& e : entries_) {
    if (!e.HasStoredProfile()) out.push_back(e.user);
  }
  return out;
}

void PersonalNetwork::Remove(UserId user) {
  auto it = index_.find(user);
  if (it == index_.end()) return;
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(it->second));
  RebalanceStorage();
  Reindex();
}

void NetworkEntry::FinishLoad() const {
  if (digest.user != user ||
      (stored_profile != nullptr && stored_profile->owner() != user)) {
    throw CheckpointError("corrupt checkpoint: personal-network entry for "
                          "user " + std::to_string(user) +
                          " carries another user's profile");
  }
}

void PersonalNetwork::FinishLoad() {
  std::sort(entries_.begin(), entries_.end(), EntryBefore);
  RebalanceStorage();
  Reindex();
}

std::size_t PersonalNetwork::StoredProfileActions() const {
  std::size_t total = 0;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) total += e.stored_profile->Length();
  }
  return total;
}

}  // namespace p3q
