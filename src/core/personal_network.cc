#include "core/personal_network.h"

#include <algorithm>
#include <bit>
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

bool PersonalNetwork::RankIndex::Set(UserId user, std::uint32_t rank) {
  if (3 * (static_cast<std::size_t>(count_) + 1) > 2 * slots_.size()) Grow();
  std::uint32_t i = Home(user);
  while (slots_[i].user != kInvalidUser && slots_[i].user != user) {
    i = (i + 1) & mask_;
  }
  const bool inserted = slots_[i].user == kInvalidUser;
  count_ += inserted ? 1 : 0;
  slots_[i] = {user, rank};
  return inserted;
}

void PersonalNetwork::RankIndex::Grow() {
  std::vector<Slot> old(std::max<std::size_t>(8, 2 * slots_.size()));
  old.swap(slots_);
  mask_ = static_cast<std::uint32_t>(slots_.size() - 1);
  shift_ = 32 - std::countr_zero(slots_.size());
  for (const Slot& slot : old) {
    if (slot.user == kInvalidUser) continue;
    std::uint32_t i = Home(slot.user);
    while (slots_[i].user != kInvalidUser) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

void PersonalNetwork::RankIndex::Erase(UserId user) {
  if (count_ == 0) return;
  std::uint32_t hole = Home(user);
  while (slots_[hole].user != user) {
    if (slots_[hole].user == kInvalidUser) return;
    hole = (hole + 1) & mask_;
  }
  --count_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when their home slot does not lie cyclically in (hole, i].
  for (std::uint32_t i = (hole + 1) & mask_; slots_[i].user != kInvalidUser;
       i = (i + 1) & mask_) {
    const std::uint32_t home = Home(slots_[i].user);
    if (((i - home) & mask_) >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
}

void PersonalNetwork::RankIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  count_ = 0;
}

PersonalNetwork::PersonalNetwork(UserId self, int s, int c)
    : self_(self), s_(s), c_(c) {
  entries_.reserve(static_cast<std::size_t>(s));
}

void PersonalNetwork::FixRange(std::size_t first, std::size_t last) {
  const std::size_t c = static_cast<std::size_t>(c_);
  for (std::size_t i = first; i < last; ++i) {
    index_.Set(entries_[i].user, static_cast<std::uint32_t>(i));
    if (i >= c) entries_[i].stored_profile.reset();
  }
}

void PersonalNetwork::Reposition(std::size_t from) {
  const auto begin = entries_.begin();
  const auto at = begin + static_cast<std::ptrdiff_t>(from);
  const NetworkEntry& moved = *at;
  const auto precedes = [&moved](const NetworkEntry& e) {
    return EntryBefore(e, moved);
  };
  if (at != begin && EntryBefore(moved, at[-1])) {
    const auto to = std::partition_point(begin, at, precedes);
    std::rotate(to, at, at + 1);
    FixRange(static_cast<std::size_t>(to - begin), from + 1);
  } else {
    const auto to = std::partition_point(at + 1, entries_.end(), precedes);
    std::rotate(at, at + 1, to);
    FixRange(from, static_cast<std::size_t>(to - begin));
  }
}

ConsiderOutcome PersonalNetwork::Consider(UserId user, std::uint64_t score,
                                          const DigestInfo& digest,
                                          ProfilePtr replica) {
  ConsiderOutcome outcome;
  if (user == self_ || user == kInvalidUser || score == 0) return outcome;

  const std::uint32_t pos = index_.Find(user);
  if (pos != kAbsent) {
    NetworkEntry& entry = entries_[pos];
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
    Reposition(pos);
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

  NetworkEntry entry;
  entry.user = user;
  entry.score = score;
  // New candidate: qualify against the current worst when full.
  if (static_cast<int>(entries_.size()) >= s_) {
    if (entries_.empty() || !EntryBefore(entry, entries_.back())) {
      return outcome;
    }
    index_.Erase(entries_.back().user);
    entries_.pop_back();
  }
  entry.digest = digest;
  entry.stored_profile = std::move(replica);
  const auto at = std::partition_point(
      entries_.begin(), entries_.end(),
      [&entry](const NetworkEntry& e) { return EntryBefore(e, entry); });
  const std::size_t rank = static_cast<std::size_t>(at - entries_.begin());
  entries_.insert(at, std::move(entry));
  FixRange(rank, entries_.size());
  outcome.accepted = true;
  outcome.stored_profile = entries_[rank].HasStoredProfile();
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
  const std::uint32_t pos = index_.Find(user);
  if (pos != kAbsent) entries_[pos].timestamp = 0;
}

std::vector<ProfilePtr> PersonalNetwork::StoredProfiles() const {
  std::vector<ProfilePtr> out;
  const std::size_t limit =
      std::min(entries_.size(), static_cast<std::size_t>(c_));
  for (std::size_t i = 0; i < limit; ++i) {
    const NetworkEntry& e = entries_[i];
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
  const std::uint32_t pos = index_.Find(user);
  if (pos == kAbsent) return;
  index_.Erase(user);
  entries_.erase(entries_.begin() + pos);
  // Entries only move up a rank, so none newly falls past the top-c.
  FixRange(pos, entries_.size());
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
  if (entries_.size() > static_cast<std::size_t>(s_)) {
    throw CheckpointError("corrupt checkpoint: personal network of user " +
                          std::to_string(self_) + " holds " +
                          std::to_string(entries_.size()) +
                          " entries, capacity " + std::to_string(s_));
  }
  std::sort(entries_.begin(), entries_.end(), EntryBefore);
  index_.Clear();
  for (const NetworkEntry& e : entries_) {
    if (e.user == kInvalidUser || !index_.Set(e.user, 0)) {
      throw CheckpointError("corrupt checkpoint: personal network of user " +
                            std::to_string(self_) + " repeats entry " +
                            std::to_string(e.user));
    }
  }
  FixRange(0, entries_.size());
}

std::size_t PersonalNetwork::StoredProfileActions() const {
  std::size_t total = 0;
  const std::size_t limit =
      std::min(entries_.size(), static_cast<std::size_t>(c_));
  for (std::size_t i = 0; i < limit; ++i) {
    if (entries_[i].HasStoredProfile()) {
      total += entries_[i].stored_profile->Length();
    }
  }
  return total;
}

}  // namespace p3q
