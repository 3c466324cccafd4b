// The personal network: a user's implicit social acquaintances (Section 2.1).
//
// Network(u) holds the s users with the highest similarity scores, each with
// her score, profile digest, and a timestamp counting "for how many cycles
// she has not been gossiped with". Only the profiles of the c highest-scored
// entries are stored locally (the replicas queries are computed from); the
// remaining s-c entries are ids+digests only and form the remaining lists of
// eager mode.
//
// Every operation touches only what it changes: an offer finds its rank by
// binary search and rotates the entry into place, and only the shifted range
// gets its index slots and replicas fixed up (docs/ARCHITECTURE.md, "The
// personal network").
#ifndef P3Q_CORE_PERSONAL_NETWORK_H_
#define P3Q_CORE_PERSONAL_NETWORK_H_

#include <cstdint>
#include <vector>

#include "gossip/view.h"
#include "profile/profile.h"

namespace p3q {

/// One neighbour of a personal network.
struct NetworkEntry {
  UserId user = kInvalidUser;
  /// Score_self(user) = common tagging actions, computed against the
  /// `digest` snapshot version.
  std::uint64_t score = 0;
  /// Digest descriptor of the neighbour (always present).
  DigestInfo digest;
  /// Cycles since this neighbour was last gossiped with.
  std::uint32_t timestamp = 0;
  /// Stored profile replica — non-null only while the entry ranks in the
  /// top-c. Version always equals digest.version().
  ProfilePtr stored_profile;

  bool HasStoredProfile() const { return stored_profile != nullptr; }

  /// The checkpoint field list (sim/checkpoint.h).
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.user...);
    f(s.score...);
    f(s.digest...);
    f(s.timestamp...);
    f(s.stored_profile...);
  }
  /// Checkpoint load hook: digest and replica must be the neighbour's own.
  void FinishLoad() const;
};

/// Outcome of offering a candidate to the network.
struct ConsiderOutcome {
  /// Candidate was inserted or its replica/score was refreshed.
  bool accepted = false;
  /// Candidate now ranks in the top-c and its profile replica was stored
  /// (the caller must account the full-profile transfer).
  bool stored_profile = false;
};

/// A size-bounded, score-ordered set of neighbours.
class PersonalNetwork {
 public:
  /// self: owner; s: network capacity; c: stored-profile capacity (c <= s).
  PersonalNetwork(UserId self, int s, int c);

  int capacity() const { return s_; }
  int storage_capacity() const { return c_; }
  std::size_t size() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }

  /// Entries ordered by descending score (ties: ascending user id).
  const std::vector<NetworkEntry>& entries() const { return entries_; }

  bool Contains(UserId user) const { return index_.Find(user) != kAbsent; }

  /// Entry of `user`, or nullptr.
  const NetworkEntry* Find(UserId user) const {
    const std::uint32_t pos = index_.Find(user);
    return pos == kAbsent ? nullptr : &entries_[pos];
  }

  /// Version of the digest we hold for `user`; kNoVersion when absent.
  static constexpr std::uint32_t kNoVersion = 0xffffffffu;
  std::uint32_t KnownVersion(UserId user) const {
    const NetworkEntry* e = Find(user);
    return e == nullptr ? kNoVersion : e->digest.version();
  }

  /// Offers a scored candidate. Inserts when the score qualifies for the
  /// top-s (score must be > 0; the owner and kInvalidUser never join),
  /// refreshes score/digest when the candidate is already a neighbour,
  /// stores/evicts replicas so that exactly the top-c entries hold profiles.
  /// `replica` may be null when the caller only has the digest; in that case
  /// the entry joins without a stored profile even if it ranks top-c (the
  /// caller should then fetch the profile — see EntriesNeedingProfile).
  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica);

  /// Entries ranked in the top-c whose replica is missing or older than the
  /// digest we know about (they are entitled to storage; the protocol
  /// fetches their profiles in step 3 of Algorithm 1).
  std::vector<UserId> EntriesNeedingProfile() const;

  /// Neighbour with the largest timestamp (the one not gossiped with for
  /// longest); kInvalidUser when empty. `skip` users are excluded (offline
  /// retry).
  UserId OldestNeighbour(const std::vector<UserId>& skip = {}) const;

  /// Marks `user` as just-gossiped-with (timestamp 0) and ages every other
  /// neighbour by one cycle. Initiator-side bookkeeping of the lazy mode.
  void TouchGossiped(UserId user);

  /// Resets `user`'s timestamp without ageing the others (responder-side:
  /// the responder did gossip with the initiator this cycle, but her own
  /// ageing happens when she initiates).
  void ResetTimestamp(UserId user);

  /// Stored profile replicas (the c highest-scored entries, score order).
  std::vector<ProfilePtr> StoredProfiles() const;

  /// Stored replica of `user`, or null.
  ProfilePtr StoredProfileOf(UserId user) const;

  /// All member ids (score order).
  std::vector<UserId> Members() const;

  /// Member ids without a stored replica — the initial remaining list of a
  /// query (score order).
  std::vector<UserId> MembersWithoutProfile() const;

  /// Removes a user entirely (e.g. permanently departed).
  void Remove(UserId user);

  /// Sum of stored-replica lengths (the paper's storage metric, Fig. 5).
  std::size_t StoredProfileActions() const;

  /// The checkpoint field list (sim/checkpoint.h) and its load hook, which
  /// re-sorts the entries into canonical order and rebuilds the index (the
  /// index is derived state and never serialized). Entries past the top-c
  /// lose any stored replica (the storage invariant); a repeated user or
  /// more than s entries is rejected.
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.entries_...);
  }
  void FinishLoad();

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// user -> rank, as a flat open-addressing table (linear probing,
  /// backward-shift erase, no tombstones) kept at a load of at most 2/3.
  /// It doubles as the network fills, so it holds 1.5-3 slots per member,
  /// and a lookup never chases a node pointer.
  class RankIndex {
   public:
    /// Rank of `user`, or kAbsent.
    std::uint32_t Find(UserId user) const {
      if (count_ == 0) return kAbsent;
      for (std::uint32_t i = Home(user);; i = (i + 1) & mask_) {
        if (slots_[i].user == kInvalidUser) return kAbsent;
        if (slots_[i].user == user) return slots_[i].rank;
      }
    }
    /// Sets the rank of `user`, inserting it when absent; returns false when
    /// it was already present.
    bool Set(UserId user, std::uint32_t rank);
    void Erase(UserId user);
    void Clear();

   private:
    struct Slot {
      UserId user = kInvalidUser;
      std::uint32_t rank = 0;
    };
    std::uint32_t Home(UserId user) const {
      return (user * 0x9e3779b1u) >> shift_;
    }
    void Grow();

    std::vector<Slot> slots_;
    std::uint32_t count_ = 0;
    std::uint32_t mask_ = 0;
    int shift_ = 32;
  };

  /// Moves the entry at rank `from` to the rank the order gives it, then
  /// fixes the index and the storage invariant over the shifted range.
  void Reposition(std::size_t from);
  /// Re-points the index at ranks [first, last) and drops the replicas of
  /// those past the top-c.
  void FixRange(std::size_t first, std::size_t last);

  UserId self_;
  int s_;
  int c_;
  std::vector<NetworkEntry> entries_;  // sorted: score desc, id asc
  RankIndex index_;
};

}  // namespace p3q

#endif  // P3Q_CORE_PERSONAL_NETWORK_H_
