// Unit tests for core/personal_network: score-ordered bounded neighbour set
// with top-c replica storage and gossip timestamps.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/personal_network.h"
#include "sim/checkpoint.h"
#include "test_util.h"

namespace p3q {
namespace {

ProfilePtr MakeSnapshot(UserId owner, std::size_t num_actions,
                        std::uint32_t version = 0) {
  return test::MakeDisjointSnapshot(owner, num_actions, version);
}

DigestInfo MakeDigest(UserId owner, std::uint32_t version = 0) {
  return test::MakeDisjointDigest(owner, version);
}

TEST(PersonalNetworkTest, RejectsZeroScoreAndSelf) {
  PersonalNetwork net(1, 5, 2);
  EXPECT_FALSE(net.Consider(2, 0, MakeDigest(2), nullptr).accepted);
  EXPECT_FALSE(net.Consider(1, 10, MakeDigest(1), nullptr).accepted);
  EXPECT_TRUE(net.Empty());
}

TEST(PersonalNetworkTest, OrdersByScoreThenId) {
  PersonalNetwork net(0, 5, 5);
  net.Consider(3, 10, MakeDigest(3), nullptr);
  net.Consider(1, 20, MakeDigest(1), nullptr);
  net.Consider(2, 10, MakeDigest(2), nullptr);
  ASSERT_EQ(net.size(), 3u);
  EXPECT_EQ(net.entries()[0].user, 1u);
  EXPECT_EQ(net.entries()[1].user, 2u);  // tie at 10 -> lower id first
  EXPECT_EQ(net.entries()[2].user, 3u);
}

TEST(PersonalNetworkTest, EnforcesCapacityEvictingWorst) {
  PersonalNetwork net(0, 3, 3);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  net.Consider(2, 20, MakeDigest(2), nullptr);
  net.Consider(3, 30, MakeDigest(3), nullptr);
  // Worse than everything: rejected.
  EXPECT_FALSE(net.Consider(4, 5, MakeDigest(4), nullptr).accepted);
  EXPECT_EQ(net.size(), 3u);
  // Better than the worst: 1 is evicted.
  EXPECT_TRUE(net.Consider(5, 15, MakeDigest(5), nullptr).accepted);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_FALSE(net.Contains(1));
  EXPECT_TRUE(net.Contains(5));
}

TEST(PersonalNetworkTest, StoresProfilesOnlyForTopC) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  net.Consider(3, 30, MakeDigest(3), MakeSnapshot(3, 4));
  net.Consider(4, 40, MakeDigest(4), MakeSnapshot(4, 4));
  // Top-2 by score: 4 and 3.
  EXPECT_NE(net.StoredProfileOf(4), nullptr);
  EXPECT_NE(net.StoredProfileOf(3), nullptr);
  EXPECT_EQ(net.StoredProfileOf(2), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  EXPECT_EQ(net.StoredProfiles().size(), 2u);
}

TEST(PersonalNetworkTest, NewTopEntryDisplacesStoredProfile) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  EXPECT_NE(net.StoredProfileOf(1), nullptr);
  // A better candidate takes the single storage slot.
  const ConsiderOutcome outcome =
      net.Consider(2, 50, MakeDigest(2), MakeSnapshot(2, 4));
  EXPECT_TRUE(outcome.stored_profile);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  EXPECT_NE(net.StoredProfileOf(2), nullptr);
}

TEST(PersonalNetworkTest, ConsiderWithoutReplicaLeavesGap) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  const std::vector<UserId> need = net.EntriesNeedingProfile();
  ASSERT_EQ(need.size(), 1u);
  EXPECT_EQ(need[0], 1u);
}

TEST(PersonalNetworkTest, StaleReplicaReportedAsNeedingProfile) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  EXPECT_TRUE(net.EntriesNeedingProfile().empty());
  // A newer digest arrives without the profile body.
  net.Consider(1, 12, MakeDigest(1, 1), nullptr);
  const std::vector<UserId> need = net.EntriesNeedingProfile();
  ASSERT_EQ(need.size(), 1u);
  EXPECT_EQ(need[0], 1u);
  // Old replica still present (usable) until refreshed.
  EXPECT_NE(net.StoredProfileOf(1), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1)->version(), 0u);
}

TEST(PersonalNetworkTest, UpdateRefreshesScoreAndReplica) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  net.Consider(2, 20, MakeDigest(2, 0), MakeSnapshot(2, 4, 0));
  // Version-1 update of user 1 with a higher score reorders the network.
  const ConsiderOutcome outcome =
      net.Consider(1, 30, MakeDigest(1, 1), MakeSnapshot(1, 6, 1));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.stored_profile);  // replica refreshed
  EXPECT_EQ(net.entries()[0].user, 1u);
  EXPECT_EQ(net.StoredProfileOf(1)->version(), 1u);
}

TEST(PersonalNetworkTest, StaleOfferIgnored) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 5), MakeSnapshot(1, 4, 5));
  const ConsiderOutcome outcome =
      net.Consider(1, 3, MakeDigest(1, 2), MakeSnapshot(1, 2, 2));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(net.Find(1)->score, 10u);
}

TEST(PersonalNetworkTest, SameVersionReofferDoesNotReportTransfer) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  const ConsiderOutcome outcome =
      net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_FALSE(outcome.stored_profile);  // nothing new travelled
}

TEST(PersonalNetworkTest, TimestampsAgeAndReset) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  net.Consider(2, 20, MakeDigest(2), nullptr);
  net.Consider(3, 30, MakeDigest(3), nullptr);
  // Gossip with 2: everyone else ages.
  net.TouchGossiped(2);
  EXPECT_EQ(net.Find(2)->timestamp, 0u);
  EXPECT_EQ(net.Find(1)->timestamp, 1u);
  EXPECT_EQ(net.Find(3)->timestamp, 1u);
  net.TouchGossiped(1);
  // Oldest is now 3 (timestamp 2).
  EXPECT_EQ(net.OldestNeighbour(), 3u);
  // Skip list excludes 3: next oldest by tie-break (1 at ts 0 vs 2 at ts 1).
  EXPECT_EQ(net.OldestNeighbour({3}), 2u);
  net.ResetTimestamp(3);
  EXPECT_EQ(net.Find(3)->timestamp, 0u);
}

TEST(PersonalNetworkTest, OldestNeighbourOnEmpty) {
  PersonalNetwork net(0, 4, 2);
  EXPECT_EQ(net.OldestNeighbour(), kInvalidUser);
}

TEST(PersonalNetworkTest, MembersAndMembersWithoutProfile) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  net.Consider(3, 5, MakeDigest(3), MakeSnapshot(3, 4));
  EXPECT_EQ(net.Members(), (std::vector<UserId>{2, 1, 3}));
  // Only 2 (top-1) holds a profile; the remaining list is {1, 3}.
  EXPECT_EQ(net.MembersWithoutProfile(), (std::vector<UserId>{1, 3}));
}

TEST(PersonalNetworkTest, RemoveDropsEntryAndPromotesStorage) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  EXPECT_NE(net.StoredProfileOf(2), nullptr);
  net.Remove(2);
  EXPECT_FALSE(net.Contains(2));
  EXPECT_EQ(net.size(), 1u);
  // User 1 is now top-c but its replica was dropped earlier; it must be
  // reported as needing a profile.
  EXPECT_EQ(net.EntriesNeedingProfile(), (std::vector<UserId>{1}));
}

TEST(PersonalNetworkTest, StoredProfileActionsSumsLengths) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 3));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 5));
  EXPECT_EQ(net.StoredProfileActions(), 8u);
}

TEST(PersonalNetworkTest, KnownVersionSentinel) {
  PersonalNetwork net(0, 4, 2);
  EXPECT_EQ(net.KnownVersion(9), PersonalNetwork::kNoVersion);
  net.Consider(1, 10, MakeDigest(1, 7), nullptr);
  EXPECT_EQ(net.KnownVersion(1), 7u);
}

// ---------------------------------------------------------------------------
// Randomized differential test against the straightforward implementation:
// every operation re-sorts all entries, sweeps the storage invariant and
// rebuilds a hash index. PersonalNetwork must stay observably identical to
// it while touching only what each operation changes.
// ---------------------------------------------------------------------------

class ReferencePersonalNetwork {
 public:
  ReferencePersonalNetwork(UserId self, int s, int c)
      : self_(self), s_(s), c_(c) {}

  const std::vector<NetworkEntry>& entries() const { return entries_; }

  std::uint32_t KnownVersion(UserId user) const {
    auto it = index_.find(user);
    return it == index_.end() ? PersonalNetwork::kNoVersion
                              : entries_[it->second].digest.version();
  }

  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica) {
    ConsiderOutcome outcome;
    if (user == self_ || score == 0) return outcome;
    auto it = index_.find(user);
    if (it != index_.end()) {
      NetworkEntry& entry = entries_[it->second];
      if (digest.version() < entry.digest.version()) return outcome;
      const std::uint32_t old_stored_version =
          entry.HasStoredProfile() ? entry.stored_profile->version()
                                   : PersonalNetwork::kNoVersion;
      entry.score = score;
      entry.digest = digest;
      if (replica != nullptr &&
          (old_stored_version == PersonalNetwork::kNoVersion ||
           replica->version() > old_stored_version)) {
        entry.stored_profile = std::move(replica);
      }
      Resort();
      outcome.accepted = true;
      const NetworkEntry& now = entries_[index_.at(user)];
      outcome.stored_profile =
          now.HasStoredProfile() &&
          (old_stored_version == PersonalNetwork::kNoVersion ||
           now.stored_profile->version() > old_stored_version);
      return outcome;
    }
    NetworkEntry entry;
    entry.user = user;
    entry.score = score;
    if (static_cast<int>(entries_.size()) >= s_) {
      if (!Before(entry, entries_.back())) return outcome;
      entries_.pop_back();
    }
    entry.digest = digest;
    entry.stored_profile = std::move(replica);
    entries_.push_back(std::move(entry));
    Resort();
    outcome.accepted = true;
    outcome.stored_profile = entries_[index_.at(user)].HasStoredProfile();
    return outcome;
  }

  std::vector<UserId> EntriesNeedingProfile() const {
    std::vector<UserId> out;
    for (std::size_t i = 0;
         i < entries_.size() && i < static_cast<std::size_t>(c_); ++i) {
      const NetworkEntry& e = entries_[i];
      if (!e.HasStoredProfile() ||
          e.stored_profile->version() < e.digest.version()) {
        out.push_back(e.user);
      }
    }
    return out;
  }

  UserId OldestNeighbour(const std::vector<UserId>& skip) const {
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

  void TouchGossiped(UserId user) {
    for (NetworkEntry& e : entries_) {
      e.timestamp = e.user == user ? 0 : e.timestamp + 1;
    }
  }

  void ResetTimestamp(UserId user) {
    auto it = index_.find(user);
    if (it != index_.end()) entries_[it->second].timestamp = 0;
  }

  std::vector<ProfilePtr> StoredProfiles() const {
    std::vector<ProfilePtr> out;
    for (const NetworkEntry& e : entries_) {
      if (e.HasStoredProfile()) out.push_back(e.stored_profile);
    }
    return out;
  }

  void Remove(UserId user) {
    auto it = index_.find(user);
    if (it == index_.end()) return;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(it->second));
    Resort();
  }

 private:
  static bool Before(const NetworkEntry& a, const NetworkEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.user < b.user;
  }

  void Resort() {
    std::sort(entries_.begin(), entries_.end(), Before);
    for (std::size_t i = static_cast<std::size_t>(c_); i < entries_.size();
         ++i) {
      entries_[i].stored_profile.reset();
    }
    index_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_[entries_[i].user] = i;
    }
  }

  UserId self_;
  int s_;
  int c_;
  std::vector<NetworkEntry> entries_;
  std::unordered_map<UserId, std::size_t> index_;
};

/// Users whose entry ranks in the top-c.
std::set<UserId> TopC(const std::vector<NetworkEntry>& entries, int c) {
  std::set<UserId> out;
  for (std::size_t i = 0; i < entries.size() && i < static_cast<std::size_t>(c);
       ++i) {
    out.insert(entries[i].user);
  }
  return out;
}

void ExpectSameEntries(const std::vector<NetworkEntry>& want,
                       const std::vector<NetworkEntry>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want[i].user, got[i].user);
    EXPECT_EQ(want[i].score, got[i].score);
    EXPECT_EQ(want[i].digest.user, got[i].digest.user);
    EXPECT_EQ(want[i].digest.snapshot, got[i].digest.snapshot);
    EXPECT_EQ(want[i].timestamp, got[i].timestamp);
    EXPECT_EQ(want[i].stored_profile, got[i].stored_profile);
  }
}

/// How often a random run hit each case the incremental updates must get
/// right.
struct Coverage {
  int ties = 0;           // an offer's score equals another member's
  int evictions = 0;      // a full network admitted a new user
  int crossed_up = 0;     // a member entered the top-c
  int crossed_down = 0;   // a member left the top-c but stayed
  int same_version = 0;   // a member re-offered at its digest's version
  int newer_version = 0;  // a member re-offered at a newer version
  int null_replicas = 0;  // an offer without a replica
};

struct DifferentialCase {
  int s;
  int c;
  int steps;
};

class PersonalNetworkDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(PersonalNetworkDifferentialTest, MatchesReferenceStepByStep) {
  const DifferentialCase param = GetParam();
  const UserId self = 0;
  // A universe about 1.5x the capacity keeps the network full and churning;
  // a score range of about s/2 makes ties common.
  const UserId universe = static_cast<UserId>(param.s + param.s / 2 + 3);
  const std::uint64_t max_score =
      static_cast<std::uint64_t>(std::max(3, param.s / 2));
  PersonalNetwork net(self, param.s, param.c);
  ReferencePersonalNetwork ref(self, param.s, param.c);
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(param.s * 1000 + param.c));

  std::vector<std::uint32_t> latest(universe, 0);  // newest version per user
  std::map<std::pair<UserId, std::uint32_t>, ProfilePtr> snapshots;
  const auto snapshot = [&snapshots](UserId user, std::uint32_t version) {
    ProfilePtr& p = snapshots[{user, version}];
    if (p == nullptr) p = test::MakeDisjointSnapshot(user, 2, version, 64);
    return p;
  };

  Coverage seen;
  for (int step = 0; step < param.steps; ++step) {
    SCOPED_TRACE(step);
    const UserId user = static_cast<UserId>(rng.NextUint64(universe));
    const std::uint64_t op = rng.NextUint64(10);
    const std::vector<NetworkEntry> before = ref.entries();
    if (op < 7) {
      // Versions: mostly the newest known, sometimes a bump, sometimes a
      // stale one (rejected when the member holds a newer digest).
      std::uint32_t version = latest[user];
      const std::uint64_t v = rng.NextUint64(6);
      if (v == 0) version = ++latest[user];
      if (v == 1 && version > 0) version = static_cast<std::uint32_t>(
                                     rng.NextUint64(version));
      // Score 0 now and then (rejected); otherwise a small range for ties.
      const std::uint64_t score =
          rng.NextUint64(20) == 0 ? 0 : 1 + rng.NextUint64(max_score);
      // Replicas: none, the digest's version, or an older one.
      ProfilePtr replica;
      const std::uint64_t r = rng.NextUint64(3);
      if (r == 1) replica = snapshot(user, version);
      if (r == 2) replica = snapshot(
          user, static_cast<std::uint32_t>(rng.NextUint64(version + 1)));
      const DigestInfo digest{user, snapshot(user, version)};

      const std::uint32_t known = ref.KnownVersion(user);
      if (known != PersonalNetwork::kNoVersion) {
        seen.same_version += version == known;
        seen.newer_version += version > known;
      } else if (static_cast<int>(before.size()) == param.s) {
        const NetworkEntry& worst = before.back();
        seen.evictions += score > 0 && user != self &&
                          (score > worst.score ||
                           (score == worst.score && user < worst.user));
      }
      seen.null_replicas += replica == nullptr;
      seen.ties += std::any_of(before.begin(), before.end(),
                               [&](const NetworkEntry& e) {
                                 return e.user != user && e.score == score;
                               });

      const ConsiderOutcome want = ref.Consider(user, score, digest, replica);
      const ConsiderOutcome got = net.Consider(user, score, digest, replica);
      EXPECT_EQ(want.accepted, got.accepted);
      EXPECT_EQ(want.stored_profile, got.stored_profile);
    } else if (op == 7) {
      ref.Remove(user);
      net.Remove(user);
    } else if (op == 8) {
      ref.TouchGossiped(user);
      net.TouchGossiped(user);
    } else {
      ref.ResetTimestamp(user);
      net.ResetTimestamp(user);
    }

    const std::set<UserId> top_before = TopC(before, param.c);
    const std::set<UserId> top_after = TopC(ref.entries(), param.c);
    for (const NetworkEntry& e : ref.entries()) {
      seen.crossed_up +=
          top_after.count(e.user) > 0 && top_before.count(e.user) == 0 &&
          std::any_of(before.begin(), before.end(),
                      [&](const NetworkEntry& b) { return b.user == e.user; });
      seen.crossed_down +=
          top_before.count(e.user) > 0 && top_after.count(e.user) == 0;
    }

    ExpectSameEntries(ref.entries(), net.entries());
    EXPECT_EQ(ref.EntriesNeedingProfile(), net.EntriesNeedingProfile());
    EXPECT_EQ(ref.StoredProfiles(), net.StoredProfiles());
    EXPECT_EQ(ref.OldestNeighbour({}), net.OldestNeighbour());
    const std::vector<UserId> skip = {user, (user + 1) % universe};
    EXPECT_EQ(ref.OldestNeighbour(skip), net.OldestNeighbour(skip));
    for (UserId u = 0; u < universe; ++u) {
      ASSERT_EQ(ref.KnownVersion(u), net.KnownVersion(u)) << "user " << u;
    }
    if (HasFailure()) return;
  }

  EXPECT_GT(seen.ties, 0);
  EXPECT_GT(seen.evictions, 0);
  EXPECT_GT(seen.same_version, 0);
  EXPECT_GT(seen.newer_version, 0);
  EXPECT_GT(seen.null_replicas, 0);
  if (param.c > 0 && param.c < param.s) {
    EXPECT_GT(seen.crossed_up, 0);
    EXPECT_GT(seen.crossed_down, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, PersonalNetworkDifferentialTest,
    ::testing::Values(DifferentialCase{1, 0, 2000},
                      DifferentialCase{1, 1, 2000},
                      DifferentialCase{7, 0, 3000},
                      DifferentialCase{7, 1, 3000},
                      DifferentialCase{7, 3, 3000},
                      DifferentialCase{7, 7, 3000},
                      DifferentialCase{300, 0, 4000},
                      DifferentialCase{300, 1, 4000},
                      DifferentialCase{300, 10, 4000},
                      DifferentialCase{300, 300, 4000}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      std::string name = "s";
      name += std::to_string(info.param.s);
      name += "_c";
      name += std::to_string(info.param.c);
      return name;
    });

// The rank index is derived state: a checkpoint holds the entries only, so a
// round trip restores identical entries and re-encodes to identical bytes.
TEST(PersonalNetworkTest, CheckpointRoundTripIsByteIdentical) {
  PersonalNetwork net(0, 6, 3);
  net.Consider(1, 10, MakeDigest(1, 2), MakeSnapshot(1, 4, 2));
  net.Consider(2, 30, MakeDigest(2, 0), MakeSnapshot(2, 5, 0));
  net.Consider(3, 30, MakeDigest(3, 1), nullptr);  // tie with 2; no replica
  net.Consider(4, 20, MakeDigest(4, 0), MakeSnapshot(4, 3, 0));
  net.Consider(4, 25, MakeDigest(4, 3), nullptr);  // replica now stale
  net.Consider(5, 5, MakeDigest(5, 0), MakeSnapshot(5, 2, 0));  // past top-c
  net.TouchGossiped(2);
  net.TouchGossiped(5);
  net.ResetTimestamp(1);
  ASSERT_EQ(net.size(), 5u);
  ASSERT_EQ(net.StoredProfiles().size(), 2u);

  const auto encode = [](const PersonalNetwork& n) {
    ProfilePool pool;
    CheckpointWriter body(&pool);
    body.Put(n);
    CheckpointWriter framed;
    pool.Serialize(&framed);
    framed.Append(body);
    return framed.buffer();
  };
  const std::vector<std::uint8_t> bytes = encode(net);
  CheckpointReader in(bytes.data(), bytes.size());
  in.ReadProfiles(MakeSnapshot(1, 1)->digest().num_bits(), nullptr);
  PersonalNetwork back(0, 6, 3);
  in.Get(&back);
  in.ExpectEnd();

  ASSERT_EQ(back.size(), net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    SCOPED_TRACE(i);
    const NetworkEntry& want = net.entries()[i];
    const NetworkEntry& got = back.entries()[i];
    EXPECT_EQ(got.user, want.user);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.digest.user, want.digest.user);
    EXPECT_EQ(got.digest.version(), want.digest.version());
    EXPECT_EQ(got.timestamp, want.timestamp);
    ASSERT_EQ(got.HasStoredProfile(), want.HasStoredProfile());
    if (want.HasStoredProfile()) {
      EXPECT_EQ(got.stored_profile->version(), want.stored_profile->version());
    }
    EXPECT_EQ(back.KnownVersion(want.user), net.KnownVersion(want.user));
  }
  EXPECT_EQ(back.EntriesNeedingProfile(), net.EntriesNeedingProfile());
  EXPECT_EQ(encode(back), bytes);
}

}  // namespace
}  // namespace p3q
