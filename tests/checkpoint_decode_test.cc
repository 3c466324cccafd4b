// Decode-side semantic checks of the checkpoint loaders, one case each.
//
// A checkpoint file carries a CRC, so flipping bits in a real snapshot only
// ever exercises the checksum. These cases hand-build CRC-free payloads from
// the writer's primitives and feed them straight to each type's load path,
// so every structural check behind the checksum is proven to throw a
// CheckpointError that names what it rejected.
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/eager_protocol.h"
#include "core/lazy_protocol.h"
#include "core/p3q_system.h"
#include "core/topk.h"
#include "serving/lifecycle.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "test_util.h"

namespace p3q {
namespace {

constexpr int kUsers = 6;
constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();

/// Decodes `w`'s bytes through `load` and expects a CheckpointError whose
/// message mentions `needle`.
void ExpectRejected(const CheckpointWriter& w,
                    const std::function<void(CheckpointReader*)>& load,
                    const std::string& needle) {
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  try {
    load(&r);
    ADD_FAILURE() << "payload accepted; expected an error mentioning \""
                  << needle << "\"";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void PutRng(CheckpointWriter* w) {
  for (std::uint64_t word = 1; word <= 4; ++word) w->U64(word);
}

/// An empty IncrementalNra: k, entries scanned, no lists, no candidates.
void PutEmptyNra(CheckpointWriter* w) {
  w->U32(3);
  w->U64(0);
  w->U64(0);
  w->U64(0);
}

/// An ActiveQuery with no tags, lists, inbox or history.
void PutEmptyQuery(CheckpointWriter* w, std::uint64_t id) {
  w->U64(id);
  w->U32(0);  // querier
  w->U64(0);  // tags
  w->U32(0);  // source item
  w->U64(0);  // expected profiles
  PutEmptyNra(w);
  w->U64(0);  // inbox
  w->U64(0);  // used profiles
  w->U64(0);  // history
  for (int i = 0; i < 6; ++i) w->U64(0);  // traffic
  w->U8(0);   // finalized
  w->U64(0);  // late results dropped
  w->I64(-1);  // first result cycle
}

/// The profile pool of a kUsers system: one empty profile per user, pool id
/// i owned by `owner_of(i)`.
void PutPool(CheckpointWriter* w,
             const std::function<UserId(UserId)>& owner_of) {
  w->U64(kUsers);
  for (UserId i = 0; i < kUsers; ++i) {
    w->U32(owner_of(i));
    w->U32(0);  // version
    w->U64(0);  // actions
  }
  w->Sentinel();
}

UserId Self(UserId u) { return u; }

/// Pool plus system header of a kUsers system whose store snapshot of user u
/// is pool entry `store_ref(u)`.
void PutSystemHeader(CheckpointWriter* w,
                     const std::function<UserId(UserId)>& owner_of = Self,
                     const std::function<UserId(UserId)>& store_ref = Self) {
  PutPool(w, owner_of);
  w->U64(kUsers);
  for (UserId u = 0; u < kUsers; ++u) w->U32(store_ref(u));
  for (UserId u = 0; u < kUsers; ++u) w->U8(1);  // online
  w->Put(Metrics{});
  PutRng(w);
  w->Sentinel();
}

/// Start of user u's node record: own profile ref and rng.
void PutNodeHead(CheckpointWriter* w, std::uint32_t own_ref) {
  w->U32(own_ref);
  PutRng(w);
}

/// An empty random view, probe memo and task table.
void PutNodeTail(CheckpointWriter* w) {
  w->U64(0);
  w->U64(0);
  w->U64(0);
}

void PutTask(CheckpointWriter* w, std::uint64_t query_id) {
  w->U64(query_id);
  w->U32(0);  // querier
  w->U64(0);  // tags
  w->U64(0);  // remaining
  w->U64(1);  // epoch
  w->U32(0);  // generation
  w->U8(0);   // in flight
  w->U64(0);  // in flight until
}

class SystemDecodeTest : public ::testing::Test {
 protected:
  std::function<void(CheckpointReader*)> Load() {
    return [this](CheckpointReader* r) { env_.system->LoadCheckpoint(r); };
  }

  test::TestSystem env_{{.users = kUsers, .seed_ideal = false}};
};

TEST_F(SystemDecodeTest, UserCountMismatchRejected) {
  CheckpointWriter w;
  PutPool(&w, Self);
  w.U64(kUsers + 1);
  for (UserId u = 0; u <= kUsers; ++u) w.U32(u % kUsers);
  ExpectRejected(w, Load(), "users");
}

TEST_F(SystemDecodeTest, StoreSnapshotOfAnotherUserRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w, Self, [](UserId u) { return (u + 1) % kUsers; });
  ExpectRejected(w, Load(), "store snapshot");
}

TEST_F(SystemDecodeTest, OwnProfileOfAnotherUserRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 1);
  w.U64(0);  // personal-network entries
  PutNodeTail(&w);
  ExpectRejected(w, Load(), "own profile");
}

TEST_F(SystemDecodeTest, NetworkEntryDigestOfAnotherUserRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(1);  // one personal-network entry
  w.U32(1);  // user
  w.U64(5);  // score
  w.U32(2);  // digest user: not the entry's
  w.U32(2);  // digest snapshot
  w.U32(0);  // timestamp
  w.U32(kNullProfileRef);
  ExpectRejected(w, Load(), "personal-network entry");
}

TEST_F(SystemDecodeTest, NetworkEntryReplicaOfAnotherUserRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(1);
  w.U32(1);
  w.U64(5);
  w.U32(1);
  w.U32(1);
  w.U32(0);
  w.U32(2);  // stored replica owned by user 2
  ExpectRejected(w, Load(), "personal-network entry");
}

/// One personal-network entry for `user` (digest snapshot = pool entry
/// `user`, no replica).
void PutNetworkEntry(CheckpointWriter* w, UserId user) {
  w->U32(user);
  w->U64(5);  // score
  w->U32(user);
  w->U32(user);
  w->U32(0);  // timestamp
  w->U32(kNullProfileRef);
}

TEST_F(SystemDecodeTest, RepeatedNetworkEntryRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(2);
  PutNetworkEntry(&w, 1);
  PutNetworkEntry(&w, 1);
  ExpectRejected(w, Load(), "repeats entry 1");
}

TEST_F(SystemDecodeTest, NetworkOverCapacityRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  const int entries = env_.config.network_size + 1;
  w.U64(static_cast<std::uint64_t>(entries));
  for (int i = 0; i < entries; ++i) PutNetworkEntry(&w, 1 + i % (kUsers - 1));
  ExpectRejected(w, Load(), "capacity");
}

TEST_F(SystemDecodeTest, DigestWithoutSnapshotRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(0);  // no personal-network entries
  w.U64(1);  // one random-view descriptor
  w.U32(1);
  w.U32(kNullProfileRef);
  ExpectRejected(w, Load(), "digest");
}

TEST_F(SystemDecodeTest, DuplicateTaskIdsRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(0);  // entries
  w.U64(0);  // view
  w.U64(0);  // probes
  w.U64(2);  // tasks
  PutTask(&w, 9);
  PutTask(&w, 9);
  ExpectRejected(w, Load(), "task");
}

TEST_F(SystemDecodeTest, OversizedCountRejected) {
  CheckpointWriter w;
  PutSystemHeader(&w);
  PutNodeHead(&w, 0);
  w.U64(std::uint64_t{1} << 40);  // personal-network entries
  PutNodeTail(&w);
  ExpectRejected(w, Load(), "exceeds");
}

// ---------------------------------------------------------------------------
// Engine and delivery queue.
// ---------------------------------------------------------------------------

/// Sends nothing; its messages decode from zero bytes.
class IdleProtocol : public CycleProtocol {
 public:
  void PlanCycle(UserId, const PlanContext&) override {}
  std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader*) const override {
    return std::make_unique<DeliveryMessage>();
  }
};

TEST(EngineDecodeTest, SeedMismatchRejected) {
  Engine engine(kUsers, /*seed=*/11);
  IdleProtocol protocol;
  engine.AddProtocol(&protocol);
  CheckpointWriter w;
  w.U64(12);
  ExpectRejected(
      w, [&](CheckpointReader* r) { engine.LoadState(r); }, "seed");
}

TEST(EngineDecodeTest, QueueCountMismatchRejected) {
  Engine engine(kUsers, /*seed=*/11);
  IdleProtocol protocol;
  engine.AddProtocol(&protocol);
  CheckpointWriter w;
  w.U64(11);
  w.U64(0);  // cycle
  w.U64(2);  // queues
  ExpectRejected(
      w, [&](CheckpointReader* r) { engine.LoadState(r); }, "queue");
}

/// Delivery-queue head: next sequence number, stats, one due bucket.
void PutQueueHead(CheckpointWriter* w, std::uint64_t next_seq,
                  std::uint64_t due_cycle) {
  w->U64(next_seq);
  w->Put(DeliveryStats{});
  w->U64(1);
  w->U64(due_cycle);
}

void LoadQueue(CheckpointReader* r) {
  DeliveryQueue queue;
  IdleProtocol protocol;
  r->set_messages(&protocol);
  r->Get(&queue);
}

TEST(DeliveryDecodeTest, SequenceNumberPastCounterRejected) {
  CheckpointWriter w;
  PutQueueHead(&w, /*next_seq=*/1, /*due_cycle=*/5);
  w.U64(1);  // messages
  w.U32(0);  // sender
  w.U64(4);  // send cycle
  w.U64(1);  // seq == next_seq
  w.Sentinel();
  ExpectRejected(w, LoadQueue, "sequence number or cycles");
}

TEST(DeliveryDecodeTest, SentAfterDueRejected) {
  CheckpointWriter w;
  PutQueueHead(&w, /*next_seq=*/1, /*due_cycle=*/5);
  w.U64(1);
  w.U32(0);
  w.U64(6);  // sent after it was due
  w.U64(0);
  w.Sentinel();
  ExpectRejected(w, LoadQueue, "sequence number or cycles");
}

TEST(DeliveryDecodeTest, DueCyclesOutOfOrderRejected) {
  CheckpointWriter w;
  w.U64(0);
  w.Put(DeliveryStats{});
  w.U64(2);  // buckets
  w.U64(5);
  w.U64(0);
  w.U64(5);  // repeated due cycle
  w.U64(0);
  ExpectRejected(w, LoadQueue, "out of order");
}

// ---------------------------------------------------------------------------
// Protocol and query state.
// ---------------------------------------------------------------------------

TEST(ExchangePlanDecodeTest, OneEndpointRejected) {
  CheckpointWriter w;
  w.U32(1);
  w.U32(kInvalidUser);
  w.U64(0);
  w.U64(0);
  ExpectRejected(
      w,
      [](CheckpointReader* r) {
        ProfileExchangePlan plan;
        r->Get(&plan);
      },
      "one endpoint");
}

void LoadNra(CheckpointReader* r) {
  IncrementalNra nra(1);
  r->Get(&nra);
}

TEST(NraDecodeTest, CursorPastListEndRejected) {
  CheckpointWriter w;
  w.U32(3);
  w.U64(0);
  w.U64(1);  // lists
  w.U64(1);  // entries
  w.U32(7);
  w.U32(2);
  w.U64(2);  // cursor past the single entry
  w.U64(kNone);
  w.U64(0);  // candidates
  ExpectRejected(w, LoadNra, "cursor");
}

TEST(NraDecodeTest, CandidateOfUnknownListRejected) {
  CheckpointWriter w;
  w.U32(3);
  w.U64(0);
  w.U64(0);  // lists
  w.U64(1);  // candidates
  w.U32(7);
  w.U64(2);
  w.U64(1);
  w.U32(0);  // list 0 does not exist
  ExpectRejected(w, LoadNra, "unknown list");
}

TEST(NraDecodeTest, ZeroResultSizeRejected) {
  // k = 0 would make the top-k selection index before its first candidate.
  CheckpointWriter w;
  w.U32(0);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  ExpectRejected(w, LoadNra, "result size");
}

TEST(NraDecodeTest, OversizedListCountRejected) {
  CheckpointWriter w;
  w.U32(3);
  w.U64(0);
  w.U64(std::uint64_t{1} << 40);
  ExpectRejected(w, LoadNra, "exceeds");
}

class EagerDecodeTest : public ::testing::Test {
 protected:
  std::function<void(CheckpointReader*)> Load() {
    return [this](CheckpointReader* r) { r->Get(&env_.system->eager()); };
  }

  test::TestSystem env_{{.users = kUsers, .seed_ideal = false}};
};

TEST_F(EagerDecodeTest, NegativeActiveTaskCountRejected) {
  CheckpointWriter w;
  w.U64(1);
  PutEmptyQuery(&w, 1);
  w.U64(0);   // reached
  w.I64(-1);  // active tasks
  w.U8(0);    // finalized
  ExpectRejected(w, Load(), "negative active task count");
}

TEST_F(EagerDecodeTest, QueryIdsOutOfOrderRejected) {
  CheckpointWriter w;
  w.U64(2);
  for (std::uint64_t id : {5u, 3u}) {
    PutEmptyQuery(&w, id);
    w.U64(0);
    w.I64(0);
    w.U8(0);
  }
  ExpectRejected(w, Load(), "out of order");
}

TEST_F(EagerDecodeTest, NextIdCollisionRejected) {
  CheckpointWriter w;
  w.U64(1);
  PutEmptyQuery(&w, 5);
  w.U64(0);
  w.I64(0);
  w.U8(0);
  w.U64(0);  // timeout re-issues
  w.U64(0);  // stale drops
  w.U64(0);  // forgotten late results
  w.U64(5);  // next id: collides with query 5
  w.U64(1);  // next epoch
  w.Sentinel();
  ExpectRejected(w, Load(), "collides");
}

TEST(ServingDecodeTest, QueryIdsOutOfOrderRejected) {
  CheckpointWriter w;
  w.U64(8);    // slo cycles
  w.F64(1.0);  // recall target
  w.U64(2);
  for (int i = 0; i < 2; ++i) {
    w.U64(7);  // query id, repeated
    w.U64(0);
    w.U32(0);
    w.U8(0);
    w.U64(0);
  }
  ExpectRejected(
      w,
      [](CheckpointReader* r) {
        ServingTracker tracker;
        r->Get(&tracker);
      },
      "out of order");
}

}  // namespace
}  // namespace p3q
