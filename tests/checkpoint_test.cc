// Checkpoint/resume: codec round-trips, whole-system save/load identity,
// the differential replay matrix (straight-through vs checkpoint-at-K +
// resume must produce byte-identical reports for every K, thread count and
// latency model), corrupt-input robustness, and the checked-in golden v1
// snapshot that pins the on-disk format.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/p3q_system.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"
#include "test_util.h"

namespace p3q {
namespace {

using test::ScratchPath;

/// Throws when `path` cannot be read, so a missing file fails the test
/// instead of flowing on as an empty buffer.
std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The runner's phase scaling, replicated so tests can pick K values that
/// hit exact phase boundaries and the last cycle.
std::uint64_t TotalScaledCycles(const Scenario& scenario, double scale) {
  std::uint64_t total = 0;
  for (const ScenarioPhase& phase : scenario.phases) {
    total += std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(phase.cycles) * scale)));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------------

TEST(CheckpointCodecTest, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F64(-0.125);
  w.Str("hello\0world");  // embedded NUL truncated by the literal; fine
  w.Str("");
  w.Sentinel();

  CheckpointReader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), -0.125);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  r.Sentinel("primitives");
  r.ExpectEnd();
}

TEST(CheckpointCodecTest, ReaderIsBoundsChecked) {
  CheckpointWriter w;
  w.U32(7);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(r.U64(), CheckpointError);

  // A corrupted count can never trigger a huge allocation: 4 bytes of
  // payload cannot hold 2^60 eight-byte elements.
  CheckpointWriter c;
  c.U64(1ull << 60);
  c.U32(0);
  CheckpointReader rc(c.buffer().data(), c.buffer().size());
  EXPECT_THROW(rc.Count(8), CheckpointError);
}

TEST(CheckpointCodecTest, RngStateRoundTrip) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) a.NextUint64(1000);
  CheckpointWriter w;
  WriteRngState(&w, a);
  Rng b(999);  // different seed; state restore must overwrite it fully
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  ReadRngState(&r, &b);
  r.ExpectEnd();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextUint64(1u << 30), b.NextUint64(1u << 30)) << i;
  }
}

/// Encodes `value`, decodes it into a fresh T, and encodes that again:
/// both encodings must match byte for byte.
template <typename T>
void ExpectRoundTripBytes(const T& value) {
  CheckpointWriter w;
  w.Put(value);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  T back;
  r.Get(&back);
  r.ExpectEnd();
  CheckpointWriter w2;
  w2.Put(back);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(CheckpointCodecTest, StatsRoundTripBytes) {
  Metrics m;
  m.Record(MessageType::kLazyDigestProposal, 321);
  m.Record(MessageType::kPartialResult, 77);
  ExpectRoundTripBytes(m);

  DeliveryStats d;
  d.enqueued = 10;
  d.delivered = 8;
  d.dropped = 1;
  d.RecordDelivery(3);
  ExpectRoundTripBytes(d);

  QueryLatencyStats q;
  q.issued = 4;
  q.RecordCompletion(2, /*slo_cycles=*/8);
  q.RecordFirstResult(1);
  ExpectRoundTripBytes(q);
}

TEST(CheckpointCodecTest, ProfilePoolSharesSnapshots) {
  const ProfilePtr p1 = test::MakeDisjointSnapshot(1, 4, /*version=*/2);
  const ProfilePtr p2 = test::MakeDisjointSnapshot(2, 3, /*version=*/0);
  ProfilePool pool;
  const std::uint32_t id1 = pool.Intern(p1);
  const std::uint32_t id2 = pool.Intern(p2);
  EXPECT_EQ(pool.Intern(p1), id1);  // same pointer, same pool entry
  EXPECT_EQ(pool.Intern(nullptr), kNullProfileRef);
  EXPECT_EQ(pool.size(), 2u);

  CheckpointWriter w;
  pool.Serialize(&w);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  const ProfileTable table =
      ProfileTable::Deserialize(&r, p1->digest().num_bits());
  r.ExpectEnd();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Get(id1)->owner(), p1->owner());
  EXPECT_EQ(table.Get(id1)->version(), p1->version());
  EXPECT_TRUE(std::ranges::equal(table.Get(id1)->actions(), p1->actions()));
  EXPECT_EQ(table.Get(id2)->owner(), p2->owner());
  EXPECT_EQ(table.Get(kNullProfileRef), nullptr);
  EXPECT_THROW(table.Get(2), CheckpointError);
}

// ---------------------------------------------------------------------------
// Whole-system save/load identity: loading a snapshot into a fresh system
// and saving again must reproduce the payload byte for byte — the strongest
// possible statement that nothing was dropped or reordered.
// ---------------------------------------------------------------------------

TEST(CheckpointSystemTest, SaveLoadSaveIsByteIdentical) {
  test::TestSystem env({.users = 80, .seed_ideal = false});
  env.system->SetLatency(LatencySpec{LatencyKind::kFixed, /*fixed=*/2});
  env.system->RunLazyCycles(6);
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(3));
  env.system->RunEagerCycles(2);  // leave the query (and messages) in flight
  (void)qid;

  CheckpointWriter first;
  env.system->SaveCheckpoint(&first);

  test::TestSystem fresh({.users = 80, .seed_ideal = false});
  fresh.system->SetLatency(LatencySpec{LatencyKind::kFixed, /*fixed=*/2});
  CheckpointReader in(first.buffer().data(), first.buffer().size());
  fresh.system->LoadCheckpoint(&in);
  in.ExpectEnd();

  CheckpointWriter second;
  fresh.system->SaveCheckpoint(&second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // And the two systems evolve identically from here.
  env.system->RunEagerCycles(4);
  fresh.system->RunEagerCycles(4);
  env.system->RunLazyCycles(3);
  fresh.system->RunLazyCycles(3);
  CheckpointWriter a, b;
  env.system->SaveCheckpoint(&a);
  fresh.system->SaveCheckpoint(&b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

// ---------------------------------------------------------------------------
// Differential replay matrix.
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string scenario;
  double cycle_scale = 0.2;
  int users = 120;
  std::optional<LatencySpec> latency{};
};

ScenarioRunnerOptions BaseOptions(const RunConfig& cfg) {
  ScenarioRunnerOptions options;
  options.users = cfg.users;
  options.seed = 7;
  options.cycle_scale = cfg.cycle_scale;
  options.latency = cfg.latency;
  return options;
}

/// JSON+CSV of a straight-through run (the differential reference).
struct Rendered {
  std::string json;
  std::string csv;
};

Rendered RenderReport(const ScenarioReport& report) {
  return Rendered{ScenarioReportToJson(report), ScenarioReportToCsv(report)};
}

Rendered StraightRun(const RunConfig& cfg) {
  const Scenario scenario = MakeScenario(cfg.scenario);
  return RenderReport(RunScenario(scenario, BaseOptions(cfg)));
}

/// Checkpoints at K, resumes with `resume_threads` workers, and expects the
/// stitched report to match the straight-through rendering byte for byte.
void ExpectResumeIdentical(const RunConfig& cfg, const Rendered& straight,
                           std::uint64_t k, int checkpoint_threads = 0,
                           int resume_threads = 0) {
  SCOPED_TRACE(cfg.scenario + " K=" + std::to_string(k) + " threads=" +
               std::to_string(checkpoint_threads) + "/" +
               std::to_string(resume_threads));
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::string path = ScratchPath("matrix_" + cfg.scenario + "_" +
                                    std::to_string(k) + ".ckpt");

  ScenarioRunnerOptions writer = BaseOptions(cfg);
  writer.threads = checkpoint_threads;
  writer.checkpoint_at = k;
  writer.checkpoint_path = path;
  const Rendered from_writer = RenderReport(RunScenario(scenario, writer));
  EXPECT_EQ(from_writer.json, straight.json)
      << "taking a checkpoint must not perturb the run";

  ScenarioRunnerOptions reader = BaseOptions(cfg);
  reader.threads = resume_threads;
  reader.resume_path = path;
  const Rendered resumed = RenderReport(RunScenario(scenario, reader));
  EXPECT_EQ(resumed.json, straight.json);
  EXPECT_EQ(resumed.csv, straight.csv);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, DiurnalEveryInterestingK) {
  const RunConfig cfg{.scenario = "diurnal"};
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::uint64_t total = TotalScaledCycles(scenario, cfg.cycle_scale);
  const std::uint64_t first_phase = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             static_cast<double>(scenario.phases[0].cycles) *
             cfg.cycle_scale)));
  const Rendered straight = StraightRun(cfg);
  // K = 0 (before anything), 1, a phase boundary, mid-phase, last cycle.
  for (const std::uint64_t k :
       {std::uint64_t{0}, std::uint64_t{1}, first_phase, first_phase + 1,
        total - 1}) {
    ExpectResumeIdentical(cfg, straight, k);
  }
}

TEST(CheckpointResumeTest, ThreadCountsNeverLeakIntoResume) {
  const RunConfig cfg{.scenario = "diurnal"};
  const Rendered straight = StraightRun(cfg);
  // Snapshot under one thread count, resume under another — every pairing
  // must land on the same bytes.
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/2,
                        /*resume_threads=*/1);
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/1,
                        /*resume_threads=*/2);
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/8,
                        /*resume_threads=*/8);
}

TEST(CheckpointResumeTest, EveryLatencyModel) {
  const std::vector<LatencySpec> models = {
      LatencySpec{},  // zero
      LatencySpec{LatencyKind::kFixed, /*fixed=*/2},
      LatencySpec{LatencyKind::kUniform, /*fixed=*/0, /*lo=*/1, /*hi=*/3},
      LatencySpec{LatencyKind::kLossy, /*fixed=*/0, /*lo=*/0, /*hi=*/0,
                  /*loss=*/0.1, /*max_delay=*/4},
  };
  for (const LatencySpec& spec : models) {
    RunConfig cfg{.scenario = "diurnal"};
    cfg.latency = spec;
    SCOPED_TRACE(spec.Name());
    const Rendered straight = StraightRun(cfg);
    ExpectResumeIdentical(cfg, straight, 7);
  }
}

TEST(CheckpointResumeTest, OpenLoopServingResumes) {
  RunConfig cfg{.scenario = "open-loop-steady"};
  cfg.cycle_scale = 0.25;
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::uint64_t total = TotalScaledCycles(scenario, cfg.cycle_scale);
  ASSERT_GE(total, 4u);
  const Rendered straight = StraightRun(cfg);
  // Mid-run Ks land while open-loop queries are in flight, so the snapshot
  // carries live ActiveQuery/NRA/serving-tracker state.
  for (const std::uint64_t k : {std::uint64_t{1}, total / 2, total - 1}) {
    ExpectResumeIdentical(cfg, straight, k);
  }
}

TEST(CheckpointResumeTest, ResumedTraceIsByteSuffixOfStraightTrace) {
  const RunConfig cfg{.scenario = "open-loop-steady"};
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::string path = ScratchPath("trace_suffix.ckpt");

  const auto traced_run = [&](ScenarioRunnerOptions options) {
    std::ostringstream out;
    JsonlTraceSink sink(&out);
    Tracer tracer(&sink);
    options.tracer = &tracer;
    RunScenario(scenario, options);
    tracer.Finish();
    return out.str();
  };

  const std::string straight = traced_run(BaseOptions(cfg));

  ScenarioRunnerOptions writer = BaseOptions(cfg);
  writer.checkpoint_at = 5;
  writer.checkpoint_path = path;
  traced_run(writer);  // the snapshot records the trace cursor

  ScenarioRunnerOptions reader = BaseOptions(cfg);
  reader.resume_path = path;
  const std::string resumed = traced_run(reader);

  ASSERT_FALSE(resumed.empty());
  ASSERT_LT(resumed.size(), straight.size());
  EXPECT_EQ(straight.substr(straight.size() - resumed.size()), resumed);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Resuming exactly on an event cycle must fire the event exactly once, and
// earlier events must never re-fire (regression: duty-cycle targets re-arm
// from the restored online set).
// ---------------------------------------------------------------------------

Scenario EventBoundaryScenario() {
  Scenario s;
  s.name = "event-boundary";
  s.description = "checkpoint/resume event-boundary regression timeline";
  ScenarioPhase phase;
  phase.name = "main";
  phase.cycles = 14;
  phase.mode = PhaseMode::kMixed;
  phase.queries_per_cycle = 1;
  phase.events = {
      ScenarioEvent{.at_cycle = 5,
                    .kind = EventKind::kDeparture,
                    .fraction = 0.3},
      ScenarioEvent{
          .at_cycle = 8, .kind = EventKind::kRejoin, .fraction = 1.0},
      ScenarioEvent{
          .at_cycle = 8, .kind = EventKind::kQueryBurst, .count = 4},
  };
  s.phases.push_back(std::move(phase));
  return s;
}

TEST(CheckpointResumeTest, ResumeOnEventCycleFiresEventsExactlyOnce) {
  const Scenario scenario = EventBoundaryScenario();
  ScenarioRunnerOptions base;
  base.users = 100;
  base.seed = 11;
  const Rendered straight = RenderReport(RunScenario(scenario, base));

  // K=5 resumes exactly on the departure event; K=8 exactly on the rejoin +
  // flash-crowd cycle. Double-firing (or skipping) either shows up in the
  // departures/rejoins/queries_issued columns of the report.
  for (const std::uint64_t k : {std::uint64_t{5}, std::uint64_t{8}}) {
    SCOPED_TRACE(k);
    const std::string path =
        ScratchPath("event_boundary_" + std::to_string(k) + ".ckpt");
    ScenarioRunnerOptions writer = base;
    writer.checkpoint_at = k;
    writer.checkpoint_path = path;
    RunScenario(scenario, writer);
    ScenarioRunnerOptions reader = base;
    reader.resume_path = path;
    const Rendered resumed = RenderReport(RunScenario(scenario, reader));
    EXPECT_EQ(resumed.json, straight.json);
    EXPECT_EQ(resumed.csv, straight.csv);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Corrupt input: every mangling of a real snapshot must land in a typed
// CheckpointError — never a crash, hang, or huge allocation. The suite runs
// under ASan/UBSan in CI, so any out-of-bounds decode would be fatal here.
// ---------------------------------------------------------------------------

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(MakeScenario("diurnal"));
    path_ = new std::string(ScratchPath("corruption_source.ckpt"));
    ScenarioRunnerOptions options;
    options.users = 100;
    options.seed = 5;
    options.cycle_scale = 0.2;
    options.checkpoint_at = 7;
    options.checkpoint_path = *path_;
    RunScenario(*scenario_, options);
    bytes_ = new std::vector<std::uint8_t>(ReadFileBytes(*path_));
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete scenario_;
    delete path_;
    delete bytes_;
  }

  /// Writes `bytes` to a scratch file and expects both the header probe and
  /// a full resume to reject it with CheckpointError.
  void ExpectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& expect_substring = "") {
    const std::string path = ScratchPath("corrupt_case.ckpt");
    WriteFileBytes(path, bytes);
    try {
      ReadScenarioCheckpointInfo(path);
      FAIL() << "corrupt snapshot was accepted";
    } catch (const CheckpointError& e) {
      if (!expect_substring.empty()) {
        EXPECT_NE(std::string(e.what()).find(expect_substring),
                  std::string::npos)
            << e.what();
      }
    }
    ScenarioRunnerOptions options;
    options.users = 100;
    options.seed = 5;
    options.cycle_scale = 0.2;
    options.resume_path = path;
    EXPECT_THROW(RunScenario(*scenario_, options), CheckpointError);
    std::remove(path.c_str());
  }

  static Scenario* scenario_;
  static std::string* path_;
  static std::vector<std::uint8_t>* bytes_;
};

Scenario* CheckpointCorruptionTest::scenario_ = nullptr;
std::string* CheckpointCorruptionTest::path_ = nullptr;
std::vector<std::uint8_t>* CheckpointCorruptionTest::bytes_ = nullptr;

TEST_F(CheckpointCorruptionTest, IntactSnapshotLoads) {
  const CheckpointRunInfo info = ReadScenarioCheckpointInfo(*path_);
  EXPECT_EQ(info.scenario, "diurnal");
  EXPECT_EQ(info.options.users, 100);
  EXPECT_EQ(info.options.seed, 5u);
}

TEST_F(CheckpointCorruptionTest, MissingFileRejected) {
  EXPECT_THROW(ReadScenarioCheckpointInfo(ScratchPath("no_such_file.ckpt")),
               CheckpointError);
}

TEST_F(CheckpointCorruptionTest, TruncationsRejected) {
  const std::vector<std::size_t> lengths = {
      0, 4, 7, 8, 11, 12, 15, 16, bytes_->size() / 2, bytes_->size() - 1};
  for (const std::size_t len : lengths) {
    SCOPED_TRACE(len);
    ExpectRejected(std::vector<std::uint8_t>(bytes_->begin(),
                                             bytes_->begin() + len));
  }
}

TEST_F(CheckpointCorruptionTest, WrongMagicRejected) {
  std::vector<std::uint8_t> mangled = *bytes_;
  mangled[0] ^= 0xff;
  ExpectRejected(mangled, "bad magic");
}

TEST_F(CheckpointCorruptionTest, FutureVersionRejected) {
  std::vector<std::uint8_t> mangled = *bytes_;
  mangled[8] = 0x63;  // version 99
  ExpectRejected(mangled, "unsupported checkpoint version");
}

TEST_F(CheckpointCorruptionTest, BitFlipsRejectedByChecksum) {
  // Flip one bit at a spread of payload offsets; the CRC catches each.
  for (const double at : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<std::uint8_t> mangled = *bytes_;
    const std::size_t pos =
        16 + static_cast<std::size_t>(
                 static_cast<double>(mangled.size() - 17) * at);
    SCOPED_TRACE(pos);
    mangled[pos] ^= 0x10;
    ExpectRejected(mangled, "checksum mismatch");
  }
}

TEST_F(CheckpointCorruptionTest, ResumeWithMismatchedOptionsRejected) {
  ScenarioRunnerOptions options;
  options.users = 100;
  options.seed = 6;  // snapshot was written with seed 5
  options.cycle_scale = 0.2;
  options.resume_path = *path_;
  try {
    RunScenario(*scenario_, options);
    FAIL() << "seed mismatch was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointCorruptionTest, CheckpointPastTimelineRejected) {
  ScenarioRunnerOptions options;
  options.users = 100;
  options.seed = 5;
  options.cycle_scale = 0.2;
  options.checkpoint_at = 100000;
  options.checkpoint_path = ScratchPath("never_written.ckpt");
  EXPECT_THROW(RunScenario(*scenario_, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden v1 snapshot: a checked-in file written by the version-1 codec.
// Future builds must keep reading it (or bump kCheckpointVersion and keep a
// migration story); a byte-level drift in the writer shows up here too.
// ---------------------------------------------------------------------------

const std::string& GoldenPath() {
  static const std::string path =
      std::string(P3Q_SOURCE_DIR) + "/tests/golden/checkpoint_v1.ckpt";
  return path;
}

TEST(CheckpointGoldenTest, V1SnapshotStillResumesByteIdentically) {
  const CheckpointRunInfo info = ReadScenarioCheckpointInfo(GoldenPath());
  EXPECT_EQ(info.scenario, "diurnal");
  EXPECT_EQ(info.options.users, 120);
  EXPECT_EQ(info.options.seed, 3u);
  ASSERT_TRUE(HasScenario(info.scenario));

  const Scenario scenario = MakeScenario(info.scenario);
  const Rendered straight = RenderReport(RunScenario(scenario, info.options));

  ScenarioRunnerOptions reader = info.options;
  reader.resume_path = GoldenPath();
  const Rendered resumed = RenderReport(RunScenario(scenario, reader));
  EXPECT_EQ(resumed.json, straight.json);
  EXPECT_EQ(resumed.csv, straight.csv);
}

// Pins the writer: resuming the golden and checkpointing again at the
// golden's own position must rewrite the file byte for byte.
TEST(CheckpointGoldenTest, V1SnapshotRewritesByteIdentically) {
  const CheckpointRunInfo info = ReadScenarioCheckpointInfo(GoldenPath());
  ASSERT_TRUE(HasScenario(info.scenario));
  ScenarioRunnerOptions options = info.options;
  options.resume_path = GoldenPath();
  options.checkpoint_at = 7;  // the golden's own timeline position
  options.checkpoint_path = ScratchPath("golden_rewrite.ckpt");
  RunScenario(MakeScenario(info.scenario), options);
  const std::vector<std::uint8_t> rewritten =
      ReadFileBytes(options.checkpoint_path);
  const std::vector<std::uint8_t> golden = ReadFileBytes(GoldenPath());
  EXPECT_EQ(rewritten.size(), golden.size());
  EXPECT_TRUE(rewritten == golden)
      << "the rewritten checkpoint differs from the golden";
}

}  // namespace
}  // namespace p3q
