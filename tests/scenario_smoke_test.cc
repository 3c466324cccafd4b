// Smoke-runs every registered scenario at tiny scale under ctest.
//
// The parameterized suite enumerates ScenarioRegistry at runtime (the same
// generated-list idea as bench_smoke_test: the test list is derived from the
// registry itself, so a newly registered scenario is smoke-tested
// automatically and the suite cannot drift). A second suite drives the
// p3q_sim CLI end to end: `--scenario=diurnal --json=...` must run a
// multi-phase timeline with departures and rejoins and produce byte-identical
// JSON reports across two equal-seed runs (the PR's acceptance criterion).
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "test_util.h"

#ifndef P3Q_BIN_DIR
#error "P3Q_BIN_DIR must be defined by the build"
#endif

namespace p3q {
namespace {

class ScenarioSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioSmoke, RunsCleanAtTinyScale) {
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = 17;
  options.cycle_scale = 0.15;

  const Scenario scenario = MakeScenario(GetParam());
  const ScenarioReport report = RunScenario(scenario, options);

  ASSERT_EQ(report.phases.size(), scenario.phases.size());
  EXPECT_EQ(report.scenario, scenario.name);
  EXPECT_EQ(report.users, 60u);
  EXPECT_GT(report.total_cycles, 0u);
  EXPECT_GT(report.total_traffic.TotalMessages(), 0u);
  for (const PhaseReport& p : report.phases) {
    EXPECT_GE(p.cycles, 1u);
    EXPECT_LE(p.online_at_end, report.users);
    EXPECT_GE(p.success_ratio, 0.0);
    EXPECT_LE(p.success_ratio, 1.0);
    if (p.queries_issued > 0) {
      EXPECT_GE(p.avg_recall, 0.0);
      EXPECT_LE(p.avg_recall, 1.0);
      EXPECT_LE(p.avg_coverage, 1.0);
    }
  }
  // Both emitters must serialize every scenario without tripping.
  EXPECT_FALSE(ScenarioReportToJson(report).empty());
  EXPECT_FALSE(ScenarioReportToCsv(report).empty());
}

std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioSmoke, ::testing::ValuesIn(RegisteredScenarioNames()),
    [](const auto& info) { return SanitizeName(info.param); });

// ---------------------------------------------------------------------------
// p3q_sim CLI end to end.
// ---------------------------------------------------------------------------

int RunCli(const std::string& args) {
  // Quote the binary path: the build dir may contain spaces.
  std::string cmd = "\"" P3Q_BIN_DIR "/p3q_sim\" ";
  cmd += args;
  cmd += " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status)) << cmd << " killed by signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(P3qSimScenarioCli, ListScenariosExitsCleanly) {
  EXPECT_EQ(RunCli("--list-scenarios"), 0);
}

TEST(P3qSimScenarioCli, UnknownScenarioFails) {
  EXPECT_NE(RunCli("--scenario=no-such-scenario"), 0);
}

TEST(P3qSimScenarioCli, DiurnalJsonReportIsCompleteAndDeterministic) {
  const std::string path_a = test::ScratchPath("p3q_diurnal_a.json");
  const std::string path_b = test::ScratchPath("p3q_diurnal_b.json");
  const std::string args =
      "--scenario=diurnal --users=80 --cycle-scale=0.25 --seed=5 --json=";
  ASSERT_EQ(RunCli(args + "\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "\"" + path_b + "\""), 0);

  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  // Multi-phase timeline with both departures and rejoins...
  EXPECT_NE(json.find("\"scenario\": \"diurnal\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"day-night-day\""), std::string::npos);
  const std::size_t totals = json.find("\"totals\"");
  ASSERT_NE(totals, std::string::npos);
  auto totals_value = [&](const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle, totals);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos
               ? -1L
               : std::atol(json.c_str() + at + needle.size());
  };
  EXPECT_GT(totals_value("departures"), 0);
  EXPECT_GT(totals_value("rejoins"), 0);
  // ... with per-MessageType traffic, recall and (deterministic) reports.
  EXPECT_NE(json.find("\"random_view_gossip\""), std::string::npos);
  EXPECT_NE(json.find("\"eager_query_forward\""), std::string::npos);
  EXPECT_NE(json.find("\"avg_recall\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "two equal-seed runs must produce byte-identical reports";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, CheckpointThenResumeMatchesTheStraightRun) {
  const std::string straight = test::ScratchPath("p3q_ckpt_straight.json");
  const std::string resumed = test::ScratchPath("p3q_ckpt_resumed.json");
  const std::string checkpoint = test::ScratchPath("p3q_ckpt.ckpt");
  const std::string args =
      "--scenario=diurnal --users=80 --cycle-scale=0.25 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--json=\"" + straight + "\""), 0);
  ASSERT_EQ(RunCli(args + "--checkpoint-at=5 --checkpoint=\"" + checkpoint +
                   "\""),
            0);
  const std::string resume = "--resume=\"" + checkpoint + "\" ";
  ASSERT_EQ(RunCli(resume + "--threads=2 --json=\"" + resumed + "\""), 0);
  const std::string json = ReadFileOrEmpty(straight);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json, ReadFileOrEmpty(resumed))
      << "a resumed run must reproduce the straight run's report";

  // The snapshot fixes every result-affecting option; a flag that would
  // silently be ignored is rejected instead.
  for (const char* flag :
       {"--users=500", "--seed=9", "--s=20", "--c=5", "--alpha=0.3", "--k=5",
        "--similarity=jaccard", "--cycle-scale=0.5"}) {
    EXPECT_NE(RunCli(resume + flag), 0) << flag;
  }
}

TEST(P3qSimScenarioCli, SimilarityFlagIsStrictAndSelectsTheMetric) {
  // Strict parsing: unknown names, prefixes, case variants and empty
  // values are all rejected.
  EXPECT_NE(RunCli("--similarity=bogus"), 0);
  EXPECT_NE(RunCli("--similarity=jac"), 0);
  EXPECT_NE(RunCli("--similarity=Jaccard"), 0);
  EXPECT_NE(RunCli("--similarity="), 0);
  EXPECT_NE(RunCli("--similarity"), 0);

  // Every valid metric runs, in scenario mode too, and the chosen metric
  // changes the report (jaccard ranks different neighbours than raw common
  // actions, so traffic/recall shift), while equal-seed runs of the same
  // metric stay byte-identical.
  const std::string common_a = test::ScratchPath("p3q_sim_common_a.json");
  const std::string common_b = test::ScratchPath("p3q_sim_common_b.json");
  const std::string jaccard = test::ScratchPath("p3q_sim_jaccard.json");
  const std::string args =
      "--scenario=steady-state --users=60 --cycle-scale=0.2 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--similarity=common --json=\"" + common_a + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=common_actions --json=\"" + common_b +
                   "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=jaccard --json=\"" + jaccard + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=cosine"), 0);
  ASSERT_EQ(RunCli(args + "--similarity=overlap"), 0);
  EXPECT_EQ(RunCli("--users=60 --lazy-cycles=5 --queries=2 "
                   "--similarity=overlap"),
            0);

  const std::string common_json = ReadFileOrEmpty(common_a);
  ASSERT_FALSE(common_json.empty());
  // "common" and its alias are the same metric; the default-metric report
  // matches what an unflagged run produces.
  EXPECT_EQ(common_json, ReadFileOrEmpty(common_b));
  EXPECT_NE(common_json, ReadFileOrEmpty(jaccard))
      << "the similarity metric must actually reach the protocol";
  std::remove(common_a.c_str());
  std::remove(common_b.c_str());
  std::remove(jaccard.c_str());
}

TEST(P3qSimScenarioCli, LatencyFlagIsValidatedAndDeterministic) {
  EXPECT_NE(RunCli("--latency=bogus"), 0);
  EXPECT_NE(RunCli("--loss=1.5"), 0);
  EXPECT_NE(RunCli("--latency=fixed:2 --loss=0.1"), 0);

  const std::string path_a = test::ScratchPath("p3q_lagged_a.json");
  const std::string path_b = test::ScratchPath("p3q_lagged_b.json");
  const std::string args =
      "--scenario=steady-state --latency=uniform:1:3 --users=60 "
      "--cycle-scale=0.2 --seed=5 --json=";
  ASSERT_EQ(RunCli(args + "\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "\"" + path_b + "\""), 0);
  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"latency\": \"uniform:1:3\""), std::string::npos);
  EXPECT_NE(json.find("\"delivery\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "equal-seed lagged runs must produce byte-identical reports";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, NumericFlagsRejectTrailingGarbage) {
  // std::from_chars full-string validation: a numeric flag must consume the
  // whole value, so partial parses that atof/atoi silently accepted fail.
  EXPECT_NE(RunCli("--cycle-scale=abc"), 0);
  EXPECT_NE(RunCli("--cycle-scale=1.5x"), 0);
  EXPECT_NE(RunCli("--cycle-scale="), 0);
  EXPECT_NE(RunCli("--users=1e3"), 0);
  EXPECT_NE(RunCli("--users=100abc"), 0);
  EXPECT_NE(RunCli("--threads=2x"), 0);
  EXPECT_NE(RunCli("--seed=-1"), 0);
  EXPECT_NE(RunCli("--queries=3.5"), 0);
  EXPECT_NE(RunCli("--alpha=0.5;rm"), 0);
  // The exact same values without the garbage still parse.
  EXPECT_EQ(RunCli("--scenario=steady-state --users=60 --cycle-scale=0.15 "
                   "--threads=2 --seed=5"),
            0);
}

TEST(P3qSimScenarioCli, ArrivalFlagsAreValidated) {
  // Arrival overrides only make sense against a scenario timeline.
  EXPECT_NE(RunCli("--arrival-rate=2"), 0);
  EXPECT_NE(RunCli("--arrival-sweep=1:4:1"), 0);
  // A single rate and a sweep are mutually exclusive, and both are strict.
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=2 "
                   "--arrival-sweep=1:4:1"),
            0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=-1"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=2x"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=1:4"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=4:1:1"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=1:4:0"), 0);
}

TEST(P3qSimScenarioCli, ArrivalRateRunEmitsDeterministicQueryLatency) {
  const std::string path_a = test::ScratchPath("p3q_openloop_a.json");
  const std::string path_b = test::ScratchPath("p3q_openloop_b.json");
  const std::string args =
      "--scenario=open-loop-steady --arrival-rate=1.5 --users=80 "
      "--cycle-scale=0.25 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--threads=1 --json=\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=8 --json=\"" + path_b + "\""), 0);
  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"slo_cycles\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"query_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"arrivals\": \"poisson:1.5\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "open-loop reports must not depend on the thread count";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, TraceIsByteIdenticalAcrossThreadsAndObservationOnly) {
  const std::string trace1 = test::ScratchPath("p3q_trace_t1.jsonl");
  const std::string trace2 = test::ScratchPath("p3q_trace_t2.jsonl");
  const std::string trace8 = test::ScratchPath("p3q_trace_t8.jsonl");
  const std::string plain_json = test::ScratchPath("p3q_trace_plain.json");
  const std::string traced_json = test::ScratchPath("p3q_trace_traced.json");
  const std::string args =
      "--scenario=steady-state --users=60 --cycle-scale=0.2 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--threads=1 --trace=\"" + trace1 + "\" --json=\"" +
                   traced_json + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--threads=2 --trace=\"" + trace2 + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=8 --trace=\"" + trace8 + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=4 --json=\"" + plain_json + "\""), 0);

  const std::string trace = ReadFileOrEmpty(trace1);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"seq\":0,", 0), 0u);
  EXPECT_NE(trace.find("\"kind\":\"gossip_planned\""), std::string::npos);
  EXPECT_EQ(trace, ReadFileOrEmpty(trace2))
      << "traces must not depend on the thread count";
  EXPECT_EQ(trace, ReadFileOrEmpty(trace8));
  // Tracing is observation-only: the default report of a traced run equals
  // an untraced run's byte for byte.
  const std::string plain = ReadFileOrEmpty(plain_json);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, ReadFileOrEmpty(traced_json));

  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace8.c_str());
  std::remove(plain_json.c_str());
  std::remove(traced_json.c_str());
}

TEST(P3qSimScenarioCli, ObservabilityFlagsAreValidated) {
  EXPECT_NE(RunCli("--trace-format=xml"), 0);
  EXPECT_NE(RunCli("--trace-filter=query_issued"), 0);  // needs --trace
  EXPECT_NE(RunCli("--trace-ring=100"), 0);             // needs --trace
  EXPECT_NE(RunCli("--scenario=steady-state --trace=/tmp/t.jsonl "
                   "--trace-filter=no_such_kind"),
            0);
  EXPECT_NE(RunCli("--scenario=steady-state --trace-nodes=1,2x"), 0);
  EXPECT_NE(RunCli("--progress=10"), 0);  // scenario mode only
  EXPECT_NE(RunCli("--scenario=open-loop-saturation --arrival-sweep=1:2:1 "
                   "--trace=/tmp/t.jsonl"),
            0);
}

TEST(P3qSimScenarioCli, ChromeTraceAndProfileAreWellFormed) {
  const std::string trace = test::ScratchPath("p3q_chrome.json");
  const std::string profile = test::ScratchPath("p3q_profile.json");
  ASSERT_EQ(RunCli("--scenario=steady-state --users=60 --cycle-scale=0.2 "
                   "--seed=5 --trace=\"" +
                   trace + "\" --trace-format=chrome --profile=\"" + profile +
                   "\""),
            0);
  const std::string chrome = ReadFileOrEmpty(trace);
  ASSERT_FALSE(chrome.empty());
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(chrome.substr(chrome.size() - 4), "\n]}\n");
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  const std::string prof = ReadFileOrEmpty(profile);
  ASSERT_FALSE(prof.empty());
  EXPECT_NE(prof.find("\"engines\""), std::string::npos);
  EXPECT_NE(prof.find("\"plan_seconds\""), std::string::npos);
  EXPECT_NE(prof.find("\"mean_imbalance\""), std::string::npos);
  std::remove(trace.c_str());
  std::remove(profile.c_str());
}

TEST(P3qSimScenarioCli, ArrivalSweepWritesTheSweepReport) {
  const std::string path = test::ScratchPath("p3q_sweep.json");
  ASSERT_EQ(RunCli("--scenario=open-loop-saturation --arrival-sweep=1:3:2 "
                   "--users=80 --cycle-scale=0.25 --seed=5 --json=\"" +
                   path + "\""),
            0);
  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 1.00"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 3.00"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_per_cycle\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p3q
