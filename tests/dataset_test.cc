// Unit tests for dataset/: synthetic generator, reduction, loader, queries,
// update batches and the Table-1 storage distributions.
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include <gtest/gtest.h>

#include "dataset/dataset.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "dataset/storage_dist.h"
#include "dataset/trace_loader.h"
#include "dataset/trace_writer.h"

#include "test_util.h"

namespace p3q {
namespace {

TEST(DatasetTest, StatsOnHandBuiltData) {
  std::vector<std::vector<ActionKey>> actions(3);
  actions[0] = {MakeAction(1, 1), MakeAction(2, 2)};
  actions[1] = {MakeAction(1, 1)};
  actions[2] = {};
  const Dataset d(std::move(actions));
  const DatasetStats s = d.ComputeStats();
  EXPECT_EQ(s.num_users, 3u);
  EXPECT_EQ(s.num_items, 2u);
  EXPECT_EQ(s.num_tags, 2u);
  EXPECT_EQ(s.num_actions, 3u);
  EXPECT_DOUBLE_EQ(s.mean_profile_length, 1.0);
  EXPECT_EQ(s.max_items_per_user, 2u);
}

TEST(DatasetTest, ConstructorSortsAndDedupes) {
  std::vector<std::vector<ActionKey>> actions(1);
  actions[0] = {MakeAction(9, 9), MakeAction(1, 1), MakeAction(9, 9)};
  const Dataset d(std::move(actions));
  EXPECT_EQ(d.ActionsOf(0).size(), 2u);
  EXPECT_TRUE(std::is_sorted(d.ActionsOf(0).begin(), d.ActionsOf(0).end()));
}

TEST(DatasetTest, ReduceDropsRareItemsAndTags) {
  // Item 1 / tag 1 used by 3 users; item 2 / tag 2 used by only one.
  std::vector<std::vector<ActionKey>> actions(3);
  actions[0] = {MakeAction(1, 1), MakeAction(2, 2)};
  actions[1] = {MakeAction(1, 1)};
  actions[2] = {MakeAction(1, 1)};
  const Dataset d(std::move(actions));
  const Dataset reduced = d.Reduce(2);
  EXPECT_EQ(reduced.ActionsOf(0).size(), 1u);  // (2,2) dropped
  EXPECT_EQ(reduced.ActionsOf(1).size(), 1u);
  const DatasetStats s = reduced.ComputeStats();
  EXPECT_EQ(s.num_items, 1u);
  EXPECT_EQ(s.num_tags, 1u);
}

TEST(DatasetTest, ReduceDropsActionWithRareTagOnPopularItem) {
  // Item 1 popular, but tag 7 used by a single user: (1,7) must go.
  std::vector<std::vector<ActionKey>> actions(2);
  actions[0] = {MakeAction(1, 1), MakeAction(1, 7)};
  actions[1] = {MakeAction(1, 1)};
  const Dataset d(std::move(actions));
  const Dataset reduced = d.Reduce(2);
  EXPECT_EQ(reduced.ActionsOf(0).size(), 1u);
}

TEST(DatasetTest, BuildProfileStore) {
  std::vector<std::vector<ActionKey>> actions(2);
  actions[0] = {MakeAction(1, 1)};
  actions[1] = {MakeAction(2, 2), MakeAction(3, 3)};
  const Dataset d(std::move(actions));
  const ProfileStore store = d.BuildProfileStore(1024);
  EXPECT_EQ(store.NumUsers(), 2u);
  EXPECT_EQ(store.Get(1)->Length(), 2u);
  EXPECT_EQ(store.Get(0)->owner(), 0u);
}

TEST(GeneratorTest, RejectsNonPositiveUsers) {
  EXPECT_THROW(GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(0), 1),
               std::invalid_argument);
  EXPECT_THROW(GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(-5), 1),
               std::invalid_argument);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const SyntheticConfig config = SyntheticConfig::DeliciousLike(100);
  const SyntheticTrace a = GenerateSyntheticTrace(config, 7);
  const SyntheticTrace b = GenerateSyntheticTrace(config, 7);
  for (UserId u = 0; u < 100; ++u) {
    EXPECT_EQ(a.dataset().ActionsOf(u), b.dataset().ActionsOf(u));
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const SyntheticConfig config = SyntheticConfig::DeliciousLike(100);
  const SyntheticTrace a = GenerateSyntheticTrace(config, 1);
  const SyntheticTrace b = GenerateSyntheticTrace(config, 2);
  int identical = 0;
  for (UserId u = 0; u < 100; ++u) {
    if (a.dataset().ActionsOf(u) == b.dataset().ActionsOf(u)) ++identical;
  }
  EXPECT_LT(identical, 5);
}

TEST(GeneratorTest, RespectsActivityBounds) {
  SyntheticConfig config = SyntheticConfig::DeliciousLike(200);
  config.min_items_per_user = 5;
  config.max_items_per_user = 500;
  const SyntheticTrace trace = GenerateSyntheticTrace(config, 11);
  const DatasetStats stats = trace.dataset().ComputeStats();
  EXPECT_EQ(stats.num_users, 200u);
  EXPECT_LE(stats.max_items_per_user, 500u);
  EXPECT_GT(stats.mean_items_per_user, 5.0);
  // Several tags per tagged item on average, as in delicious.
  EXPECT_GT(stats.mean_profile_length, stats.mean_items_per_user);
}

TEST(GeneratorTest, CommunityClusteringCreatesSimilarityStructure) {
  const SyntheticTrace trace = test::SmallTrace(300, 13);
  const Dataset& d = trace.dataset();
  const auto& community = trace.user_community();
  // Average similarity within a community must dominate across communities.
  double same_sum = 0, cross_sum = 0;
  int same_n = 0, cross_n = 0;
  Rng rng(5);
  for (int trial = 0; trial < 4000; ++trial) {
    const UserId a = static_cast<UserId>(rng.NextUint64(300));
    const UserId b = static_cast<UserId>(rng.NextUint64(300));
    if (a == b) continue;
    const std::size_t score =
        CountCommonActions(d.ActionsOf(a), d.ActionsOf(b));
    if (community[a] == community[b]) {
      same_sum += static_cast<double>(score);
      ++same_n;
    } else {
      cross_sum += static_cast<double>(score);
      ++cross_n;
    }
  }
  ASSERT_GT(same_n, 50);
  ASSERT_GT(cross_n, 50);
  EXPECT_GT(same_sum / same_n, 3.0 * (cross_sum / cross_n + 0.1));
}

TEST(GeneratorTest, LongTailItemPopularity) {
  const SyntheticTrace trace = test::SmallTrace(300, 17);
  std::unordered_map<ItemId, int> users_per_item;
  for (UserId u = 0; u < 300; ++u) {
    ItemId last = kInvalidItem;
    for (ActionKey a : trace.dataset().ActionsOf(u)) {
      if (ActionItem(a) != last) {
        last = ActionItem(a);
        ++users_per_item[last];
      }
    }
  }
  int rare = 0;
  int popular = 0;
  for (const auto& [item, n] : users_per_item) {
    if (n <= 3) ++rare;
    if (n >= 30) ++popular;
  }
  // Long tail: a large share of items used by very few users, alongside a
  // head of widely tagged ones.
  EXPECT_GT(rare, static_cast<int>(users_per_item.size()) / 3);
  EXPECT_GT(popular, 0);
}

TEST(UpdateBatchTest, MatchesConfiguredShape) {
  const SyntheticTrace trace = test::SmallTrace(400, 19);
  UpdateConfig config;  // paper defaults: 15.4% of users, mean 8, max 268
  Rng rng(23);
  const UpdateBatch batch = trace.MakeUpdateBatch(config, &rng);
  const double fraction =
      static_cast<double>(batch.NumChangedUsers()) / 400.0;
  EXPECT_NEAR(fraction, config.changed_user_fraction, 0.06);
  EXPECT_GT(batch.MeanNewActions(), 1.0);
  EXPECT_LE(batch.MaxNewActions(),
            static_cast<std::size_t>(config.max_new_actions));
}

TEST(UpdateBatchTest, ActionsAreGenuinelyNew) {
  const SyntheticTrace trace = test::SmallTrace(200, 29);
  Rng rng(31);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  for (const ProfileUpdate& u : batch.updates) {
    const auto& existing = trace.dataset().ActionsOf(u.user);
    for (ActionKey a : u.new_actions) {
      EXPECT_FALSE(
          std::binary_search(existing.begin(), existing.end(), a));
    }
  }
}

TEST(UpdateBatchTest, ApplyBumpsVersions) {
  const SyntheticTrace trace = test::SmallTrace(100, 37);
  ProfileStore store = trace.dataset().BuildProfileStore(1024);
  Rng rng(41);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  batch.ApplyTo(&store);
  for (const ProfileUpdate& u : batch.updates) {
    EXPECT_EQ(store.CurrentVersion(u.user), 1u);
    EXPECT_GT(store.Get(u.user)->Length(),
              trace.dataset().ActionsOf(u.user).size());
  }
}

TEST(TraceLoaderTest, ParsesTabSeparatedTriples) {
  std::istringstream in(
      "alice\thttp://a\tcpp\n"
      "# comment\n"
      "\n"
      "bob\thttp://a\tcpp\n"
      "alice\thttp://b\tdatabases\n"
      "malformed line without tabs\n"
      "only\ttwo\n");
  const auto loaded = LoadTaggingTrace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->user_names.size(), 2u);
  EXPECT_EQ(loaded->item_names.size(), 2u);
  EXPECT_EQ(loaded->tag_names.size(), 2u);
  EXPECT_EQ(loaded->skipped_lines, 2u);
  EXPECT_EQ(loaded->dataset.NumUsers(), 2u);
  EXPECT_EQ(loaded->dataset.ActionsOf(0).size(), 2u);  // alice
  EXPECT_EQ(loaded->dataset.ActionsOf(1).size(), 1u);  // bob
  // alice and bob share (http://a, cpp).
  EXPECT_EQ(CountCommonActions(loaded->dataset.ActionsOf(0),
                               loaded->dataset.ActionsOf(1)),
            1u);
}

TEST(TraceLoaderTest, EmptyStreamFails) {
  std::istringstream in("# nothing here\n");
  EXPECT_FALSE(LoadTaggingTrace(in).has_value());
}

TEST(TraceLoaderTest, MissingFileFails) {
  EXPECT_FALSE(LoadTaggingTraceFile("/nonexistent/path/trace.tsv").has_value());
}

TEST(TraceWriterTest, RoundTripsThroughLoader) {
  const SyntheticTrace trace = test::SmallTrace(60, 71);
  std::stringstream buffer;
  const std::size_t lines = WriteTaggingTrace(trace.dataset(), buffer);
  EXPECT_EQ(lines, trace.dataset().ComputeStats().num_actions);

  const auto loaded = LoadTaggingTrace(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->skipped_lines, 0u);
  const DatasetStats original = trace.dataset().ComputeStats();
  const DatasetStats reloaded = loaded->dataset.ComputeStats();
  EXPECT_EQ(original.num_users, reloaded.num_users);
  EXPECT_EQ(original.num_items, reloaded.num_items);
  EXPECT_EQ(original.num_tags, reloaded.num_tags);
  EXPECT_EQ(original.num_actions, reloaded.num_actions);
  // Per-user structure survives: same profile lengths and pairwise
  // similarity for a sample pair (ids are re-interned but consistent).
  for (UserId u = 0; u < 60; ++u) {
    EXPECT_EQ(trace.dataset().ActionsOf(u).size(),
              loaded->dataset.ActionsOf(u).size());
  }
  EXPECT_EQ(CountCommonActions(trace.dataset().ActionsOf(0),
                               trace.dataset().ActionsOf(1)),
            CountCommonActions(loaded->dataset.ActionsOf(0),
                               loaded->dataset.ActionsOf(1)));
}

TEST(TraceWriterTest, FileRoundTrip) {
  const SyntheticTrace trace = test::SmallTrace(20, 73);
  const std::string path = test::ScratchPath("p3q_trace_roundtrip.tsv");
  ASSERT_TRUE(WriteTaggingTraceFile(trace.dataset(), path));
  const auto loaded = LoadTaggingTraceFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.NumUsers(), 20u);
  std::remove(path.c_str());
}

TEST(TraceWriterTest, UnwritablePathFails) {
  const SyntheticTrace trace = test::SmallTrace(10, 79);
  EXPECT_FALSE(
      WriteTaggingTraceFile(trace.dataset(), "/nonexistent/dir/out.tsv"));
}

TEST(QueryGenTest, TagsComeFromTheSourceItem) {
  const SyntheticTrace trace = test::SmallTrace(100, 43);
  Rng rng(47);
  for (UserId u = 0; u < 50; ++u) {
    const QuerySpec q = GenerateQueryForUser(trace.dataset(), u, &rng);
    ASSERT_FALSE(q.tags.empty());
    EXPECT_EQ(q.querier, u);
    EXPECT_TRUE(std::is_sorted(q.tags.begin(), q.tags.end()));
    // Every query tag was applied by the user to the source item.
    const auto& actions = trace.dataset().ActionsOf(u);
    for (TagId t : q.tags) {
      EXPECT_TRUE(std::binary_search(actions.begin(), actions.end(),
                                     MakeAction(q.source_item, t)));
    }
  }
}

TEST(QueryGenTest, EmptyProfileYieldsEmptyQuery) {
  std::vector<std::vector<ActionKey>> actions(1);
  const Dataset d(std::move(actions));
  Rng rng(53);
  const QuerySpec q = GenerateQueryForUser(d, 0, &rng);
  EXPECT_TRUE(q.tags.empty());
  EXPECT_TRUE(GenerateQueries(d, &rng).empty());
}

TEST(StorageDistTest, Table1ProbabilitiesLambda1) {
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(1.0);
  const auto& p = dist.probabilities();
  ASSERT_EQ(p.size(), 7u);
  // Table 1 of the paper, lambda = 1.
  const double expected[] = {0.3679, 0.3679, 0.1839, 0.0613,
                             0.0153, 0.0031, 0.0006};
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(p[i], expected[i], 0.002);
}

TEST(StorageDistTest, Table1ProbabilitiesLambda4) {
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(4.0);
  const auto& p = dist.probabilities();
  // Table 1 of the paper, lambda = 4.
  const double expected[] = {0.0206, 0.0825, 0.1649, 0.2199,
                             0.2199, 0.1759, 0.1173};
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(p[i], expected[i], 0.002);
}

TEST(StorageDistTest, BucketsScale) {
  const StorageDistribution dist =
      StorageDistribution::TruncatedPoisson(1.0, 0.1);
  EXPECT_EQ(dist.buckets().front(), 1);
  EXPECT_EQ(dist.buckets().back(), 100);
}

TEST(StorageDistTest, SampleStaysInBuckets) {
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(4.0);
  Rng rng(59);
  for (int i = 0; i < 1000; ++i) {
    const int c = dist.Sample(&rng);
    EXPECT_TRUE(std::find(kStorageBuckets.begin(), kStorageBuckets.end(), c) !=
                kStorageBuckets.end());
  }
}

TEST(StorageDistTest, UniformAlwaysSame) {
  const StorageDistribution dist = StorageDistribution::Uniform(42);
  Rng rng(61);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.Sample(&rng), 42);
  EXPECT_DOUBLE_EQ(dist.Mean(), 42.0);
}

TEST(StorageDistTest, EmpiricalMatchesMean) {
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(1.0);
  Rng rng(67);
  const std::vector<int> assigned = dist.AssignAll(20000, &rng);
  double sum = 0;
  for (int c : assigned) sum += c;
  EXPECT_NEAR(sum / 20000.0, dist.Mean(), 1.5);
}

}  // namespace
}  // namespace p3q
