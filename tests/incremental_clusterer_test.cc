#include "nidc/core/incremental_clusterer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"

namespace nidc {
namespace {

class IncrementalClustererTest : public testing::Test {
 protected:
  void SetUp() override {
    // Day 0: iraq topic. Day 1: olympics. Day 30: tobacco (iraq expires
    // under a short life span by then).
    corpus_.AddText("iraq weapons inspection baghdad", 0.0, 1);
    corpus_.AddText("iraq sanctions baghdad embargo", 0.0, 1);
    corpus_.AddText("olympics skating nagano medal", 1.0, 2);
    corpus_.AddText("olympics hockey nagano final", 1.0, 2);
    corpus_.AddText("tobacco settlement senate lawsuit", 30.0, 3);
    corpus_.AddText("tobacco lawsuit vote senate", 30.0, 3);
  }

  ForgettingParams Params(double beta = 7.0, double gamma = 14.0) {
    ForgettingParams p;
    p.half_life_days = beta;
    p.life_span_days = gamma;
    return p;
  }

  IncrementalOptions Options(size_t k = 2) {
    IncrementalOptions o;
    o.kmeans.k = k;
    o.kmeans.seed = 3;
    return o;
  }

  Corpus corpus_;
};

TEST_F(IncrementalClustererTest, FirstStepClustersFromScratch) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_new, 4u);
  EXPECT_EQ(result->num_active, 4u);
  EXPECT_TRUE(result->expired.empty());
  EXPECT_TRUE(ic.last_result().has_value());
}

TEST_F(IncrementalClustererTest, StepsAccumulateDocuments) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  auto second = ic.Step({2, 3}, 1.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_active, 4u);
}

TEST_F(IncrementalClustererTest, OldDocumentsExpire) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 14.0), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 1.0).ok());
  // 29 days later the day-0/1 docs are far below ε = 0.25.
  auto result = ic.Step({4, 5}, 30.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->expired.size(), 4u);
  EXPECT_EQ(result->num_active, 2u);
  EXPECT_EQ(ic.model().num_active(), 2u);
}

TEST_F(IncrementalClustererTest, RejectsTimeTravel) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 5.0).ok());
  EXPECT_EQ(ic.Step({4}, 2.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IncrementalClustererTest, RejectsNonFiniteStepTime) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  EXPECT_EQ(ic.Step({0, 1}, std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ic.Step({0, 1}, std::numeric_limits<double>::infinity()).status().code(),
      StatusCode::kInvalidArgument);
  // A rejected step must not mutate the model; the clean step still works.
  EXPECT_TRUE(ic.Step({0, 1}, 0.0).ok());
}

TEST_F(IncrementalClustererTest, RejectsMalformedBatches) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  // Beyond-corpus id.
  EXPECT_EQ(ic.Step({99}, 0.0).status().code(), StatusCode::kInvalidArgument);
  // Duplicate id within the batch.
  EXPECT_EQ(ic.Step({0, 1, 0}, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  // Re-adding an already-active document.
  EXPECT_EQ(ic.Step({1, 2}, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  // None of the rejects advanced the model clock or active set.
  EXPECT_EQ(ic.model().now(), 0.0);
  EXPECT_EQ(ic.model().num_active(), 2u);
}

TEST_F(IncrementalClustererTest, FailsWhenEverythingExpired) {
  IncrementalClusterer ic(&corpus_, Params(1.0, 2.0), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  // 100 days of silence: both docs expire, nothing to cluster.
  EXPECT_EQ(ic.Step({}, 100.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalClustererTest, TimingsAreRecorded) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats_update_seconds, 0.0);
  EXPECT_GT(result->clustering_seconds, 0.0);
}

TEST_F(IncrementalClustererTest, StepResultCarriesClusteringDigest) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, result->clustering.iterations);
  EXPECT_GT(result->iterations, 0);
  EXPECT_EQ(result->num_outliers, result->clustering.outliers.size());
  EXPECT_DOUBLE_EQ(result->final_g, result->clustering.g);
  ASSERT_FALSE(result->clustering.g_history.empty());
  EXPECT_DOUBLE_EQ(result->final_g, result->clustering.g_history.back());
}

TEST_F(IncrementalClustererTest, StepPopulatesMetricsRegistry) {
  obs::MetricsRegistry registry;
  IncrementalOptions opts = Options();
  opts.metrics = &registry;
  IncrementalClusterer ic(&corpus_, Params(), opts);
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(registry.GetCounter("step.count")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("step.docs_new")->Value(), 4u);
  EXPECT_EQ(registry.GetCounter("kmeans.runs")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("kmeans.iterations")->Value(),
            static_cast<uint64_t>(result->iterations));
  EXPECT_DOUBLE_EQ(registry.GetGauge("kmeans.g_final")->Value(),
                   result->final_g);
  EXPECT_DOUBLE_EQ(registry.GetGauge("step.active_docs")->Value(), 4.0);
  EXPECT_GT(registry.GetGauge("term_stats.vocab_size")->Value(), 0.0);

  ASSERT_TRUE(ic.Step({4, 5}, 30.0).ok());
  EXPECT_EQ(registry.GetCounter("step.count")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("kmeans.runs")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("step.docs_expired")->Value(), 4u);
}

TEST_F(IncrementalClustererTest, StepRecordsTraceSpans) {
  obs::PhaseProfiler profiler;
  obs::ScopedProfilerInstall install(&profiler);
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 1.0).ok());
  std::vector<std::string> paths;
  for (const auto& phase : profiler.Snapshot()) paths.push_back(phase.path);
  const auto has = [&](const std::string& path) {
    return std::find(paths.begin(), paths.end(), path) != paths.end();
  };
  EXPECT_TRUE(has("clusterer.step"));
  EXPECT_TRUE(has("clusterer.step;step.stats_update"));
  EXPECT_TRUE(has("clusterer.step;kmeans.run"));
  EXPECT_TRUE(has("clusterer.step;kmeans.run;kmeans.sweep"));
}

TEST_F(IncrementalClustererTest, MembershipReseedKeepsStableClusters) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 60.0), Options());
  auto first = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(first.ok());
  const auto clusters_before = first->clustering.clusters;
  // A quiet step (no new docs, tiny time passage) shouldn't upend anything.
  auto second = ic.Step({}, 1.5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->clustering.clusters, clusters_before);
}

TEST_F(IncrementalClustererTest, RepresentativeReseedModeRuns) {
  IncrementalOptions opts = Options();
  opts.reseed_mode = SeedMode::kRepresentatives;
  IncrementalClusterer ic(&corpus_, Params(7.0, 60.0), opts);
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 1.0).ok());
  auto second = ic.Step({4, 5}, 30.0);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->clustering.TotalAssigned(), 0u);
}

// The active set drops below the previous step's K clusters (which
// RunExtendedKMeans would reject as a seed) and then grows back past K.
TEST_F(IncrementalClustererTest, ActiveSetBelowKStillReseedsAndRecovers) {
  corpus_.AddText("iraq inspection weapons talks", 31.0, 1);
  corpus_.AddText("olympics medal skating final", 31.0, 2);
  corpus_.AddText("tobacco senate settlement vote", 31.0, 3);
  corpus_.AddText("nagano hockey olympics games", 31.0, 2);
  for (SeedMode mode : {SeedMode::kMembership, SeedMode::kRepresentatives}) {
    SCOPED_TRACE(static_cast<int>(mode));
    IncrementalOptions opts = Options(4);
    opts.reseed_mode = mode;
    IncrementalClusterer ic(&corpus_, Params(7.0, 14.0), opts);
    auto full = ic.Step({0, 1, 2, 3}, 1.0);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_EQ(full->clustering.clusters.size(), 4u);

    // The day-0 documents expire; two day-1 documents face four clusters.
    // Only clusters holding one of them seed the step, with their ids.
    auto shrunk = ic.Step({}, 14.5);
    ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
    EXPECT_EQ(shrunk->num_active, 2u);
    ASSERT_EQ(shrunk->clustering.clusters.size(), 2u);
    for (size_t p = 0; p < 2; ++p) {
      if (shrunk->clustering.clusters[p].empty()) continue;
      const int before =
          full->clustering.ClusterOf(shrunk->clustering.clusters[p].front());
      ASSERT_NE(before, kUnassigned);
      EXPECT_EQ(shrunk->clustering.cluster_ids[p],
                full->clustering.cluster_ids[static_cast<size_t>(before)]);
    }

    // Every seeded document expires: no cluster survives, so the step
    // starts from random singletons.
    auto emptied = ic.Step({4}, 30.0);
    ASSERT_TRUE(emptied.ok()) << emptied.status().ToString();
    EXPECT_EQ(emptied->num_active, 1u);
    EXPECT_EQ(emptied->clustering.TotalAssigned(), 1u);

    auto recovered = ic.Step({6, 7, 8, 9}, 31.0);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->num_active, 5u);
    EXPECT_EQ(recovered->clustering.clusters.size(), 4u);
    EXPECT_EQ(recovered->clustering.TotalAssigned() +
                  recovered->clustering.outliers.size(),
              5u);
  }
}

TEST_F(IncrementalClustererTest, BatchClustererRebuildsEachTime) {
  BatchClusterer bc(&corpus_, Params(7.0, 14.0), Options().kmeans);
  auto run1 = bc.Run({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->num_active, 4u);
  // A later run over everything expires the old docs via ε.
  auto run2 = bc.Run({0, 1, 2, 3, 4, 5}, 30.0);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->expired.size(), 4u);
  EXPECT_EQ(run2->num_active, 2u);
}

TEST_F(IncrementalClustererTest, IncrementalAndBatchAgreeOnActiveSet) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 14.0), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  ASSERT_TRUE(ic.Step({2, 3}, 1.0).ok());
  auto inc = ic.Step({4, 5}, 30.0);
  ASSERT_TRUE(inc.ok());

  BatchClusterer bc(&corpus_, Params(7.0, 14.0), Options().kmeans);
  auto batch = bc.Run({0, 1, 2, 3, 4, 5}, 30.0);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(inc->num_active, batch->num_active);
  for (DocId id : ic.model().active_docs()) {
    EXPECT_NEAR(ic.model().Weight(id), bc.model().Weight(id), 1e-9);
    EXPECT_NEAR(ic.model().PrDoc(id), bc.model().PrDoc(id), 1e-9);
  }
}

}  // namespace
}  // namespace nidc
