#include "nidc/core/cluster_set.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/clustering_result.h"
#include "nidc/util/random.h"
#include "nidc/util/thread_pool.h"

namespace nidc {
namespace {

class ClusterSetTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("iraq weapons inspection", 0.0);
    corpus_.AddText("iraq sanctions embargo", 0.0);
    corpus_.AddText("olympics skating medal", 0.0);
    corpus_.AddText("olympics hockey nagano", 0.0);
    ForgettingParams p;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AddDocuments({0, 1, 2, 3});
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST_F(ClusterSetTest, StartsEmpty) {
  ClusterSet set(3);
  EXPECT_EQ(set.num_clusters(), 3u);
  EXPECT_EQ(set.TotalAssigned(), 0u);
  EXPECT_EQ(set.ClusterOf(0), kUnassigned);
  EXPECT_DOUBLE_EQ(set.G(), 0.0);
}

TEST_F(ClusterSetTest, AssignMovesDocument) {
  ClusterSet set(2);
  set.Assign(0, 0, *ctx_);
  EXPECT_EQ(set.ClusterOf(0), 0);
  EXPECT_EQ(set.cluster(0).size(), 1u);
  set.Assign(0, 1, *ctx_);
  EXPECT_EQ(set.ClusterOf(0), 1);
  EXPECT_EQ(set.cluster(0).size(), 0u);
  EXPECT_EQ(set.cluster(1).size(), 1u);
  EXPECT_EQ(set.TotalAssigned(), 1u);
}

TEST_F(ClusterSetTest, AssignToSameClusterIsNoop) {
  ClusterSet set(2);
  set.Assign(0, 0, *ctx_);
  set.Assign(0, 0, *ctx_);
  EXPECT_EQ(set.cluster(0).size(), 1u);
}

TEST_F(ClusterSetTest, UnassignDetaches) {
  ClusterSet set(2);
  set.Assign(0, 0, *ctx_);
  set.Assign(0, kUnassigned, *ctx_);
  EXPECT_EQ(set.ClusterOf(0), kUnassigned);
  EXPECT_EQ(set.TotalAssigned(), 0u);
  EXPECT_TRUE(set.cluster(0).empty());
}

TEST_F(ClusterSetTest, GSumsSizeWeightedAvgSim) {
  ClusterSet set(2);
  set.Assign(0, 0, *ctx_);
  set.Assign(1, 0, *ctx_);
  set.Assign(2, 1, *ctx_);
  set.Assign(3, 1, *ctx_);
  const double expected = 2.0 * ctx_->Sim(0, 1) + 2.0 * ctx_->Sim(2, 3);
  EXPECT_NEAR(set.G(), expected, 1e-12);
}

TEST_F(ClusterSetTest, RefreshAllPreservesG) {
  ClusterSet set(2);
  set.Assign(0, 0, *ctx_);
  set.Assign(1, 0, *ctx_);
  set.Assign(2, 1, *ctx_);
  const double g = set.G();
  set.RefreshAll(*ctx_);
  EXPECT_NEAR(set.G(), g, 1e-12);
}

// A larger random corpus whose clusters are built through Assign churn, so
// every member list is in the permuted swap-and-pop order Remove leaves.
class ChurnedClusterSetTest : public testing::Test {
 protected:
  static constexpr size_t kDocs = 80;
  static constexpr size_t kK = 6;

  void SetUp() override {
    const char* words[] = {"alpha", "bravo", "charlie", "delta", "echo",
                           "fox",   "golf",  "hotel",   "india", "juliet",
                           "kilo",  "lima",  "mike",    "nov",   "oscar",
                           "papa",  "romeo", "sierra",  "tango", "victor"};
    Rng rng(17);
    for (size_t i = 0; i < kDocs; ++i) {
      std::string text;
      const size_t len = 3 + rng.NextBounded(10);
      for (size_t j = 0; j < len; ++j) {
        if (!text.empty()) text += ' ';
        text += words[rng.NextBounded(20)];
      }
      corpus_.AddText(text, 0.1 * static_cast<double>(i));
    }
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(10.0);
    std::vector<DocId> ids;
    for (DocId d = 0; d < kDocs; ++d) ids.push_back(d);
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  // Random Assign/detach churn; documents end up in every cluster in a
  // member order no insertion sequence alone would produce.
  void Churn(uint64_t seed, ClusterSet* set) const {
    Rng rng(seed);
    for (int op = 0; op < 600; ++op) {
      const DocId id = static_cast<DocId>(rng.NextBounded(kDocs));
      const int p = rng.NextBounded(8) == 0
                        ? kUnassigned
                        : static_cast<int>(rng.NextBounded(kK));
      set->Assign(id, p, *ctx_);
    }
  }

  // The reference Refresh: fold every member's ψ into an empty vector in
  // member order.
  SparseVector Fold(const Cluster& c, double* ss) const {
    SparseVector rep;
    *ss = 0.0;
    for (DocId id : c.members()) {
      rep.AddScaled(ctx_->Psi(id), 1.0);
      *ss += ctx_->SelfSim(id);
    }
    return rep;
  }

  // Each cluster's representative, ss and cr_self are the fold's bit for
  // bit, and the posting index holds every coefficient of every cluster.
  void ExpectRefreshedExactly(const ClusterSet& set) const {
    std::map<TermId, std::vector<std::pair<size_t, double>>> coefficients;
    for (size_t p = 0; p < set.num_clusters(); ++p) {
      const Cluster& c = set.cluster(p);
      double ss = 0.0;
      const SparseVector fold = Fold(c, &ss);
      EXPECT_EQ(c.representative(), fold) << "cluster " << p;
      EXPECT_EQ(c.ss(), ss) << "cluster " << p;
      EXPECT_EQ(c.cr_self(), fold.SquaredNorm()) << "cluster " << p;
      for (const SparseVector::Entry& e : fold.entries()) {
        coefficients[e.id].emplace_back(p, e.value);
      }
    }
    for (uint32_t t = 0; t < ctx_->num_local_terms(); ++t) {
      const TermId term = ctx_->GlobalTerm(t);
      EXPECT_EQ(set.flat_index().PostingsOf(*ctx_, term), coefficients[term])
          << "term " << term;
    }
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST_F(ChurnedClusterSetTest, RefreshAllMatchesTheMemberOrderFold) {
  ThreadPool pool(4);
  for (uint64_t seed : {1u, 2u, 3u}) {
    ClusterSet serial(kK, ClusterScoring::kSlotted);
    ClusterSet parallel(kK, ClusterScoring::kSlotted);
    Churn(seed, &serial);
    Churn(seed, &parallel);
    serial.RefreshAll(*ctx_);
    parallel.RefreshAll(*ctx_, &pool);
    ExpectRefreshedExactly(serial);
    ExpectRefreshedExactly(parallel);
    // Churn after the first build goes through the overlay; the next
    // refresh folds it back into one exact base.
    Churn(seed + 100, &serial);
    Churn(seed + 100, &parallel);
    serial.RefreshAll(*ctx_);
    parallel.RefreshAll(*ctx_, &pool);
    ExpectRefreshedExactly(serial);
    ExpectRefreshedExactly(parallel);
  }
}

// Seeding through Seed and then RefreshAll leaves the set exactly as the
// same Assign sequence does: memberships and their order, stable ids,
// statistics, postings and identity continuity.
TEST_F(ChurnedClusterSetTest, SeedMatchesAssignOnceRefreshed) {
  const auto expect_same = [&](ClusterSet& by_seed, ClusterSet& by_assign) {
    ThreadPool pool(4);
    by_seed.RefreshAll(*ctx_, &pool);
    by_assign.RefreshAll(*ctx_);
    const ClusteringResult a =
        ClusteringResult::FromClusterSet(by_seed, {}, {}, 0, false);
    const ClusteringResult b =
        ClusteringResult::FromClusterSet(by_assign, {}, {}, 0, false);
    EXPECT_EQ(a.clusters, b.clusters);
    EXPECT_EQ(a.representatives, b.representatives);
    EXPECT_EQ(a.avg_sims, b.avg_sims);
    EXPECT_EQ(a.cluster_ids, b.cluster_ids);
    EXPECT_EQ(a.next_cluster_id, b.next_cluster_id);
    EXPECT_EQ(a.g, b.g);
    EXPECT_EQ(by_seed.TotalAssigned(), by_assign.TotalAssigned());
    for (DocId d = 0; d < kDocs; ++d) {
      EXPECT_EQ(by_seed.ClusterOf(d), by_assign.ClusterOf(d));
      for (size_t p = 0; p < kK; ++p) {
        EXPECT_EQ(by_seed.cluster(p).ReseedContinuesIdentity(d),
                  by_assign.cluster(p).ReseedContinuesIdentity(d));
      }
    }
    for (uint32_t t = 0; t < ctx_->num_local_terms(); ++t) {
      const TermId term = ctx_->GlobalTerm(t);
      EXPECT_EQ(by_seed.flat_index().PostingsOf(*ctx_, term),
                by_assign.flat_index().PostingsOf(*ctx_, term));
    }
    ExpectRefreshedExactly(by_seed);
  };

  // kMembership: round-robin memberships in which some documents are
  // listed twice. The later listing wins, taking the document out of the
  // earlier cluster by swap-and-pop; doc 1 is cluster 1's only member, so
  // its move also empties that cluster and opens its identity window.
  std::vector<std::vector<DocId>> memberships(kK);
  for (DocId d = 0; d < kDocs; ++d) memberships[d % kK].push_back(d);
  memberships[1] = {1};
  memberships[4].push_back(1);
  memberships[3].push_back(2);
  memberships[5].push_back(12);
  {
    ClusterSet by_seed(kK, ClusterScoring::kSlotted);
    ClusterSet by_assign(kK, ClusterScoring::kSlotted);
    for (size_t p = 0; p < kK; ++p) {
      for (DocId d : memberships[p]) {
        by_seed.Seed(d, static_cast<int>(p));
        by_assign.Assign(d, static_cast<int>(p), *ctx_);
      }
    }
    EXPECT_EQ(by_seed.ClusterOf(1), 4);
    EXPECT_EQ(by_seed.ClusterOf(2), 3);
    EXPECT_EQ(by_seed.ClusterOf(12), 5);
    EXPECT_TRUE(by_seed.cluster(1).empty());
    EXPECT_TRUE(by_seed.cluster(1).ReseedContinuesIdentity(1));
    expect_same(by_seed, by_assign);
  }

  // kRepresentatives: distinct documents in document order, some left out
  // as outliers.
  {
    ClusterSet by_seed(kK, ClusterScoring::kSlotted);
    ClusterSet by_assign(kK, ClusterScoring::kSlotted);
    Rng rng(9);
    for (DocId d = 0; d < kDocs; ++d) {
      if (rng.NextBounded(5) == 0) continue;
      const int p = static_cast<int>(rng.NextBounded(kK));
      by_seed.Seed(d, p);
      by_assign.Assign(d, p, *ctx_);
    }
    expect_same(by_seed, by_assign);
  }
}

}  // namespace
}  // namespace nidc
