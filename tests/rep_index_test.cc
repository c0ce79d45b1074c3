#include "nidc/core/rep_index.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/cluster_set.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

// Randomized equivalence: a slotted ClusterSet and a kMerge twin are driven
// through the same assign/detach/refresh sequences. A slotted set takes a
// move's cross terms from its index and leaves its representatives stale
// until RefreshAll, so mid-sweep the twin's representatives are the
// reference: the index's document-at-a-time scores must match the twin's
// `representative().Dot(psi)` within 1e-12 (zero-snapped tombstones clear
// float residuals the merge representatives keep), and cr_self / ss must
// match bit for bit.
class RepIndexEquivalenceTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* pool[] = {"alpha", "bravo",  "charlie", "delta", "echo",
                          "fox",   "golf",   "hotel",   "india", "juliet",
                          "kilo",  "lima",   "mike",    "nov",   "oscar",
                          "papa",  "quebec", "romeo",   "sierra", "tango",
                          "umbra", "victor", "whiskey", "xray",  "yankee",
                          "zulu",  "anchor", "beacon",  "cobalt", "dynamo"};
    Rng words(321);
    const size_t n_docs = 60;
    for (size_t i = 0; i < n_docs; ++i) {
      std::string text;
      for (int j = 0; j < 8; ++j) {
        if (j > 0) text += ' ';
        text += pool[words.NextBounded(30)];
      }
      corpus_.AddText(text, 0.5 + 0.01 * static_cast<double>(i),
                      static_cast<TopicId>(i % 5));
    }
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, params);
    model_->AdvanceTo(2.0);
    std::vector<DocId> ids(n_docs);
    for (DocId d = 0; d < static_cast<DocId>(n_docs); ++d) ids[d] = d;
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
    docs_ = ids;
  }

  // Round-robin memberships plus the first RefreshAll, which builds the
  // flat index (moves before it maintain no postings).
  void AssignRoundRobinAndBuild(ClusterSet* set) const {
    for (size_t i = 0; i < docs_.size(); ++i) {
      set->Assign(docs_[i], static_cast<int>(i % set->num_clusters()), *ctx_);
    }
    set->RefreshAll(*ctx_);
  }

  // The same mutation applied to the slotted set and its merge twin.
  void AssignBoth(ClusterSet* set, ClusterSet* twin, DocId id, int p) const {
    set->Assign(id, p, *ctx_);
    twin->Assign(id, p, *ctx_);
  }
  void RefreshBoth(ClusterSet* set, ClusterSet* twin) const {
    set->RefreshAll(*ctx_);
    twin->RefreshAll(*ctx_);
  }

  void ExpectMatchesMergeTwin(const ClusterSet& set, const ClusterSet& twin) {
    ASSERT_EQ(set.num_clusters(), twin.num_clusters());
    for (size_t p = 0; p < set.num_clusters(); ++p) {
      EXPECT_EQ(set.cluster(p).members(), twin.cluster(p).members());
      EXPECT_EQ(set.cluster(p).cr_self(), twin.cluster(p).cr_self())
          << "cluster " << p;
      EXPECT_EQ(set.cluster(p).ss(), twin.cluster(p).ss()) << "cluster " << p;
    }
    std::vector<double> scores;
    for (DocId id : docs_) {
      const SparseVector& psi = ctx_->Psi(id);
      set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
      ASSERT_EQ(scores.size(), set.num_clusters());
      for (size_t p = 0; p < set.num_clusters(); ++p) {
        const double brute = twin.cluster(p).representative().Dot(psi);
        EXPECT_NEAR(scores[p], brute, 1e-12)
            << "doc " << id << " cluster " << p;
      }
    }
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
  std::vector<DocId> docs_;
};

TEST_F(RepIndexEquivalenceTest, RandomizedAssignDetachRefreshSequences) {
  const size_t k = 6;
  ClusterSet set(k, ClusterScoring::kSlotted);
  ClusterSet twin(k, ClusterScoring::kMerge);
  AssignRoundRobinAndBuild(&set);
  AssignRoundRobinAndBuild(&twin);
  Rng rng(99);
  for (int op = 0; op < 400; ++op) {
    const DocId id = docs_[rng.NextBounded(docs_.size())];
    // ~1/8 detach, ~1/16 full refresh, otherwise a random (re)assignment.
    const uint64_t roll = rng.NextBounded(16);
    if (roll == 0) {
      RefreshBoth(&set, &twin);
    } else if (roll <= 2) {
      AssignBoth(&set, &twin, id, kUnassigned);
    } else {
      AssignBoth(&set, &twin, id, static_cast<int>(rng.NextBounded(k)));
    }
    if (op % 20 == 0) ExpectMatchesMergeTwin(set, twin);
  }
  ExpectMatchesMergeTwin(set, twin);
  // And once more from the canonical (refreshed) state, where the slotted
  // set's own representatives are current again.
  RefreshBoth(&set, &twin);
  ExpectMatchesMergeTwin(set, twin);
  for (size_t p = 0; p < k; ++p) {
    EXPECT_EQ(set.cluster(p).representative(),
              twin.cluster(p).representative());
  }
}

TEST_F(RepIndexEquivalenceTest, IndexedGainsMatchMergeGains) {
  const size_t k = 4;
  ClusterSet set(k, ClusterScoring::kSlotted);
  ClusterSet twin(k, ClusterScoring::kMerge);
  AssignRoundRobinAndBuild(&set);
  AssignRoundRobinAndBuild(&twin);
  Rng rng(7);
  std::vector<double> scores;
  for (DocId id : docs_) {
    AssignBoth(&set, &twin, id, kUnassigned);
    set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
    for (size_t p = 0; p < k; ++p) {
      const Cluster& c = set.cluster(p);
      const Cluster& reference = twin.cluster(p);
      ASSERT_EQ(c.size(), reference.size());
      if (c.empty()) continue;
      EXPECT_NEAR(c.GainInGGivenT(scores[p]),
                  reference.GainInGIfAdded(id, *ctx_), 1e-12);
      EXPECT_NEAR(c.GainGivenT(scores[p]), reference.GainIfAdded(id, *ctx_),
                  1e-12);
    }
    AssignBoth(&set, &twin, id, static_cast<int>(rng.NextBounded(k)));
  }
  ExpectMatchesMergeTwin(set, twin);
}

// ---------------------------------------------------------------------------
// FlatRepIndex: the CSR posting index behind slotted move-only sweeps.
// ---------------------------------------------------------------------------

class FlatRepIndexTest : public RepIndexEquivalenceTest {
 protected:
  // Builds a merge-scoring ClusterSet with the same memberships as the
  // round-robin assignment used by the tests, assigned in the same order —
  // its representatives carry bit-identical coefficients to the ones a
  // slotted set's CSR rebuild accumulates.
  ClusterSet MakeMergeTwin(size_t k) const {
    ClusterSet twin(k, ClusterScoring::kMerge);
    for (size_t i = 0; i < docs_.size(); ++i) {
      twin.Assign(docs_[i], static_cast<int>(i % k), *ctx_);
    }
    return twin;
  }
};

TEST_F(FlatRepIndexTest, BuildFromClustersMatchesRepresentativeDots) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  AssignRoundRobinAndBuild(&set);
  const FlatRepIndex& index = set.flat_index();
  ASSERT_TRUE(index.built());
  EXPECT_EQ(index.stats().builds, 1u);
  std::vector<double> scores;
  for (DocId id : docs_) {
    index.ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
    ASSERT_EQ(scores.size(), k);
    const SparseVector& psi = ctx_->Psi(id);
    for (size_t p = 0; p < k; ++p) {
      // Bit-identical, not merely close: the CSR build accumulates weights
      // in member order and the scan in ascending term order — the exact
      // float operations of representative().Dot(psi).
      EXPECT_EQ(scores[p], set.cluster(p).representative().Dot(psi))
          << "doc " << id << " cluster " << p;
    }
  }
}

TEST_F(FlatRepIndexTest, ScoreAllDetachedMatchesPhysicalRemoval) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  AssignRoundRobinAndBuild(&set);
  std::vector<double> scores;
  for (DocId id : docs_) {
    const size_t home = static_cast<size_t>(set.ClusterOf(id));
    double attached = 0.0;
    set.flat_index().ScoreAllDetached(*ctx_, ctx_->SlotOf(id), home, &scores,
                                      &attached);
    // A fresh merge twin per document: physically detaching and re-attaching
    // in a shared twin would perturb its coefficients by a rounding step and
    // break the bit-for-bit comparison for later documents.
    ClusterSet twin = MakeMergeTwin(k);
    const SparseVector& psi = ctx_->Psi(id);
    EXPECT_EQ(attached, twin.cluster(home).representative().Dot(psi))
        << "doc " << id;
    twin.Assign(id, kUnassigned, *ctx_);
    for (size_t p = 0; p < k; ++p) {
      EXPECT_EQ(scores[p], twin.cluster(p).representative().Dot(psi))
          << "doc " << id << " cluster " << p;
    }
  }
}

TEST_F(FlatRepIndexTest, MoveMaintenanceTracksRepresentatives) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  ClusterSet twin(k, ClusterScoring::kMerge);
  AssignRoundRobinAndBuild(&set);
  AssignRoundRobinAndBuild(&twin);
  Rng rng(1234);
  for (int move = 0; move < 200; ++move) {
    const DocId id = docs_[rng.NextBounded(docs_.size())];
    const int target = rng.NextBounded(8) == 0
                           ? kUnassigned
                           : static_cast<int>(rng.NextBounded(k));
    AssignBoth(&set, &twin, id, target);
    // Scores within 1e-12, not bit-exact: zero-snapped tombstones
    // intentionally clear float residuals the merge representatives keep.
    if (move % 25 == 0) ExpectMatchesMergeTwin(set, twin);
  }
  EXPECT_GT(set.flat_index().stats().moves_applied, 0u);
  ExpectMatchesMergeTwin(set, twin);
  // A rebuild clears overlay and tombstones and restores bit-identity.
  std::vector<double> scores;
  set.RefreshAll(*ctx_);
  EXPECT_EQ(set.flat_index().stats().dead_entries, 0u);
  for (DocId probe : docs_) {
    set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(probe), &scores);
    const SparseVector& psi = ctx_->Psi(probe);
    for (size_t p = 0; p < k; ++p) {
      EXPECT_EQ(scores[p], set.cluster(p).representative().Dot(psi));
    }
  }
}

// A term whose last contributor leaves keeps a float residual in the merge
// representative while its posting snaps to zero. Reviving it must feed
// the residual — not the snapped zero — into the cross term, or cr_self
// drifts from the merge twin.
TEST_F(FlatRepIndexTest, RevivedTombstoneKeepsTheRepresentativeResidual) {
  ClusterSet set(2, ClusterScoring::kSlotted);
  ClusterSet twin(2, ClusterScoring::kMerge);
  // Every document in cluster 0 but the last, which seeds cluster 1.
  for (size_t i = 0; i < docs_.size(); ++i) {
    const int p = i + 1 == docs_.size() ? 1 : 0;
    AssignBoth(&set, &twin, docs_[i], p);
  }
  RefreshBoth(&set, &twin);
  // Drain cluster 0 to its first member, in reverse member order: the
  // subtraction order differs from the refresh's accumulation order.
  std::vector<DocId> leaving(set.cluster(0).members().begin() + 1,
                             set.cluster(0).members().end());
  std::reverse(leaving.begin(), leaving.end());
  for (DocId id : leaving) AssignBoth(&set, &twin, id, 1);
  ExpectMatchesMergeTwin(set, twin);
  // A term of cluster 0 with no contributor left but a nonzero residual.
  const SparseVector& stayer = ctx_->Psi(set.cluster(0).members()[0]);
  TermId residual_term = 0;
  bool found = false;
  for (const SparseVector::Entry& e :
       twin.cluster(0).representative().entries()) {
    if (e.value != 0.0 && stayer.ValueAt(e.id) == 0.0) {
      residual_term = e.id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "the corpus left no residual: nothing to revive";
  for (const auto& [cluster, weight] :
       set.flat_index().PostingsOf(*ctx_, residual_term)) {
    EXPECT_NE(cluster, 0u) << "the drained posting must be a tombstone";
  }
  // Revive it: move back a document that carries the term.
  const auto carrier =
      std::find_if(leaving.begin(), leaving.end(), [&](DocId id) {
        return ctx_->Psi(id).ValueAt(residual_term) != 0.0;
      });
  ASSERT_NE(carrier, leaving.end());
  AssignBoth(&set, &twin, *carrier, 0);
  ExpectMatchesMergeTwin(set, twin);
  EXPECT_GT(set.flat_index().stats().tombstones_revived, 0u);
  // The revival's cross term used the residual: the next move out of
  // cluster 0 still lands on the twin's cr_self bit for bit.
  AssignBoth(&set, &twin, *carrier, 1);
  ExpectMatchesMergeTwin(set, twin);
}

// Emptying a cluster drops its representative (Cluster::Clear), so the
// index must forget the cluster's residuals too: the first document back
// sees a cross term of exactly 0.
TEST_F(FlatRepIndexTest, EmptiedClusterRepopulatesFromZero) {
  const size_t k = 3;
  ClusterSet set(k, ClusterScoring::kSlotted);
  ClusterSet twin(k, ClusterScoring::kMerge);
  AssignRoundRobinAndBuild(&set);
  AssignRoundRobinAndBuild(&twin);
  std::vector<DocId> members = set.cluster(2).members();
  for (size_t i = 0; i < members.size(); ++i) {
    AssignBoth(&set, &twin, members[i], static_cast<int>(i % 2));
  }
  ASSERT_TRUE(set.cluster(2).empty());
  EXPECT_EQ(set.cluster(2).cr_self(), 0.0);
  ExpectMatchesMergeTwin(set, twin);
  // Repopulate with documents from the other clusters, one at a time.
  for (size_t i = 0; i < 6; ++i) {
    const DocId id = set.cluster(i % 2).members()[0];
    AssignBoth(&set, &twin, id, 2);
    if (i == 0) {
      EXPECT_EQ(set.cluster(2).cr_self(), ctx_->SelfSim(id));
    }
    ExpectMatchesMergeTwin(set, twin);
  }
  RefreshBoth(&set, &twin);
  ExpectMatchesMergeTwin(set, twin);
}

TEST_F(FlatRepIndexTest, ApplyIsANoOpBeforeTheFirstBuild) {
  ClusterSet set(3, ClusterScoring::kSlotted);
  EXPECT_FALSE(set.flat_index().built());
  for (size_t i = 0; i < docs_.size(); ++i) {
    set.Assign(docs_[i], static_cast<int>(i % 3), *ctx_);
  }
  // Seeding-style assigns before the first RefreshAll maintain nothing.
  EXPECT_EQ(set.flat_index().stats().moves_applied, 0u);
  EXPECT_EQ(set.flat_index().stats().live_entries, 0u);
  set.RefreshAll(*ctx_);
  EXPECT_TRUE(set.flat_index().built());
  EXPECT_GT(set.flat_index().stats().live_entries, 0u);
}

TEST_F(FlatRepIndexTest, BuildFromRepresentativesSkipsOutOfVocabularyTerms) {
  std::vector<SparseVector> reps(2);
  reps[0] = ctx_->Psi(docs_[0]);
  // A degenerate seed representative mentioning a term no active document
  // contains: it can never match a ψ, so the build drops it.
  std::vector<SparseVector::Entry> alien = reps[0].entries();
  alien.push_back({9999999, 42.0});
  reps[1] = SparseVector::FromEntries(std::move(alien));
  FlatRepIndex index;
  index.BuildFromRepresentatives(*ctx_, reps);
  ASSERT_TRUE(index.built());
  std::vector<double> scores;
  for (DocId id : docs_) {
    index.ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
    const SparseVector& psi = ctx_->Psi(id);
    ASSERT_EQ(scores.size(), 2u);
    EXPECT_EQ(scores[0], reps[0].Dot(psi)) << "doc " << id;
    EXPECT_EQ(scores[1], reps[1].Dot(psi)) << "doc " << id;
  }
}

// Tiny two-document corpus with disjoint vocabularies: every structural
// transition of the flat index (tombstone, overlay entry, revive, rebuild)
// is observable term by term.
class FlatRepIndexLifecycleTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("alpha bravo", 0.25, 0);
    corpus_.AddText("charlie delta", 0.5, 1);
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, params);
    model_->AdvanceTo(1.0);
    model_->AddDocuments({0, 1});
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST_F(FlatRepIndexLifecycleTest, MovesTombstoneOldPairsAndOverlayNewOnes) {
  ClusterSet set(2, ClusterScoring::kSlotted);
  // The merge twin takes the same moves; its representatives are the
  // mid-sweep reference (the slotted set's are stale until RefreshAll).
  ClusterSet twin(2, ClusterScoring::kMerge);
  for (ClusterSet* s : {&set, &twin}) {
    s->Assign(0, 0, *ctx_);
    s->Assign(1, 1, *ctx_);
    s->RefreshAll(*ctx_);
  }
  const FlatRepIndex& index = set.flat_index();
  EXPECT_EQ(index.stats().live_entries, 4u);  // 2 terms per document

  // Doc 0 moves to cluster 1: its two (term, cluster 0) base entries become
  // tombstones, and (term, cluster 1) pairs exist nowhere in the base — the
  // overlay takes them.
  set.Assign(0, 1, *ctx_);
  twin.Assign(0, 1, *ctx_);
  EXPECT_EQ(index.stats().tombstones_created, 2u);
  EXPECT_EQ(index.stats().delta_entries_added, 2u);
  EXPECT_EQ(index.stats().dead_entries, 2u);
  EXPECT_EQ(index.stats().live_entries, 4u);
  const SparseVector& psi0 = ctx_->Psi(0);
  for (const auto& [term, value] : psi0.entries()) {
    auto postings = index.PostingsOf(*ctx_, term);
    ASSERT_EQ(postings.size(), 1u) << "term " << term;
    EXPECT_EQ(postings[0].first, 1u);
    EXPECT_EQ(postings[0].second, value);
  }
  std::vector<double> scores;
  index.ScoreAll(*ctx_, ctx_->SlotOf(0), &scores);
  EXPECT_EQ(scores[0], 0.0);  // exact zero: tombstones snap, no residual
  EXPECT_EQ(scores[1], twin.cluster(1).representative().Dot(psi0));
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(set.cluster(p).cr_self(), twin.cluster(p).cr_self());
    EXPECT_EQ(set.cluster(p).ss(), twin.cluster(p).ss());
  }

  // Moving back revives the base tombstones and tombstones the overlay.
  set.Assign(0, 0, *ctx_);
  twin.Assign(0, 0, *ctx_);
  for (size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(set.cluster(p).cr_self(), twin.cluster(p).cr_self());
    EXPECT_EQ(set.cluster(p).ss(), twin.cluster(p).ss());
  }
  EXPECT_EQ(index.stats().tombstones_revived, 2u);
  EXPECT_EQ(index.stats().tombstones_created, 4u);
  for (const auto& [term, value] : psi0.entries()) {
    auto postings = index.PostingsOf(*ctx_, term);
    ASSERT_EQ(postings.size(), 1u) << "term " << term;
    EXPECT_EQ(postings[0].first, 0u);
    EXPECT_EQ(postings[0].second, value);
  }

  // A rebuild flushes overlay and tombstones back into a clean base; the
  // cumulative counters survive it.
  set.RefreshAll(*ctx_);
  EXPECT_EQ(index.stats().builds, 2u);
  EXPECT_EQ(index.stats().dead_entries, 0u);
  EXPECT_EQ(index.stats().live_entries, 4u);
  EXPECT_EQ(index.stats().tombstones_created, 4u);
  EXPECT_EQ(index.stats().tombstones_revived, 2u);
}

TEST_F(FlatRepIndexLifecycleTest, LiveTermsCountBaseAndOverlayPostings) {
  ClusterSet set(2, ClusterScoring::kSlotted);
  set.Assign(0, 0, *ctx_);
  set.Assign(1, 1, *ctx_);
  set.RefreshAll(*ctx_);
  const FlatRepIndex& index = set.flat_index();
  EXPECT_EQ(index.NumLiveTerms(), 4u);
  // Doc 0's terms now live only in the overlay (their base entries are
  // tombstones): still live.
  set.Assign(0, 1, *ctx_);
  EXPECT_EQ(index.NumLiveTerms(), 4u);
  // Detached, doc 0 is an outlier: the terms only it carries have no live
  // posting left, though they stay in the context's vocabulary.
  set.Assign(0, kUnassigned, *ctx_);
  EXPECT_EQ(index.NumLiveTerms(), 2u);
  EXPECT_EQ(ctx_->num_local_terms(), 4u);
}

using FlatRepIndexDeathTest = FlatRepIndexLifecycleTest;

TEST_F(FlatRepIndexDeathTest, RemovingUnknownTermDiesLoudly) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlatRepIndex index;
  index.BuildFromRepresentatives(*ctx_, {ctx_->Psi(0), ctx_->Psi(1)});
  // Doc 0's (term, cluster 1) pairs exist in neither base nor overlay.
  EXPECT_DEATH(index.ApplyRemove(*ctx_, ctx_->SlotOf(0), 1), "never added");
  // A base entry whose last contributor already left is a tombstone.
  index.ApplyRemove(*ctx_, ctx_->SlotOf(0), 0);
  EXPECT_DEATH(index.ApplyRemove(*ctx_, ctx_->SlotOf(0), 0), "never added");
}

TEST(SimilarityContextDeathTest, UnknownDocIdFailsLoudlyWithId) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Corpus corpus;
  corpus.AddText("alpha bravo charlie", 0.5, 1);
  ForgettingParams params;
  ForgettingModel model(&corpus, params);
  model.AdvanceTo(1.0);
  model.AddDocuments({0});
  SimilarityContext ctx(model);
  EXPECT_DEATH(ctx.Psi(4242), "4242");
  EXPECT_DEATH(ctx.SelfSim(4242), "4242");
}

}  // namespace
}  // namespace nidc
