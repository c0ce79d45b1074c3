// Property test for the scoring-path ablation: for any corpus, K,
// assignment criterion, seeding mode, shuffle setting and thread count, the
// two sweep configurations — merge (reference) and slotted (flat CSR index
// with move-only maintenance) — must produce *identical* ClusteringResults:
// same memberships, same outliers, and a bit-for-bit equal G history. The
// G trace is the sharpest oracle: every float produced by the Eq. 22–26
// cache updates feeds it, so a single rounding divergence anywhere in a
// sweep shows up as a g_history mismatch.

#include "nidc/core/extended_kmeans.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/kernels/kernels.h"
#include "nidc/corpus/corpus.h"
#include "nidc/forgetting/forgetting_model.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/util/random.h"
#include "nidc/util/thread_pool.h"

namespace nidc {
namespace {

// Restores the process-global kernel selection on scope exit, so a failing
// assertion inside a kernel loop cannot leak a SIMD kernel into later tests.
struct KernelGuard {
  kernels::Kind saved = kernels::Active().kind;
  ~KernelGuard() { kernels::Select(saved); }
};

// A corpus + model + context bundle on the heap (the model and context hold
// pointers into the corpus, so the bundle must not move).
struct Env {
  Corpus corpus;
  std::unique_ptr<ForgettingModel> model;
  std::unique_ptr<SimilarityContext> ctx;
  std::vector<DocId> docs;
};

std::unique_ptr<Env> MakeEnv(uint64_t seed, size_t n_docs,
                             size_t words_per_doc = 8,
                             size_t num_threads = 1) {
  static const char* kPool[] = {
      "alpha", "bravo", "charlie", "delta", "echo",   "fox",
      "golf",  "hotel", "india",   "juliet", "kilo",  "lima",
      "mike",  "nov",   "oscar",   "papa",  "quebec", "romeo",
      "sierra", "tango", "umbra",  "victor", "whiskey", "xray",
      "yankee", "zulu"};
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  auto env = std::make_unique<Env>();
  Rng words(seed);
  for (size_t i = 0; i < n_docs; ++i) {
    std::string text;
    for (size_t j = 0; j < words_per_doc; ++j) {
      if (j > 0) text += ' ';
      text += kPool[words.NextBounded(kPoolSize)];
    }
    env->corpus.AddText(text, 0.25 + 0.01 * static_cast<double>(i),
                        static_cast<TopicId>(i % 5));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(2.0);
  env->docs.resize(n_docs);
  for (DocId d = 0; d < static_cast<DocId>(n_docs); ++d) env->docs[d] = d;
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(
      *env->model, ThreadPool::Resolve(num_threads));
  return env;
}

ClusteringResult RunConfig(const Env& env, ExtendedKMeansOptions options,
                           bool use_rep_index,
                           const std::optional<KMeansSeeds>& seeds) {
  options.use_rep_index = use_rep_index;
  auto result = RunExtendedKMeans(*env.ctx, env.docs, options, seeds);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : ClusteringResult{};
}

// Runs both configurations and asserts identical outputs. g_history is
// compared with EXPECT_EQ on the double vectors — bit-for-bit, no
// tolerance.
void ExpectAllConfigsIdentical(const Env& env,
                               const ExtendedKMeansOptions& options,
                               const std::optional<KMeansSeeds>& seeds =
                                   std::nullopt) {
  const ClusteringResult merge =
      RunConfig(env, options, /*use_rep_index=*/false, seeds);
  const ClusteringResult slotted =
      RunConfig(env, options, /*use_rep_index=*/true, seeds);
  EXPECT_EQ(merge.clusters, slotted.clusters);
  EXPECT_EQ(merge.outliers, slotted.outliers);
  EXPECT_EQ(merge.g_history, slotted.g_history);
  EXPECT_EQ(merge.iterations, slotted.iterations);
  EXPECT_EQ(merge.converged, slotted.converged);
}

TEST(SweepEquivalenceTest, RandomCorporaAcrossKAndCriterion) {
  for (uint64_t corpus_seed : {11u, 22u, 33u}) {
    auto env = MakeEnv(corpus_seed, /*n_docs=*/70);
    for (size_t k : {3u, 8u}) {
      for (AssignmentCriterion criterion :
           {AssignmentCriterion::kGIncrease,
            AssignmentCriterion::kAvgSimIncrease}) {
        SCOPED_TRACE("corpus_seed=" + std::to_string(corpus_seed) +
                     " k=" + std::to_string(k) + " criterion=" +
                     std::to_string(static_cast<int>(criterion)));
        ExtendedKMeansOptions options;
        options.k = k;
        options.seed = corpus_seed * 101 + k;
        options.criterion = criterion;
        ExpectAllConfigsIdentical(*env, options);
      }
    }
  }
}

TEST(SweepEquivalenceTest, ThreadCountDoesNotChangeSlottedResults) {
  // The context build is parallel but slot-deterministic, and the seeded
  // assignment pass applies its results in sweep order — every thread
  // count must yield the same bits.
  auto serial = MakeEnv(5, /*n_docs=*/60, 8, /*num_threads=*/1);
  ExtendedKMeansOptions options;
  options.k = 6;
  options.seed = 9;
  const ClusteringResult base =
      RunConfig(*serial, options, true, std::nullopt);
  for (size_t threads : {2u, 4u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto env = MakeEnv(5, /*n_docs=*/60, 8, threads);
    ExtendedKMeansOptions opts = options;
    opts.num_threads = threads;
    const ClusteringResult got =
        RunConfig(*env, opts, true, std::nullopt);
    EXPECT_EQ(base.clusters, got.clusters);
    EXPECT_EQ(base.outliers, got.outliers);
    EXPECT_EQ(base.g_history, got.g_history);
  }
}

TEST(SweepEquivalenceTest, ShuffledSweepOrderStaysIdentical) {
  auto env = MakeEnv(17, /*n_docs=*/50);
  ExtendedKMeansOptions options;
  options.k = 5;
  options.seed = 4;
  options.shuffle_each_iteration = true;
  ExpectAllConfigsIdentical(*env, options);
}

TEST(SweepEquivalenceTest, DisjointVocabulariesExerciseEmptyClusterReseed) {
  // Every document gets a private vocabulary: cross-document similarities
  // are all zero, so clusters collapse to singletons, documents fall to the
  // outlier list, and the first-empty-cluster reseed branch (including the
  // slotted sweep's n_detached == 0 physical roundtrip) fires constantly.
  auto env = std::make_unique<Env>();
  for (size_t i = 0; i < 6; ++i) {
    const std::string tag = "w" + std::to_string(i);
    env->corpus.AddText(tag + "a " + tag + "b " + tag + "c",
                        0.25 + 0.01 * static_cast<double>(i),
                        static_cast<TopicId>(i));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(1.0);
  env->docs = {0, 1, 2, 3, 4, 5};
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(*env->model);

  for (size_t k : {4u, 10u}) {  // 10 > n_docs: effective-K reduction too
    for (AssignmentCriterion criterion :
         {AssignmentCriterion::kGIncrease,
          AssignmentCriterion::kAvgSimIncrease}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " criterion=" +
                   std::to_string(static_cast<int>(criterion)));
      ExtendedKMeansOptions options;
      options.k = k;
      options.seed = 3;
      options.criterion = criterion;
      ExpectAllConfigsIdentical(*env, options);
    }
  }
}

TEST(SweepEquivalenceTest, MembershipSeedingStaysIdentical) {
  auto env = MakeEnv(29, /*n_docs=*/60);
  ExtendedKMeansOptions options;
  options.k = 5;
  options.seed = 13;
  const ClusteringResult previous =
      RunConfig(*env, options, false, std::nullopt);
  KMeansSeeds seeds;
  seeds.mode = SeedMode::kMembership;
  seeds.memberships = previous.clusters;
  ExpectAllConfigsIdentical(*env, options, seeds);
}

TEST(SweepEquivalenceTest, RepresentativeSeedingStaysIdentical) {
  auto env = MakeEnv(31, /*n_docs=*/60);
  ExtendedKMeansOptions options;
  options.k = 5;
  options.seed = 21;
  const ClusteringResult previous =
      RunConfig(*env, options, false, std::nullopt);
  KMeansSeeds seeds;
  seeds.mode = SeedMode::kRepresentatives;
  seeds.representatives = previous.representatives;
  ExpectAllConfigsIdentical(*env, options, seeds);
}

TEST(SweepEquivalenceTest, KernelAndQuantizationDimensionsStayIdentical) {
  // The kernel dimension of the ablation: for every compiled-in scoring
  // kernel (unavailable ones skipped) × quantized scoring on/off × K on
  // both sides of the AVX-512 register-resident thresholds (K ≤ 16
  // quantized, K ≤ 32 exact, vs the gather/scatter spill paths) × corpus
  // seed, the slotted sweep must match
  // the merge reference bit-for-bit. The shared vocabulary makes posting
  // lengths span 1..K, so odd lengths and vector-tail remainders are
  // exercised on every scan.
  KernelGuard guard;
  const kernels::Kind kinds[] = {kernels::Kind::kScalar,
                                 kernels::Kind::kAvx2,
                                 kernels::Kind::kAvx512};
  for (uint64_t corpus_seed : {41u, 43u}) {
    auto env = MakeEnv(corpus_seed, /*n_docs=*/70);
    for (size_t k : {5u, 20u, 40u}) {
      ExtendedKMeansOptions options;
      options.k = k;
      options.seed = corpus_seed * 7 + k;
      options.quantized_scoring = false;
      kernels::Select(kernels::Kind::kScalar);
      const ClusteringResult merge =
          RunConfig(*env, options, /*use_rep_index=*/false, std::nullopt);
      for (kernels::Kind kind : kinds) {
        if (!kernels::Available(kind)) continue;
        for (bool quantized : {false, true}) {
          SCOPED_TRACE("seed=" + std::to_string(corpus_seed) +
                       " k=" + std::to_string(k) + " kernel=" +
                       kernels::KindName(kind) +
                       " quantized=" + std::to_string(quantized));
          kernels::Select(kind);
          ExtendedKMeansOptions opts = options;
          opts.quantized_scoring = quantized;
          const ClusteringResult slotted =
              RunConfig(*env, opts, /*use_rep_index=*/true, std::nullopt);
          EXPECT_EQ(merge.clusters, slotted.clusters);
          EXPECT_EQ(merge.outliers, slotted.outliers);
          EXPECT_EQ(merge.g_history, slotted.g_history);
          EXPECT_EQ(merge.iterations, slotted.iterations);
        }
      }
    }
  }
}

TEST(SweepEquivalenceTest, PaperKMovesThroughOverlayAndEmptiedClusters) {
  // K = 24, the paper-replay K: the AVX-512 exact kernel keeps its scores
  // in three registers. The slotted sweep takes every move's cross terms
  // from the posting index, so the run must cover the two cases where the
  // index and the merge representatives part ways: moves that create
  // (term, cluster) pairs the base CSR lacks (overlay entries), and moves
  // that empty a cluster (its residuals reset, as Clear drops the
  // representative). Both are asserted to happen, and the result must
  // match the merge reference bit for bit under every kernel.
  KernelGuard guard;
  auto env = MakeEnv(53, /*n_docs=*/90);
  ExtendedKMeansOptions options;
  options.k = 24;
  options.seed = 5;
  kernels::Select(kernels::Kind::kScalar);
  const ClusteringResult merge =
      RunConfig(*env, options, /*use_rep_index=*/false, std::nullopt);
  for (kernels::Kind kind : {kernels::Kind::kScalar, kernels::Kind::kAvx2,
                             kernels::Kind::kAvx512}) {
    if (!kernels::Available(kind)) continue;
    SCOPED_TRACE(kernels::KindName(kind));
    kernels::Select(kind);
    obs::MetricsRegistry registry;
    obs::EventLog events(1 << 14);
    ExtendedKMeansOptions opts = options;
    opts.metrics = &registry;
    opts.events = &events;
    const ClusteringResult slotted =
        RunConfig(*env, opts, /*use_rep_index=*/true, std::nullopt);
    EXPECT_EQ(merge.clusters, slotted.clusters);
    EXPECT_EQ(merge.outliers, slotted.outliers);
    EXPECT_EQ(merge.g_history, slotted.g_history);
    EXPECT_EQ(merge.iterations, slotted.iterations);
    EXPECT_GT(registry.GetCounter("rep_index.delta_entries")->Value(), 0u);
    const std::vector<obs::Event> emitted = events.Recent();
    EXPECT_EQ(emitted.size(), events.total_emitted());
    EXPECT_TRUE(std::any_of(emitted.begin(), emitted.end(),
                            [](const obs::Event& e) {
                              return e.type ==
                                     obs::EventType::kClusterEmptied;
                            }));
  }
}

TEST(SweepEquivalenceTest, KernelsStayIdenticalAcrossThreadCounts) {
  // Kernel × thread-count cross product: the parallel RefreshAll and
  // context build must not perturb any kernel's scoring decisions.
  KernelGuard guard;
  kernels::Select(kernels::Kind::kScalar);
  auto serial = MakeEnv(47, /*n_docs=*/60, 8, /*num_threads=*/1);
  ExtendedKMeansOptions options;
  options.k = 6;
  options.seed = 19;
  options.quantized_scoring = false;
  const ClusteringResult base =
      RunConfig(*serial, options, true, std::nullopt);
  for (kernels::Kind kind : {kernels::Kind::kScalar, kernels::Kind::kAvx2,
                             kernels::Kind::kAvx512}) {
    if (!kernels::Available(kind)) continue;
    for (size_t threads : {2u, 0u}) {
      for (bool quantized : {false, true}) {
        SCOPED_TRACE(std::string("kernel=") + kernels::KindName(kind) +
                     " threads=" + std::to_string(threads) +
                     " quantized=" + std::to_string(quantized));
        kernels::Select(kind);
        auto env = MakeEnv(47, /*n_docs=*/60, 8, threads);
        ExtendedKMeansOptions opts = options;
        opts.num_threads = threads;
        opts.quantized_scoring = quantized;
        const ClusteringResult got =
            RunConfig(*env, opts, true, std::nullopt);
        EXPECT_EQ(base.clusters, got.clusters);
        EXPECT_EQ(base.outliers, got.outliers);
        EXPECT_EQ(base.g_history, got.g_history);
      }
    }
  }
}

TEST(SweepEquivalenceTest, NearTieArgmaxTriggersExactRecheckNotDrift) {
  // A corpus of near-duplicate documents: clusters end up with nearly
  // identical gains, so the quantized margins cannot strictly separate the
  // argmax. The certification must refuse (exact re-checks fire) rather
  // than guess — and the decisions must stay bit-identical to both the
  // un-quantized slotted sweep and the merge reference.
  KernelGuard guard;
  auto env = std::make_unique<Env>();
  for (size_t i = 0; i < 24; ++i) {
    // Three groups of near-duplicates; the i % 3 == 0 group is exactly
    // duplicated text, producing exact score ties between clusters.
    std::string text = "common core words shared by every doc";
    if (i % 3 == 1) text += " tilt";
    if (i % 3 == 2) text += " other";
    env->corpus.AddText(text, 0.25 + 0.001 * static_cast<double>(i),
                        static_cast<TopicId>(i % 3));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(1.0);
  env->docs.resize(24);
  for (DocId d = 0; d < 24; ++d) env->docs[d] = d;
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(*env->model);

  ExtendedKMeansOptions options;
  options.k = 4;
  options.seed = 11;
  const ClusteringResult merge =
      RunConfig(*env, options, /*use_rep_index=*/false, std::nullopt);
  size_t total_fallbacks = 0;
  for (kernels::Kind kind :
       {kernels::Kind::kScalar, kernels::Kind::kAvx2,
        kernels::Kind::kAvx512}) {
    if (!kernels::Available(kind)) continue;
    SCOPED_TRACE(kernels::KindName(kind));
    kernels::Select(kind);
    KMeansProfile profile;
    ExtendedKMeansOptions opts = options;
    opts.quantized_scoring = true;
    opts.profile = &profile;
    opts.use_rep_index = true;
    auto result = RunExtendedKMeans(*env->ctx, env->docs, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(merge.clusters, result->clusters);
    EXPECT_EQ(merge.outliers, result->outliers);
    EXPECT_EQ(merge.g_history, result->g_history);
    total_fallbacks += profile.quantized_fallbacks;
  }
  // The margin logic must actually have hit ambiguous ties somewhere —
  // otherwise this test exercises nothing.
  EXPECT_GT(total_fallbacks, 0u);
}

TEST(SweepEquivalenceTest, DegenerateRepresentativeSeedsStayIdentical) {
  // Bogus seed vectors: an empty representative, one over terms no active
  // document contains, and one real ψ. The seeded assignment pass leaves
  // clusters empty / degenerate, and both sweeps must recover through
  // the same reseed decisions.
  auto env = MakeEnv(37, /*n_docs=*/40);
  KMeansSeeds seeds;
  seeds.mode = SeedMode::kRepresentatives;
  seeds.representatives.resize(3);
  seeds.representatives[0] = SparseVector();  // empty
  seeds.representatives[1] = SparseVector::FromEntries(
      {{9999998, 1.0}, {9999999, 2.0}});  // out-of-vocabulary
  seeds.representatives[2] = env->ctx->Psi(0);
  ExtendedKMeansOptions options;
  options.k = 3;
  options.seed = 2;
  ExpectAllConfigsIdentical(*env, options, seeds);
}

}  // namespace
}  // namespace nidc
