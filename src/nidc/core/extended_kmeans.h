// The paper's extension of the K-means method (§4.3).
//
// Initial process: K random documents seed K singleton clusters.
// Repetition process: every document is (re)assigned to the cluster whose
// intra-cluster average similarity increases the most when the document is
// appended (evaluated via the Eq. 26 fast path); documents that increase no
// cluster go to the outlier list and re-enter the pool next iteration.
// Convergence: the relative change of the clustering index G falls below δ.

#ifndef NIDC_CORE_EXTENDED_KMEANS_H_
#define NIDC_CORE_EXTENDED_KMEANS_H_

#include <optional>
#include <vector>

#include "nidc/core/cluster_set.h"
#include "nidc/core/clustering_result.h"
#include "nidc/util/random.h"
#include "nidc/util/status.h"

namespace nidc::obs {
class EventLog;
class MetricsRegistry;
class ProvenanceLog;
}  // namespace nidc::obs

namespace nidc {

/// How the K initial clusters are formed.
enum class SeedMode {
  /// K random documents become singleton clusters (§4.3 initial process).
  kRandom,
  /// Clusters start from a given membership (incremental §5.2: documents
  /// keep their previous cluster; representatives are recomputed from the
  /// surviving members — the consistent reading of "reuse the cluster
  /// representatives", since Eq. 20 defines them as member sums).
  kMembership,
  /// Clusters start from given representative *vectors*: a single
  /// assignment pass against the fixed vectors populates the clusters, then
  /// the normal repetition process takes over (the literal reading of
  /// §5.2 step 3).
  kRepresentatives,
};

/// Which greedy gain the repetition step maximizes when (re)assigning a
/// document.
enum class AssignmentCriterion {
  /// Paper-literal §4.3 wording: the increase of avg_sim(C_p). Admits a
  /// document only when its mean similarity to the members *exceeds* the
  /// current intra-cluster average, which tightens clusters monotonically
  /// and leaves most documents on the outlier list.
  kAvgSimIncrease,
  /// The increase of the cluster's clustering-index term |C_p|·avg_sim
  /// (Eq. 17) — the objective the convergence test (step 4) actually
  /// monitors. Admits a document when its mean similarity to members
  /// exceeds half the current average; reproduces the cluster sizes and
  /// recalls the paper's evaluation reports. Default.
  kGIncrease,
};

/// Tuning knobs of the extended K-means.
struct ExtendedKMeansOptions {
  /// Number of clusters K.
  size_t k = 24;

  /// Assignment gain definition (see AssignmentCriterion).
  AssignmentCriterion criterion = AssignmentCriterion::kGIncrease;

  /// Convergence constant δ of the repetition step 4.
  double delta = 1e-3;

  /// Hard cap on repetition sweeps.
  int max_iterations = 50;

  /// Sweep documents in a fresh random order each iteration (false:
  /// chronological document order — deterministic).
  bool shuffle_each_iteration = false;

  /// Seed for initial-cluster selection and shuffling.
  uint64_t seed = 42;

  /// Score gains through a cluster-representative posting index and run
  /// the slotted move-only sweep: one pass over a document's ψ in the flat
  /// CSR index (FlatRepIndex) yields cr_sim(C_p, {d}) for all K clusters at
  /// once, instead of K sorted-merge dot products. Documents are scanned
  /// with their ψ still attached, the detached home-cluster statistics are
  /// derived via the Eq. 25/26 identity (T_detached from the (c⃗−ψ)·ψ
  /// scan), and postings plus cluster caches are touched only when a
  /// document actually moves — per-sweep maintenance drops from O(N·|ψ|) to
  /// O(moves·|ψ|) with bit-identical results.
  /// Off: the original per-cluster merge path (kept as the reference).
  bool use_rep_index = true;

  /// Opt-in: with the slotted sweep, score documents through the
  /// fp16-quantized kernel pass first (see core/kernels). The fp32 scan
  /// touches half the posting bytes, and a certified error margin (derived
  /// from the per-cluster absolute-sum accumulators) proves which cluster
  /// the exact path would pick. Ambiguous documents — and documents
  /// touching mid-sweep overlay terms — are re-scored exactly, so every
  /// clustering decision stays bit-identical to the unquantized sweep. Off
  /// by default: end to end it is slower than the exact AVX-512 kernel,
  /// whose accumulators stay in registers up to K = 32, and it makes the
  /// posting index maintain an fp16 shadow of every weight (see
  /// docs/performance.md). Ignored without use_rep_index.
  bool quantized_scoring = false;

  /// Concurrency for the read-only scans (ψ-vector construction in
  /// SimilarityContext when driven through the clusterers, the seeded
  /// assignment pass against fixed representatives, and the per-cluster
  /// refresh + CSR rebuild in RefreshAll). 0 = hardware concurrency.
  /// Results are bit-identical for every value — parallel lanes write
  /// disjoint slots and assignments are applied in sweep order.
  size_t num_threads = 0;

  /// Telemetry sink for the run (see obs/metrics.h): iteration counts,
  /// per-sweep moves, sweep/refresh timings, outlier counts,
  /// seeded-vs-sweep assignment split, G endpoints, and rep-index
  /// maintenance stats. Null (the default) skips all instrumentation — the
  /// hot path stays untouched.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional per-phase wall-clock sink (see KMeansProfile); used by the
  /// sweep bench to split score vs. index-maintenance vs. refresh time.
  /// Null (the default) skips the extra clock reads.
  struct KMeansProfile* profile = nullptr;

  /// First fresh stable cluster id this run may mint (see
  /// ClusteringResult::cluster_ids). Seeded clusters inherit
  /// KMeansSeeds::cluster_ids instead; incremental drivers pass the
  /// previous run's next_cluster_id here to keep ids globally monotone.
  uint64_t first_cluster_id = 0;

  /// Lifecycle-event sink (cluster created/emptied/reseeded, document
  /// moves — see obs/event_log.h). Null (the default) emits nothing and
  /// adds no work to the sweeps.
  obs::EventLog* events = nullptr;

  /// Decision-provenance sink (see obs/provenance.h): the sweeps capture
  /// each document's top-2 gains, margin, scoring path/kernel and
  /// quantized outcome into a per-slot buffer (a few scalar stores per
  /// decision), and the run flushes one DecisionRecord per document —
  /// the *final* sweep's decision — at the end. Null (the default) adds
  /// no work to the sweeps.
  obs::ProvenanceLog* provenance = nullptr;

  Status Validate() const;
};

/// Accumulated wall-clock totals of one RunExtendedKMeans call, split by
/// phase. maintenance_seconds is the mutation time *inside* sweeps
/// (cluster/index updates for moves and stay-replays); sweep_seconds
/// includes it, so scoring time is sweep_seconds − maintenance_seconds.
struct KMeansProfile {
  double seed_seconds = 0.0;
  double sweep_seconds = 0.0;
  double maintenance_seconds = 0.0;
  double refresh_seconds = 0.0;
  double score_seconds() const { return sweep_seconds - maintenance_seconds; }

  /// Scoring-kernel telemetry (slotted sweeps only; see core/kernels).
  /// Bytes/entry counters come from the flat index's scan stats; the
  /// quantized counters split certified fast-path docs from exact
  /// re-checks.
  const char* kernel = "";          // active kernel name (scalar/avx2/...)
  uint64_t score_bytes = 0;         // posting + row bytes streamed
  uint64_t entries_scanned = 0;     // posting entries touched
  uint64_t docs_scored = 0;         // ScoreAll* calls
  uint64_t quantized_docs = 0;      // docs scored via the fp16 pass
  uint64_t quantized_fallbacks = 0;  // margin-ambiguous exact re-checks
  uint64_t delta_fallbacks = 0;      // overlay-forced scalar fallbacks

  /// Effective scoring bandwidth in GB/s (0 when nothing was timed).
  double score_gbps() const {
    const double s = score_seconds();
    return s > 0.0 ? static_cast<double>(score_bytes) / s / 1e9 : 0.0;
  }
};

/// Seeding payload for the incremental modes.
struct KMeansSeeds {
  SeedMode mode = SeedMode::kRandom;
  /// For kMembership: previous memberships (pruned to docs in the context).
  std::vector<std::vector<DocId>> memberships;
  /// For kRepresentatives: previous representative vectors.
  std::vector<SparseVector> representatives;
  /// Stable ids the seeded clusters inherit (index-aligned with
  /// memberships/representatives; empty = every cluster gets a fresh id).
  std::vector<uint64_t> cluster_ids;
};

/// Runs the extended K-means over `docs` (which must all be in `ctx`).
///
/// Returns InvalidArgument if options are malformed or docs/ctx disagree;
/// with fewer documents than K the effective K is reduced.
Result<ClusteringResult> RunExtendedKMeans(
    const SimilarityContext& ctx, const std::vector<DocId>& docs,
    const ExtendedKMeansOptions& options,
    const std::optional<KMeansSeeds>& seeds = std::nullopt);

}  // namespace nidc

#endif  // NIDC_CORE_EXTENDED_KMEANS_H_
