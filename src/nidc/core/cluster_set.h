// A fixed-K collection of clusters plus the document→cluster assignment map.

#ifndef NIDC_CORE_CLUSTER_SET_H_
#define NIDC_CORE_CLUSTER_SET_H_

#include <vector>

#include "nidc/core/cluster.h"
#include "nidc/core/rep_index.h"

namespace nidc {

class ThreadPool;

/// Cluster index within a ClusterSet; kUnassigned for outliers/unseen docs.
inline constexpr int kUnassigned = -1;

/// How SweepAssign evaluates the cross terms cr_sim(C_p, {d}).
enum class ClusterScoring {
  /// K independent sparse dot products per document (the reference path).
  kMerge,
  /// Document-at-a-time scan of the flat CSR posting index with move-only
  /// maintenance: documents are scored attached, the detached home
  /// statistics are derived algebraically, and postings/caches change only
  /// on actual moves. Default.
  kSlotted,
  /// kSlotted behind the fp16-quantized first pass with certified-margin
  /// exact re-checks (ExtendedKMeansOptions::quantized_scoring); only this
  /// scoring makes the posting index keep fp16 shadow weights.
  kSlottedQuantized,
};

/// Owns K clusters and keeps the assignment map consistent with their
/// membership. With slotted scoring, a flat CSR term → (cluster, weight)
/// posting index over the context's dense local term ids additionally
/// mirrors the K representative vectors and is kept in sync by
/// Assign/RefreshAll, so cr_sim(C_p, {d}) can be evaluated for every
/// cluster in one pass over ψ_d (see FlatRepIndex). Once the index is
/// built, a slotted Assign takes the move's cross terms from it and leaves
/// the representative vectors stale: cluster(p).representative() is valid
/// after RefreshAll, while cr_self, ss and the membership are current
/// after every call.
class ClusterSet {
 public:
  explicit ClusterSet(size_t k,
                      ClusterScoring scoring = ClusterScoring::kMerge)
      : clusters_(k),
        flat_index_(scoring == ClusterScoring::kSlottedQuantized),
        scoring_(scoring) {}

  size_t num_clusters() const { return clusters_.size(); }
  Cluster& cluster(size_t p) { return clusters_[p]; }
  const Cluster& cluster(size_t p) const { return clusters_[p]; }

  /// Cluster index of `id`, or kUnassigned — a flat array lookup (DocIds
  /// are dense corpus indices).
  int ClusterOf(DocId id) const {
    return id < assignment_.size() ? assignment_[id] : kUnassigned;
  }

  /// Moves `id` into cluster `p` (removing it from its current cluster
  /// first, if any). `p` may be kUnassigned to just detach the document.
  /// Populating an empty cluster mints it a fresh stable id unless the
  /// arriving document is the one whose departure emptied it (a
  /// detach/re-attach round trip keeps the identity).
  void Assign(DocId id, int p, const SimilarityContext& ctx);

  /// The seeding form of Assign: membership, member order, the assignment
  /// map and stable-id minting change exactly as Assign would change them,
  /// but no statistics, representative or posting is maintained. RefreshAll
  /// (and InstallIds) must run before the clusters are read.
  void Seed(DocId id, int p);

  /// Installs stable cluster ids after the seeding phase: cluster `p`
  /// inherits `seed_ids[p]` when available, every other cluster gets a
  /// fresh id. The fresh-id counter starts at the larger of
  /// `first_fresh_id` and max(seed_ids)+1, so ids stay globally monotone
  /// across incremental steps. Returns the count of fresh ids handed out.
  size_t InstallIds(const std::vector<uint64_t>& seed_ids,
                    uint64_t first_fresh_id);

  /// Stable id of cluster `p` (Cluster::kNoClusterId before any
  /// population).
  uint64_t cluster_id(size_t p) const { return clusters_[p].id(); }

  /// The next fresh id the set would mint — the value a driver persists
  /// to keep ids monotone across RunExtendedKMeans calls.
  uint64_t next_cluster_id() const { return next_id_; }

  /// Replays the detach + immediate re-attach of a document that stays in
  /// cluster `p` during a move-only sweep: the cluster's scalar caches and
  /// member order take the exact rounding/permutation steps the legacy
  /// sweep applies, while the representative vector and the posting index
  /// — for which remove-then-re-add is the identity — stay untouched.
  void ReplayStay(DocId id, size_t p, double t_attached, double t_detached,
                  const SimilarityContext& ctx);

  /// Recomputes every cluster's cached statistics (and the posting index,
  /// when scoring through one) from its members: one Cluster::Refresh per
  /// cluster yields its representative and its CSR postings together. With
  /// a pool of >= 2 threads the clusters are spread over its lanes, each
  /// with its own dense scratch; results are bit-identical for any thread
  /// count (clusters are independent, and the CSR is filled serially in
  /// cluster order).
  void RefreshAll(const SimilarityContext& ctx, ThreadPool* pool = nullptr);

  /// Clustering index G = Σ_p |C_p| · avg_sim(C_p) (Eq. 17).
  double G() const;

  /// Total number of assigned documents.
  size_t TotalAssigned() const { return total_assigned_; }

  ClusterScoring scoring() const { return scoring_; }
  /// True for both slotted scorings (the posting index is maintained).
  bool slotted() const { return scoring_ != ClusterScoring::kMerge; }

  /// The flat CSR posting index (meaningful only when slotted()).
  const FlatRepIndex& flat_index() const { return flat_index_; }

 private:
  // Assign when `ctx` is non-null, Seed otherwise.
  void Move(DocId id, int p, const SimilarityContext* ctx);

  std::vector<Cluster> clusters_;
  std::vector<int> assignment_;  // DocId → cluster, kUnassigned gaps
  size_t total_assigned_ = 0;
  uint64_t next_id_ = 0;  // next fresh stable cluster id
  FlatRepIndex flat_index_;
  ClusterScoring scoring_ = ClusterScoring::kMerge;
  // RefreshAll buffers, kept across calls: one dense scratch per pool lane
  // and each cluster's posting list for the CSR build.
  std::vector<Cluster::RefreshScratch> scratch_;
  std::vector<std::vector<Cluster::TermPosting>> postings_;
};

}  // namespace nidc

#endif  // NIDC_CORE_CLUSTER_SET_H_
