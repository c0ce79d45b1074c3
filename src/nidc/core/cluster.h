// A cluster with representative-based O(1) intra-similarity maintenance
// (paper §4.4, Eq. 19–26).
//
// Maintained invariants (up to float drift; re-established by Refresh()):
//   representative_ = Σ_{d∈members} ψ_d               (Eq. 20)
//   cr_self_        = representative_ · representative_  (Eq. 21, p = q)
//   ss_             = Σ_{d∈members} ψ_d · ψ_d            (Eq. 23)
// From these, avg_sim follows via Eq. 24, and the incremental add/remove
// updates use the identities of Eq. 25/26 and their deletion counterparts.

#ifndef NIDC_CORE_CLUSTER_H_
#define NIDC_CORE_CLUSTER_H_

#include <unordered_map>
#include <vector>

#include "nidc/core/novelty_similarity.h"

namespace nidc {

/// One cluster of the extended K-means. Mutation keeps the representative,
/// cr_self and ss synchronized incrementally.
class Cluster {
 public:
  /// Sentinel for a cluster that has never been assigned a stable id.
  static constexpr uint64_t kNoClusterId = ~0ull;

  Cluster() = default;

  /// Adds a document. O(|ψ_d| + |rep|) for the representative merge; the
  /// cr_self update is the Eq. 26 machinery: one dot product.
  void Add(DocId id, const SimilarityContext& ctx);

  /// Removes a member (must be present); the deletion counterpart of Eq. 26.
  /// O(|ψ_d| + |rep|): the member list is swap-and-popped via a position
  /// map, so detach-reattach sweeps never pay a linear membership scan.
  /// Note members() order is therefore *not* insertion order after a
  /// removal.
  void Remove(DocId id, const SimilarityContext& ctx);

  /// Add and Remove with the cross term T = c⃗·ψ_d (before the mutation)
  /// supplied by the caller: cr_self, ss and the membership change exactly
  /// as there, but the representative is left stale until the next
  /// Refresh. A slotted ClusterSet takes T from its posting index, which
  /// sums the representative's products in Dot's order, so the statistics
  /// stay bit-identical to Add/Remove. `self` is sim(d, d).
  void AddGivenT(DocId id, double t, double self);
  void RemoveGivenT(DocId id, double t, double self);

  /// The membership halves of Add and Remove: the member list, position
  /// map and identity-continuity state change exactly as there, but the
  /// representative, cr_self and ss are left stale. For seeding, which is
  /// always followed by Refresh.
  void AttachMember(DocId id);
  void DetachMember(DocId id);

  /// avg_sim(C_p) per Eq. 24; defined as 0 for |C| <= 1.
  double AvgSim() const;

  /// avg_sim(C_p ∪ {d}) if `id` were appended (Eq. 26) — does not mutate.
  /// Requires id not to be a member.
  double AvgSimIfAdded(DocId id, const SimilarityContext& ctx) const;

  /// The increase avg_sim(C_p ∪ {d}) − avg_sim(C_p) used by the
  /// paper-literal assignment rule of the extended K-means.
  double GainIfAdded(DocId id, const SimilarityContext& ctx) const {
    return AvgSimIfAdded(id, ctx) - AvgSim();
  }

  /// The increase of this cluster's clustering-index contribution
  /// |C_p|·avg_sim(C_p) (one term of Eq. 17) if `id` were appended — the
  /// G-greedy assignment rule. With S the pairwise-similarity sum
  /// (= cr_self − ss, Eq. 22) and T = cr_sim(C_p, {d}):
  ///   Δg = (S + 2T)/|C| − S/(|C|−1).
  double GainInGIfAdded(DocId id, const SimilarityContext& ctx) const {
    if (members_.empty()) return 0.0;  // an empty cluster stays at g = 0
    return GainInGGivenT(CrSimWithDoc(id, ctx));
  }

  /// Eq. 24 on explicit statistics — shared by the attached accessors below
  /// and the move-only sweep, which evaluates a document's *detached* home
  /// cluster from (n−1, cr', ss') without mutating it.
  static double AvgSimWith(double n, double cr_self, double ss) {
    if (n <= 1.0) return 0.0;
    return (cr_self - ss) / (n * (n - 1.0));
  }

  /// GainGivenT on explicit statistics (Eq. 26 minus Eq. 24). Requires
  /// n >= 1.
  static double GainGivenTWith(double t, double n, double cr_self,
                               double ss) {
    const double after = (cr_self + 2.0 * t - ss) / (n * (n + 1.0));
    return after - AvgSimWith(n, cr_self, ss);
  }

  /// GainInGGivenT on explicit statistics. Requires n >= 1.
  static double GainInGGivenTWith(double t, double n, double cr_self,
                                  double ss) {
    const double pair_sum = cr_self - ss;  // S = n(n−1)·avg_sim (Eq. 22)
    const double g_now = n > 1.0 ? pair_sum / (n - 1.0) : 0.0;
    return (pair_sum + 2.0 * t) / n - g_now;
  }

  /// GainIfAdded with the cross term T = cr_sim(C_p, {d}) supplied by the
  /// caller — the formula the rep-index scoring path shares with the
  /// merge path, so both compute gains identically. Requires |C| >= 1.
  double GainGivenT(double t) const {
    return GainGivenTWith(t, static_cast<double>(members_.size()), cr_self_,
                          ss_);
  }

  /// GainInGIfAdded with T supplied by the caller. Requires |C| >= 1.
  double GainInGGivenT(double t) const {
    return GainInGGivenTWith(t, static_cast<double>(members_.size()),
                             cr_self_, ss_);
  }

  /// Replays the scalar-cache effect of detaching `id` and immediately
  /// re-attaching it — what the legacy sweep does to a document that stays
  /// put — without touching the representative vector. `t_attached` is the
  /// attached cross term c⃗·ψ (what Remove's internal dot product would
  /// yield) and `t_detached` the detached one ((c⃗−ψ)·ψ); both cached
  /// scalars take the same two rounding steps as Remove-then-Add, and the
  /// member list is rotated exactly as swap-and-pop + push_back would
  /// leave it, so subsequent Refresh accumulation order matches too.
  /// Requires |C| >= 2 (a detached singleton goes through Clear instead).
  void ReplayDetachReattach(DocId id, double t_attached, double t_detached,
                            double self);

  /// Similarity of this cluster's representative with a document's ψ —
  /// cr_sim(C_p, {d}) of Eq. 21 for a singleton.
  double CrSimWithDoc(DocId id, const SimilarityContext& ctx) const {
    return representative_.Dot(ctx.Psi(id));
  }

  /// cr_sim(C_p, C_q) (Eq. 21).
  double CrSimWith(const Cluster& other) const {
    return representative_.Dot(other.representative_);
  }

  /// avg_sim(C_p ∪ C_q) for a disjoint cluster, via Eq. 25 — does not
  /// mutate; one representative dot product.
  double AvgSimIfMerged(const Cluster& other) const;

  /// Absorbs a disjoint cluster (Eq. 25 machinery applied for real):
  /// members, representative, cr_self and ss are all merged incrementally.
  /// `other` is left empty.
  void MergeFrom(Cluster* other);

  /// One coefficient of the representative keyed by the context's local
  /// term id, with the number of members carrying the term — a
  /// FlatRepIndex posting of this cluster.
  struct TermPosting {
    uint32_t term;
    uint32_t refs;
    double weight;
  };

  /// Dense Refresh scratch indexed by local term id. Reusable across
  /// clusters and calls (every `refs` slot is back to 0 between calls), but
  /// not shared between concurrent refreshes.
  struct RefreshScratch {
    std::vector<double> weight;
    std::vector<uint32_t> refs;
    std::vector<uint32_t> touched;  // local terms in first-touch order
  };

  /// Recomputes representative, cr_self and ss exactly from the members,
  /// clearing accumulated float drift. One pass over the members' CSR rows
  /// in member order: a term's first occurrence assigns its coefficient and
  /// later ones add to it, the addition sequence of folding ψ_d into an
  /// empty vector member by member, so the result is bit-identical to that
  /// fold. O(Σ |ψ_d| + u log u) for u distinct terms. A non-null
  /// `postings` is overwritten with the cluster's (term, refs, weight) list.
  void Refresh(const SimilarityContext& ctx, RefreshScratch* scratch,
               std::vector<TermPosting>* postings = nullptr);

  /// Drops all members and zeroes the cached statistics.
  void Clear();

  /// Naive O(|C|²) recomputation of avg_sim via pairwise sims — the
  /// reference the representative path is verified (and benchmarked)
  /// against.
  double AvgSimNaive(const SimilarityContext& ctx) const;

  /// Stable cluster identity: unlike the positional index within a
  /// ClusterSet, the id survives sweeps and is minted fresh when an
  /// emptied cluster is reseeded by a *different* document — so telemetry
  /// that matches clusters across steps (topic drift, churn, event logs)
  /// never confuses a reseeded slot with the topic that used to live
  /// there. Assigned by ClusterSet; kNoClusterId until then.
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

  /// True when re-populating this (empty) cluster with `id` continues its
  /// previous identity: the cluster was emptied by this very document
  /// leaving, i.e. a detach/re-attach round trip of its only member. Any
  /// other document reseeding the slot starts a new topic.
  bool ReseedContinuesIdentity(DocId id) const {
    return has_last_leaver_ && last_leaver_ == id;
  }

  bool Contains(DocId id) const { return member_pos_.contains(id); }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  /// Members in unspecified (but deterministic) order — see Remove().
  const std::vector<DocId>& members() const { return members_; }

  /// c⃗_p (Eq. 20). Always current after Refresh and under Add / Remove /
  /// MergeFrom; AddGivenT / RemoveGivenT leave it stale (an emptied cluster
  /// still drops it) until the next Refresh.
  const SparseVector& representative() const { return representative_; }
  double cr_self() const { return cr_self_; }
  double ss() const { return ss_; }

 private:
  std::vector<DocId> members_;
  std::unordered_map<DocId, size_t> member_pos_;  // id → index in members_
  SparseVector representative_;
  double cr_self_ = 0.0;
  double ss_ = 0.0;

  uint64_t id_ = kNoClusterId;
  // The document whose removal emptied the cluster, while it stays empty
  // (see ReseedContinuesIdentity). Cleared by the next Add.
  DocId last_leaver_ = 0;
  bool has_last_leaver_ = false;
};

}  // namespace nidc

#endif  // NIDC_CORE_CLUSTER_H_
