// Posting index over the K cluster representatives: term → (cluster,
// weight) entries, where `weight` is that term's coefficient in the
// cluster's representative vector c⃗_p = Σ_{d∈C_p} ψ_d (Eq. 20).
//
// This turns the extended K-means inner loop from K independent sparse
// dot products (one sorted merge per cluster per document) into a single
// document-at-a-time scan: one pass over ψ_d's nonzeros accumulates
// cr_sim(C_p, {d}) = c⃗_p · ψ_d for *all* K clusters at once, which is
// sublinear in K whenever cluster vocabularies do not all overlap — the
// standard inverted-index scoring trick of IR / novelty-detection systems.

#ifndef NIDC_CORE_REP_INDEX_H_
#define NIDC_CORE_REP_INDEX_H_

#include <atomic>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nidc/core/cluster.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/core/novelty_similarity.h"
#include "nidc/text/sparse_vector.h"

namespace nidc {

/// CSR posting index over the K cluster representatives, addressed by the
/// SimilarityContext's dense *local* term ids: one flat entry array plus a
/// per-term offset table, rebuilt in one pass at every RefreshAll. Scoring a
/// document is then a pure sequential scan over its CSR row — no hashing
/// anywhere on the path.
///
/// Between rebuilds the index is maintained *move-only*: the sweep scores
/// documents with their ψ still attached (ScoreAllDetached supplies the
/// detached home cross term algebraically), so postings change only when a
/// document actually moves. A move updates base entries in place; the rare
/// (term, cluster) pairs that first appear mid-sweep go to a small overlay
/// keyed by local term id, disjoint from the base entries. Every entry
/// carries a reference count of the live member documents containing its
/// term: when the count drops to zero the weight snaps to exact 0.0
/// (clearing float drift, like Cluster::Clear does for an emptied cluster)
/// and the entry becomes a tombstone, revived in place by a later add and
/// dropped by the next rebuild.
///
/// Weight maintenance replays the same per-term additions, in the same
/// order, as Cluster::Refresh / Cluster::Add / Cluster::Remove apply to the
/// representatives — so scores match the merge path bit-for-bit (except
/// the float residuals a zero-snapped tombstone clears). Beside each scored
/// weight the index keeps an *unsnapped* copy that never zero-snaps: it is
/// the representative's coefficient exactly, so a move's cross term c⃗·ψ
/// (Eq. 26) is Σ unsnapped·ψ_t over the document's row — ApplyRemove and
/// ApplyAdd return it, and a slotted ClusterSet updates cr_self from it
/// without touching the representative vector.
///
/// The base postings live in padded SoA arrays (clusters / refs / weights,
/// plus an fp16 shadow of the weights when the index serves the quantized
/// pass) and are scanned through the runtime-dispatched SIMD kernels of
/// core/kernels — every kernel is bit-identical to the scalar reference on
/// the exact path, and the fp16 quantized pass (ScoreAllQuantized) feeds
/// the sweep's certified-margin re-check. On the exact path, documents
/// touching mid-sweep overlay terms fall back to the legacy scalar loops
/// (the per-term base/overlay interleaving is the semantic definition); the
/// quantized pass folds the overlay in after the kernel scan instead, which
/// its margin absorbs.
class FlatRepIndex {
 public:
  /// Cumulative counters survive rebuilds (RefreshAll rebuilds once per
  /// sweep, and the telemetry wants churn per run); live/dead entries
  /// reflect the current postings.
  struct Stats {
    uint64_t builds = 0;              // full CSR rebuilds
    uint64_t moves_applied = 0;       // ApplyAdd/ApplyRemove sides applied
    uint64_t tombstones_created = 0;  // entries whose refs dropped to 0
    uint64_t tombstones_revived = 0;  // tombstones re-added before a rebuild
    uint64_t delta_entries_added = 0;  // overlay entries ever created
    size_t live_entries = 0;  // base + overlay entries with refs > 0
    size_t dead_entries = 0;  // tombstones (cleared by the next rebuild)
  };
  const Stats& stats() const { return stats_; }

  /// Scoring-scan telemetry (cumulative, like Stats). Atomic because the
  /// seeded assignment pass scores one shared index from parallel lanes;
  /// relaxed increments keep the hot path at one uncontended add each.
  struct ScanStats {
    std::atomic<uint64_t> docs_scored{0};      // ScoreAll* calls
    std::atomic<uint64_t> entries_scanned{0};  // posting entries touched
    std::atomic<uint64_t> bytes_scanned{0};    // posting + row bytes read
    std::atomic<uint64_t> quantized_docs{0};   // docs scored via fp16 pass
    std::atomic<uint64_t> delta_fallback_docs{0};  // overlay-forced scalar

    ScanStats() = default;
    ScanStats(const ScanStats& o) { *this = o; }
    ScanStats& operator=(const ScanStats& o) {
      docs_scored = o.docs_scored.load(std::memory_order_relaxed);
      entries_scanned = o.entries_scanned.load(std::memory_order_relaxed);
      bytes_scanned = o.bytes_scanned.load(std::memory_order_relaxed);
      quantized_docs = o.quantized_docs.load(std::memory_order_relaxed);
      delta_fallback_docs =
          o.delta_fallback_docs.load(std::memory_order_relaxed);
      return *this;
    }
  };
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// `quantized`: keep the fp16 shadow weights ScoreAllQuantized scans.
  /// Nothing reads them on the exact path, so an exact-only index skips
  /// building and maintaining them.
  explicit FlatRepIndex(bool quantized = false) : quantized_(quantized) {}

  size_t num_clusters() const { return k_; }
  bool built() const { return built_; }

  /// Rebuilds the CSR postings from each cluster's (term, refs, weight)
  /// list — what Cluster::Refresh emits, so the weights are the
  /// representatives' coefficients bit-for-bit. Entries of one term are laid
  /// out in ascending cluster order; each term may appear at most once per
  /// list. Clears the overlay and all tombstones.
  void BuildFromPostings(
      const SimilarityContext& ctx,
      const std::vector<std::vector<Cluster::TermPosting>>& per_cluster);

  /// Rebuilds from fixed representative vectors (seeded assignment): each
  /// term of rep[p] becomes one entry with refs = 1. Terms outside the
  /// context's active vocabulary can never match a ψ and are skipped.
  void BuildFromRepresentatives(const SimilarityContext& ctx,
                                const std::vector<SparseVector>& reps);

  /// Document-at-a-time scoring: fills scores[p] = c⃗_p · ψ for every
  /// cluster in one sequential scan over the document's CSR row.
  void ScoreAll(const SimilarityContext& ctx, SimilarityContext::Slot slot,
                std::vector<double>* scores) const;

  /// ScoreAll with the document's home cluster evaluated *as if detached*:
  /// scores[home] accumulates (w − ψ_t)·ψ_t per shared term — bit-identical
  /// to physically removing ψ and rescoring — while *home_attached receives
  /// the attached cross term Σ w·ψ_t (the dot product Cluster::Remove
  /// would compute), so the caller can derive the detached cluster
  /// statistics without mutating anything.
  void ScoreAllDetached(const SimilarityContext& ctx,
                        SimilarityContext::Slot slot, size_t home,
                        std::vector<double>* scores,
                        double* home_attached) const;

  /// Quantized scoring pass over the fp16 shadow weights (see
  /// kernels/kernels.h): scores_f32/abs_f32 are resized to K and receive
  /// the fp32 product and absolute-product accumulators; entries of
  /// cluster `home` (pass kUnassigned for none) additionally feed the
  /// *exact* fp64 side-channel *home_attached / *home_detached,
  /// bit-identical to ScoreAllDetached's home lane. Mid-sweep overlay
  /// entries (no fp16 shadow) are folded in after the base kernel scan —
  /// sound for the certified margin, which holds for any fp32 summation
  /// order. Returns false — outputs then meaningless — only when an
  /// overlay entry belongs to the home cluster, whose exact side-channel
  /// must replay the legacy interleaved order; the caller then takes the
  /// exact path. Requires an index built with `quantized`.
  bool ScoreAllQuantized(const SimilarityContext& ctx,
                         SimilarityContext::Slot slot, int home,
                         std::vector<float>* scores_f32,
                         std::vector<float>* abs_f32, double* home_attached,
                         double* home_detached) const;

  /// Applies the posting side of an actual document move: weight -= ψ_t on
  /// every term (zero-snap tombstone when the last contributor leaves).
  /// Returns the cross term c⃗_p·ψ *before* the removal — Σ unsnapped·ψ_t
  /// in row order, bit-identical to the representative's
  /// SparseVector::Dot(ψ), which sums the same products in the same
  /// (TermId) order. No-ops, returning 0, before the first build —
  /// seeding assigns are followed by a rebuild, so maintaining postings for
  /// them would be wasted work.
  double ApplyRemove(const SimilarityContext& ctx,
                     SimilarityContext::Slot slot, size_t p);

  /// The add side of a move: weight += ψ_t, reviving tombstones or
  /// appending overlay entries for first-seen (term, cluster) pairs.
  /// Returns c⃗_p·ψ before the add, like ApplyRemove. No-ops before the
  /// first build (see ApplyRemove).
  double ApplyAdd(const SimilarityContext& ctx, SimilarityContext::Slot slot,
                  size_t p);

  /// Zeroes cluster p's unsnapped weights once the cluster is empty — the
  /// posting-side analogue of Cluster::Clear dropping the representative,
  /// so a repopulating document sees c⃗_p·ψ = 0 exactly. O(entries); the
  /// scored weights of an empty cluster are already zero-snapped.
  void ResetEmptyCluster(size_t p);

  /// Number of terms with at least one live (refs > 0) base or overlay
  /// posting: terms that only outlier documents carry have none. For
  /// telemetry: O(1) while the postings are as built, else one pass over
  /// them.
  size_t NumLiveTerms() const;

  /// Live (cluster, weight) postings of one *global* term, for tests; base
  /// entries first, then overlay entries.
  std::vector<std::pair<size_t, double>> PostingsOf(
      const SimilarityContext& ctx, TermId term) const;

 private:
  // One overlay entry: a cluster's accumulated weight for one term;
  // refs == 0 marks a tombstone with weight exactly 0.0, skipped only
  // logically, while `unsnapped` keeps the residual. (The base postings
  // store the same fields in SoA arrays — see below.)
  struct Entry {
    uint32_t cluster = 0;
    uint32_t refs = 0;
    double weight = 0.0;
    double unsnapped = 0.0;
  };
  static constexpr size_t kNoEntry = static_cast<size_t>(-1);

  size_t FindBase(uint32_t local_term, size_t p) const;
  Entry* FindDelta(uint32_t local_term, size_t p);
  void PrepareBuild(const SimilarityContext& ctx);
  // Sizes the SoA arrays (zeroed, with kPostingPadding slots of tail
  // padding) for `n` base entries.
  void ResizeEntries(size_t n);
  // Refreshes the fp16 shadow of every base entry (one pass, post-build;
  // quantized indexes only).
  void QuantizeAll();
  // True when the document's row touches a term with overlay entries —
  // those carry no fp16 shadow and are interleaved per term, so such docs
  // take the legacy scalar loops.
  bool NeedsDeltaFallback(const SimilarityContext::Row& row) const;
  uint64_t ScoreAllDeltaFallback(const SimilarityContext::Row& row,
                                 uint32_t home, std::vector<double>* scores,
                                 double* home_attached) const;
  kernels::PostingsView View() const {
    return {offsets_.data(),
            clusters_.data(),
            weights_.data(),
            quantized_ ? qweights_.data() : nullptr,
            cluster_masks_.empty() ? nullptr : cluster_masks_.data(),
            offsets_.size() - 1,
            k_};
  }
  static kernels::DocRow DocRowOf(const SimilarityContext::Row& row) {
    return {row.terms, row.values, row.size};
  }

  std::vector<size_t> offsets_;  // per local term, into the SoA arrays
  // Base CSR postings as parallel SoA arrays — the layout the SIMD kernels
  // scan. clusters_/weights_/qweights_ carry kernels::kPostingPadding
  // zeroed tail slots so full-width vector loads on a posting tail stay
  // in-bounds; refs_ and unsnapped_ are maintenance-only and unpadded.
  std::vector<uint32_t> clusters_;
  std::vector<uint32_t> refs_;
  std::vector<double> weights_;
  std::vector<double> unsnapped_;   // weights_ without the zero-snap
  std::vector<uint16_t> qweights_;  // fp16 shadow of weights_ (quantized_)
  // Per local term, the clusters of its base entries as a bitmask (only
  // for K <= kernels::kMaxMaskedClusters). Base entries are never added or
  // dropped between builds — tombstones stay in place — so it holds until
  // the next rebuild.
  std::vector<uint32_t> cluster_masks_;
  size_t built_live_terms_ = 0;  // terms with base entries at the build
  // Overlay for (term, cluster) pairs introduced by mid-sweep moves;
  // has_delta_ lets the scan skip the hash probe for untouched terms.
  std::vector<uint8_t> has_delta_;
  std::unordered_map<uint32_t, std::vector<Entry>> delta_;
  // Build scratch, reused across rebuilds: per-term entry counts, then
  // fill cursors.
  std::vector<size_t> counts_;
  size_t k_ = 0;
  bool built_ = false;
  bool quantized_ = false;
  Stats stats_;
  mutable ScanStats scan_stats_;
};

}  // namespace nidc

#endif  // NIDC_CORE_REP_INDEX_H_
