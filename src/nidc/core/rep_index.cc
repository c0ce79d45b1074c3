#include "nidc/core/rep_index.h"

#include <algorithm>
#include <cmath>

#include "nidc/core/kernels/kernels.h"
#include "nidc/util/logging.h"

namespace nidc {

namespace {

// Bytes a scan reads per posting entry: cluster id (4) + fp64 weight (8)
// on the exact path, cluster id (4) + fp16 shadow weight (2) on the
// quantized path; every path also streams the document row itself
// (4-byte term + 8-byte value per term).
constexpr uint64_t kExactEntryBytes = 12;
constexpr uint64_t kQuantizedEntryBytes = 6;
constexpr uint64_t kRowBytesPerTerm = 12;

void CountScan(FlatRepIndex::ScanStats* stats, uint64_t entries,
               size_t row_terms, uint64_t entry_bytes) {
  stats->docs_scored.fetch_add(1, std::memory_order_relaxed);
  stats->entries_scanned.fetch_add(entries, std::memory_order_relaxed);
  stats->bytes_scanned.fetch_add(
      entries * entry_bytes +
          static_cast<uint64_t>(row_terms) * kRowBytesPerTerm,
      std::memory_order_relaxed);
}

}  // namespace

void FlatRepIndex::PrepareBuild(const SimilarityContext& ctx) {
  const size_t terms = ctx.num_local_terms();
  counts_.assign(terms, 0);
  has_delta_.assign(terms, 0);
  delta_.clear();
  stats_.dead_entries = 0;
  ++stats_.builds;
  built_ = true;
}

void FlatRepIndex::ResizeEntries(size_t n) {
  // The SIMD kernels read full vectors past a posting tail; the padding
  // slots are zeroed (cluster 0, weight 0.0) and masked off in-register,
  // so they never reach an accumulator.
  clusters_.assign(n + kernels::kPostingPadding, 0);
  refs_.assign(n, 0);
  weights_.assign(n + kernels::kPostingPadding, 0.0);
  unsnapped_.resize(n);  // filled by the build
  if (quantized_) qweights_.assign(n + kernels::kPostingPadding, 0);
}

void FlatRepIndex::QuantizeAll() {
  const size_t n = offsets_.empty() ? 0 : offsets_.back();
  for (size_t e = 0; e < n; ++e) {
    qweights_[e] = kernels::HalfFromDouble(weights_[e]);
  }
}

void FlatRepIndex::BuildFromPostings(
    const SimilarityContext& ctx,
    const std::vector<std::vector<Cluster::TermPosting>>& per_cluster) {
  k_ = per_cluster.size();
  PrepareBuild(ctx);
  // Count, prefix-sum, then fill in ascending cluster order, so each term's
  // entries are sorted by cluster id.
  for (const auto& list : per_cluster) {
    for (const Cluster::TermPosting& posting : list) ++counts_[posting.term];
  }
  const size_t terms = counts_.size();
  offsets_.assign(terms + 1, 0);
  built_live_terms_ = 0;
  for (size_t t = 0; t < terms; ++t) {
    offsets_[t + 1] = offsets_[t] + counts_[t];
    if (counts_[t] > 0) ++built_live_terms_;
  }
  ResizeEntries(offsets_[terms]);
  const bool masked = k_ <= kernels::kMaxMaskedClusters;
  if (masked) {
    cluster_masks_.assign(terms, 0);
  } else {
    cluster_masks_.clear();
  }
  for (size_t t = 0; t < terms; ++t) counts_[t] = offsets_[t];
  for (size_t p = 0; p < k_; ++p) {
    for (const Cluster::TermPosting& posting : per_cluster[p]) {
      const size_t cursor = counts_[posting.term]++;
      if (masked) cluster_masks_[posting.term] |= uint32_t{1} << p;
      clusters_[cursor] = static_cast<uint32_t>(p);
      refs_[cursor] = posting.refs;
      weights_[cursor] = posting.weight;
      unsnapped_[cursor] = posting.weight;
    }
  }
  if (quantized_) QuantizeAll();
  stats_.live_entries = offsets_[terms];
}

void FlatRepIndex::BuildFromRepresentatives(
    const SimilarityContext& ctx, const std::vector<SparseVector>& reps) {
  std::vector<std::vector<Cluster::TermPosting>> per_cluster(reps.size());
  for (size_t p = 0; p < reps.size(); ++p) {
    for (const auto& e : reps[p].entries()) {
      if (e.value == 0.0) continue;
      const uint32_t t = ctx.LocalTerm(e.id);
      if (t == SimilarityContext::kNoLocalTerm) continue;
      per_cluster[p].push_back({t, 1, e.value});
    }
  }
  BuildFromPostings(ctx, per_cluster);
}

bool FlatRepIndex::NeedsDeltaFallback(
    const SimilarityContext::Row& row) const {
  if (delta_.empty()) return false;
  for (size_t i = 0; i < row.size; ++i) {
    if (has_delta_[row.terms[i]]) return true;
  }
  return false;
}

// The pre-kernel scalar loop over base + overlay, with the per-term
// base-then-overlay interleaving the overlay semantics require. `home` is
// kernels::kNoHome for a plain (no detached cluster) scan. Returns posting
// entries touched.
uint64_t FlatRepIndex::ScoreAllDeltaFallback(const SimilarityContext::Row& row,
                                             uint32_t home,
                                             std::vector<double>* scores,
                                             double* home_attached) const {
  double attached = 0.0;
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    entries += offsets_[t + 1] - offsets_[t];
    for (size_t e = offsets_[t]; e < offsets_[t + 1]; ++e) {
      if (clusters_[e] == home) {
        // Detached home score: the posting weight the physical remove
        // would leave is fl(w − v); multiplying by v afterwards replays
        // the removed-then-rescored arithmetic exactly.
        attached += weights_[e] * v;
        (*scores)[home] += (weights_[e] - v) * v;
      } else {
        (*scores)[clusters_[e]] += weights_[e] * v;
      }
    }
    if (has_delta_[t]) {
      const std::vector<Entry>& overlay = delta_.at(t);
      entries += overlay.size();
      for (const Entry& entry : overlay) {
        if (entry.cluster == home) {
          attached += entry.weight * v;
          (*scores)[home] += (entry.weight - v) * v;
        } else {
          (*scores)[entry.cluster] += entry.weight * v;
        }
      }
    }
  }
  *home_attached = attached;
  return entries;
}

void FlatRepIndex::ScoreAll(const SimilarityContext& ctx,
                            SimilarityContext::Slot slot,
                            std::vector<double>* scores) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  const SimilarityContext::Row row = ctx.RowAt(slot);
  double attached = 0.0;
  if (NeedsDeltaFallback(row)) {
    scores->assign(k_, 0.0);
    const uint64_t entries =
        ScoreAllDeltaFallback(row, kernels::kNoHome, scores, &attached);
    CountScan(&scan_stats_, entries, row.size, kExactEntryBytes);
    scan_stats_.delta_fallback_docs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  scores->resize(k_);  // the kernel zeroes every lane itself
  const kernels::ScoreKernel& kern = kernels::Active();
  const uint64_t entries =
      kern.score(View(), DocRowOf(row), kernels::kNoHome, scores->data(),
                 &attached);
  CountScan(&scan_stats_, entries, row.size, kExactEntryBytes);
}

void FlatRepIndex::ScoreAllDetached(const SimilarityContext& ctx,
                                    SimilarityContext::Slot slot, size_t home,
                                    std::vector<double>* scores,
                                    double* home_attached) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  const SimilarityContext::Row row = ctx.RowAt(slot);
  const uint32_t home_cluster = static_cast<uint32_t>(home);
  if (NeedsDeltaFallback(row)) {
    scores->assign(k_, 0.0);
    const uint64_t entries =
        ScoreAllDeltaFallback(row, home_cluster, scores, home_attached);
    CountScan(&scan_stats_, entries, row.size, kExactEntryBytes);
    scan_stats_.delta_fallback_docs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  scores->resize(k_);  // the kernel zeroes every lane itself
  const kernels::ScoreKernel& kern = kernels::Active();
  const uint64_t entries = kern.score(View(), DocRowOf(row), home_cluster,
                                      scores->data(), home_attached);
  CountScan(&scan_stats_, entries, row.size, kExactEntryBytes);
}

bool FlatRepIndex::ScoreAllQuantized(const SimilarityContext& ctx,
                                     SimilarityContext::Slot slot, int home,
                                     std::vector<float>* scores_f32,
                                     std::vector<float>* abs_f32,
                                     double* home_attached,
                                     double* home_detached) const {
  NIDC_CHECK(built_) << "FlatRepIndex scored before a build";
  NIDC_CHECK(quantized_) << "quantized scan of an index without fp16 weights";
  const SimilarityContext::Row row = ctx.RowAt(slot);
  scores_f32->resize(k_);  // the kernel zeroes every lane itself
  abs_f32->resize(k_);
  const uint32_t home_cluster =
      home < 0 ? kernels::kNoHome : static_cast<uint32_t>(home);
  const kernels::ScoreKernel& kern = kernels::Active();
  uint64_t entries = kern.score_quantized(
      View(), DocRowOf(row), home_cluster, scores_f32->data(),
      abs_f32->data(), home_attached, home_detached);
  // Overlay entries (mid-sweep moves) carry no fp16 shadow; fold them in
  // fp32 after the base scan. Base and overlay are disjoint per
  // (term, cluster) pair, so every accumulator still sees at most one
  // contribution per row term and the certified margin's R-term summation
  // bound — which holds for any fp32 accumulation order — stays sound.
  // Overlay weights are exact fp64, so their conversion error is strictly
  // below the fp16 allowance already in the margin. Only a home-cluster
  // overlay entry forces the exact path: it would have to enter the exact
  // fp64 side-channel mid-sequence to reproduce the legacy interleaved
  // accumulation order bit-for-bit.
  if (!delta_.empty()) {
    float* scores = scores_f32->data();
    float* abs_sums = abs_f32->data();
    for (size_t i = 0; i < row.size; ++i) {
      const uint32_t t = row.terms[i];
      if (!has_delta_[t]) continue;
      const float vf = static_cast<float>(row.values[i]);
      const std::vector<Entry>& overlay = delta_.at(t);
      entries += overlay.size();
      for (const Entry& entry : overlay) {
        if (entry.cluster == home_cluster) return false;
        const float p = static_cast<float>(entry.weight) * vf;
        scores[entry.cluster] += p;
        abs_sums[entry.cluster] += std::fabs(p);
      }
    }
  }
  CountScan(&scan_stats_, entries, row.size, kQuantizedEntryBytes);
  scan_stats_.quantized_docs.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t FlatRepIndex::FindBase(uint32_t local_term, size_t p) const {
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (size_t e = offsets_[local_term]; e < offsets_[local_term + 1]; ++e) {
    if (clusters_[e] == cluster) return e;
  }
  return kNoEntry;
}

FlatRepIndex::Entry* FlatRepIndex::FindDelta(uint32_t local_term, size_t p) {
  if (!has_delta_[local_term]) return nullptr;
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (Entry& entry : delta_[local_term]) {
    if (entry.cluster == cluster) return &entry;
  }
  return nullptr;
}

double FlatRepIndex::ApplyRemove(const SimilarityContext& ctx,
                                 SimilarityContext::Slot slot, size_t p) {
  if (!built_) return 0.0;
  NIDC_CHECK(p < k_) << "cluster " << p << " out of range (K = " << k_ << ")";
  ++stats_.moves_applied;
  const SimilarityContext::Row row = ctx.RowAt(slot);
  double cross = 0.0;
  for (size_t i = 0; i < row.size; ++i) {
    const double v = row.values[i];
    // A zero value adds ±0 to the cross term — a no-op, as in Dot.
    if (v == 0.0) continue;
    const uint32_t t = row.terms[i];
    const size_t e = FindBase(t, p);
    if (e != kNoEntry) {
      NIDC_CHECK(refs_[e] > 0)
          << "removing term " << ctx.GlobalTerm(t) << " never added to "
          << "cluster " << p;
      cross += unsnapped_[e] * v;
      unsnapped_[e] -= v;
      weights_[e] -= v;
      if (--refs_[e] == 0) {
        // Last contributor gone: snap the scored residual to exact zero
        // (the posting-side analogue of Cluster::Clear) and tombstone.
        weights_[e] = 0.0;
        --stats_.live_entries;
        ++stats_.dead_entries;
        ++stats_.tombstones_created;
      }
      if (quantized_) qweights_[e] = kernels::HalfFromDouble(weights_[e]);
      continue;
    }
    Entry* entry = FindDelta(t, p);
    NIDC_CHECK(entry != nullptr && entry->refs > 0)
        << "removing term " << ctx.GlobalTerm(t) << " never added to "
        << "cluster " << p;
    cross += entry->unsnapped * v;
    entry->unsnapped -= v;
    entry->weight -= v;
    if (--entry->refs == 0) {
      entry->weight = 0.0;
      --stats_.live_entries;
      ++stats_.dead_entries;
      ++stats_.tombstones_created;
    }
  }
  return cross;
}

double FlatRepIndex::ApplyAdd(const SimilarityContext& ctx,
                              SimilarityContext::Slot slot, size_t p) {
  if (!built_) return 0.0;
  NIDC_CHECK(p < k_) << "cluster " << p << " out of range (K = " << k_ << ")";
  ++stats_.moves_applied;
  const SimilarityContext::Row row = ctx.RowAt(slot);
  double cross = 0.0;
  for (size_t i = 0; i < row.size; ++i) {
    const double v = row.values[i];
    if (v == 0.0) continue;
    const uint32_t t = row.terms[i];
    const size_t e = FindBase(t, p);
    if (e != kNoEntry) {
      if (refs_[e] == 0) {
        --stats_.dead_entries;
        ++stats_.live_entries;
        ++stats_.tombstones_revived;
      }
      ++refs_[e];
      cross += unsnapped_[e] * v;
      unsnapped_[e] += v;
      weights_[e] += v;
      if (quantized_) qweights_[e] = kernels::HalfFromDouble(weights_[e]);
      continue;
    }
    Entry* entry = FindDelta(t, p);
    if (entry == nullptr) {
      // First (term, cluster) pairing since the last rebuild — the base
      // CSR cannot grow in place, so the pair lives in the overlay until
      // the next RefreshAll folds it into the base. The representative
      // has no such coefficient either: no cross-term contribution.
      has_delta_[t] = 1;
      delta_[t].push_back({static_cast<uint32_t>(p), 1, v, v});
      ++stats_.delta_entries_added;
      ++stats_.live_entries;
      continue;
    }
    if (entry->refs == 0) {
      --stats_.dead_entries;
      ++stats_.live_entries;
      ++stats_.tombstones_revived;
    }
    ++entry->refs;
    cross += entry->unsnapped * v;
    entry->unsnapped += v;
    entry->weight += v;
  }
  return cross;
}

void FlatRepIndex::ResetEmptyCluster(size_t p) {
  if (!built_) return;
  const uint32_t cluster = static_cast<uint32_t>(p);
  for (size_t e = 0; e < refs_.size(); ++e) {
    if (clusters_[e] == cluster) unsnapped_[e] = 0.0;
  }
  for (auto& [term, overlay] : delta_) {
    for (Entry& entry : overlay) {
      if (entry.cluster == cluster) entry.unsnapped = 0.0;
    }
  }
}

size_t FlatRepIndex::NumLiveTerms() const {
  if (!built_) return 0;
  // Every entry of a fresh build is live, and stays so until a move leaves
  // a tombstone or an overlay entry behind.
  if (delta_.empty() && stats_.dead_entries == 0) return built_live_terms_;
  size_t live = 0;
  for (size_t t = 0; t + 1 < offsets_.size(); ++t) {
    const bool base = std::any_of(refs_.begin() + offsets_[t],
                                  refs_.begin() + offsets_[t + 1],
                                  [](uint32_t refs) { return refs > 0; });
    const bool overlay =
        has_delta_[t] &&
        std::any_of(delta_.at(t).begin(), delta_.at(t).end(),
                    [](const Entry& entry) { return entry.refs > 0; });
    if (base || overlay) ++live;
  }
  return live;
}

std::vector<std::pair<size_t, double>> FlatRepIndex::PostingsOf(
    const SimilarityContext& ctx, TermId term) const {
  std::vector<std::pair<size_t, double>> out;
  const uint32_t t = ctx.LocalTerm(term);
  if (!built_ || t == SimilarityContext::kNoLocalTerm) return out;
  for (size_t e = offsets_[t]; e < offsets_[t + 1]; ++e) {
    if (refs_[e] > 0) out.emplace_back(clusters_[e], weights_[e]);
  }
  if (has_delta_[t]) {
    for (const Entry& entry : delta_.at(t)) {
      if (entry.refs > 0) out.emplace_back(entry.cluster, entry.weight);
    }
  }
  return out;
}

}  // namespace nidc
