#include "nidc/core/cluster_set.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "nidc/util/thread_pool.h"

namespace nidc {

void ClusterSet::Assign(DocId id, int p, const SimilarityContext& ctx) {
  Move(id, p, &ctx);
}

void ClusterSet::Seed(DocId id, int p) { Move(id, p, nullptr); }

void ClusterSet::Move(DocId id, int p, const SimilarityContext* ctx) {
  assert(p == kUnassigned ||
         (p >= 0 && static_cast<size_t>(p) < clusters_.size()));
  if (id >= assignment_.size()) {
    assignment_.resize(static_cast<size_t>(id) + 1, kUnassigned);
  }
  const int current = assignment_[id];
  if (current == p) return;
  // Once built, the posting index supplies each side's cross term c⃗·ψ
  // (bit-identical to the representative's Dot), so the representative
  // vectors are not maintained until the next RefreshAll.
  const bool indexed = ctx != nullptr && slotted() && flat_index_.built();
  const SimilarityContext::Slot slot =
      indexed ? ctx->SlotOf(id) : SimilarityContext::kNoSlot;
  if (current != kUnassigned) {
    const size_t q = static_cast<size_t>(current);
    Cluster& source = clusters_[q];
    if (ctx == nullptr) {
      source.DetachMember(id);
    } else if (indexed) {
      source.RemoveGivenT(id, flat_index_.ApplyRemove(*ctx, slot, q),
                          ctx->SelfSimAt(slot));
      if (source.empty()) flat_index_.ResetEmptyCluster(q);
    } else {
      source.Remove(id, *ctx);
    }
    assignment_[id] = kUnassigned;
    --total_assigned_;
  }
  if (p != kUnassigned) {
    const size_t q = static_cast<size_t>(p);
    Cluster& target = clusters_[q];
    if (target.empty() && !target.ReseedContinuesIdentity(id)) {
      target.set_id(next_id_++);
    }
    if (ctx == nullptr) {
      target.AttachMember(id);
    } else if (indexed) {
      target.AddGivenT(id, flat_index_.ApplyAdd(*ctx, slot, q),
                       ctx->SelfSimAt(slot));
    } else {
      target.Add(id, *ctx);
    }
    assignment_[id] = p;
    ++total_assigned_;
  }
}

size_t ClusterSet::InstallIds(const std::vector<uint64_t>& seed_ids,
                              uint64_t first_fresh_id) {
  next_id_ = first_fresh_id;
  for (uint64_t seed : seed_ids) {
    if (seed != Cluster::kNoClusterId && seed >= next_id_) {
      next_id_ = seed + 1;
    }
  }
  size_t fresh = 0;
  for (size_t p = 0; p < clusters_.size(); ++p) {
    if (p < seed_ids.size() && seed_ids[p] != Cluster::kNoClusterId) {
      clusters_[p].set_id(seed_ids[p]);
    } else {
      clusters_[p].set_id(next_id_++);
      ++fresh;
    }
  }
  return fresh;
}

void ClusterSet::ReplayStay(DocId id, size_t p, double t_attached,
                            double t_detached, const SimilarityContext& ctx) {
  assert(ClusterOf(id) == static_cast<int>(p));
  clusters_[p].ReplayDetachReattach(id, t_attached, t_detached,
                                    ctx.SelfSim(id));
  // Posting weights round-trip to themselves under remove + re-add, so the
  // index needs no touch — that is the whole point of the move-only sweep.
}

void ClusterSet::RefreshAll(const SimilarityContext& ctx, ThreadPool* pool) {
  const size_t k = clusters_.size();
  const bool postings = slotted();
  if (postings) postings_.resize(k);
  const size_t threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t lanes = std::max<size_t>(1, std::min(threads, k));
  if (scratch_.size() < lanes) scratch_.resize(lanes);
  // Each lane owns one scratch and pulls clusters off a shared cursor. A
  // Refresh reads only the context and its own members and writes only its
  // own caches and posting list, so which lane runs it changes nothing.
  std::atomic<size_t> next{0};
  const auto lane = [&](size_t l, size_t) {
    for (size_t p = next++; p < k; p = next++) {
      clusters_[p].Refresh(ctx, &scratch_[l],
                           postings ? &postings_[p] : nullptr);
    }
  };
  if (lanes > 1) {
    pool->ParallelFor(lanes, /*grain=*/1, lane);
  } else {
    lane(0, 1);
  }
  // Also clears the mid-sweep overlay and tombstones.
  if (postings) flat_index_.BuildFromPostings(ctx, postings_);
}

double ClusterSet::G() const {
  double g = 0.0;
  for (const Cluster& c : clusters_) {
    g += static_cast<double>(c.size()) * c.AvgSim();
  }
  return g;
}

}  // namespace nidc
