#include "nidc/core/cluster.h"

#include <algorithm>
#include <cassert>

namespace nidc {

void Cluster::Add(DocId id, const SimilarityContext& ctx) {
  const SparseVector& psi = ctx.Psi(id);
  AddGivenT(id, representative_.Dot(psi), ctx.SelfSim(id));
  representative_.AddScaled(psi, 1.0);
}

void Cluster::AddGivenT(DocId id, double t, double self) {
  // cr_sim(C∪{d}, C∪{d}) = cr_self + 2·cr_sim(C, {d}) + sim(d, d):
  // the expansion that makes Eq. 26 a single dot product.
  cr_self_ += 2.0 * t + self;
  ss_ += self;
  AttachMember(id);
}

void Cluster::AttachMember(DocId id) {
  assert(!Contains(id));
  member_pos_.emplace(id, members_.size());
  members_.push_back(id);
  has_last_leaver_ = false;
}

void Cluster::Remove(DocId id, const SimilarityContext& ctx) {
  const SparseVector& psi = ctx.Psi(id);
  const double t = representative_.Dot(psi);
  representative_.AddScaled(psi, -1.0);
  RemoveGivenT(id, t, ctx.SelfSim(id));
}

void Cluster::RemoveGivenT(DocId id, double t, double self) {
  // Deletion counterpart: with c' = c − ψ_d,
  // c'·c' = c·c − 2·c·ψ_d + ψ_d·ψ_d.
  cr_self_ += -2.0 * t + self;
  ss_ -= self;
  DetachMember(id);  // an emptied cluster also drops its representative
}

void Cluster::DetachMember(DocId id) {
  auto it = member_pos_.find(id);
  assert(it != member_pos_.end());
  // Swap-and-pop so removal costs O(1), not a linear member scan.
  const size_t pos = it->second;
  member_pos_.erase(it);
  if (pos + 1 != members_.size()) {
    members_[pos] = members_.back();
    member_pos_[members_[pos]] = pos;
  }
  members_.pop_back();
  if (members_.empty()) {
    Clear();  // snap caches to exact zero
    // Recorded after Clear so the identity-continuity window opens only
    // for a genuine empty-by-removal, never for a bulk Clear.
    last_leaver_ = id;
    has_last_leaver_ = true;
  }
}

void Cluster::ReplayDetachReattach(DocId id, double t_attached,
                                   double t_detached, double self) {
  assert(members_.size() >= 2);
  // Remove's scalar updates, with its internal dot product substituted ...
  cr_self_ += -2.0 * t_attached + self;
  ss_ -= self;
  // ... then Add's, against the (never materialized) detached state.
  cr_self_ += 2.0 * t_detached + self;
  ss_ += self;
  // Swap-and-pop + push_back nets out to rotating `id` to the end and
  // dropping the previously-last member into its old position.
  auto it = member_pos_.find(id);
  assert(it != member_pos_.end());
  const size_t pos = it->second;
  const size_t last = members_.size() - 1;
  if (pos != last) {
    members_[pos] = members_[last];
    member_pos_[members_[pos]] = pos;
    members_[last] = id;
    member_pos_[id] = last;
  }
}

double Cluster::AvgSim() const {
  const double n = static_cast<double>(members_.size());
  if (n <= 1.0) return 0.0;
  // Eq. 24.
  return (cr_self_ - ss_) / (n * (n - 1.0));
}

double Cluster::AvgSimIfAdded(DocId id, const SimilarityContext& ctx) const {
  assert(!Contains(id));
  const double n = static_cast<double>(members_.size());
  if (members_.empty()) return 0.0;  // singleton result: avg_sim = 0
  // Eq. 26: [cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)] / (|C|(|C|+1)).
  const double cr_cd = representative_.Dot(ctx.Psi(id));
  return (cr_self_ + 2.0 * cr_cd - ss_) / (n * (n + 1.0));
}

double Cluster::AvgSimIfMerged(const Cluster& other) const {
  const double n = static_cast<double>(members_.size() +
                                       other.members_.size());
  if (n <= 1.0) return 0.0;
  // Eq. 25: [cr(C_p,C_p) + 2·cr(C_p,C_q) + cr(C_q,C_q) − ss_p − ss_q] /
  //         [(|C_p|+|C_q|)(|C_p|+|C_q|−1)].
  const double cr_pq = representative_.Dot(other.representative_);
  return (cr_self_ + 2.0 * cr_pq + other.cr_self_ - ss_ - other.ss_) /
         (n * (n - 1.0));
}

void Cluster::MergeFrom(Cluster* other) {
  for (DocId id : other->members_) {
    assert(!Contains(id));
    member_pos_.emplace(id, members_.size());
    members_.push_back(id);
  }
  cr_self_ +=
      2.0 * representative_.Dot(other->representative_) + other->cr_self_;
  ss_ += other->ss_;
  representative_.AddScaled(other->representative_, 1.0);
  other->Clear();
}

void Cluster::Refresh(const SimilarityContext& ctx, RefreshScratch* scratch,
                      std::vector<TermPosting>* postings) {
  std::vector<double>& weight = scratch->weight;
  std::vector<uint32_t>& refs = scratch->refs;
  std::vector<uint32_t>& touched = scratch->touched;
  if (refs.size() < ctx.num_local_terms()) {
    weight.resize(ctx.num_local_terms());
    refs.resize(ctx.num_local_terms(), 0);
  }
  touched.clear();
  if (postings != nullptr) postings->clear();
  double ss = 0.0;
  for (DocId id : members_) {
    const SimilarityContext::Slot slot = ctx.SlotOf(id);
    ss += ctx.SelfSimAt(slot);
    const SimilarityContext::Row row = ctx.RowAt(slot);
    for (size_t i = 0; i < row.size; ++i) {
      const uint32_t t = row.terms[i];
      if (refs[t]++ == 0) {
        weight[t] = row.values[i];
        touched.push_back(t);
      } else {
        weight[t] += row.values[i];
      }
    }
  }
  std::vector<SparseVector::Entry> entries;
  entries.reserve(touched.size());
  for (uint32_t t : touched) {
    entries.push_back({ctx.GlobalTerm(t), weight[t]});
    if (postings != nullptr) postings->push_back({t, refs[t], weight[t]});
    refs[t] = 0;
  }
  // Global ids are unique per cluster, so FromEntries only sorts.
  representative_ = SparseVector::FromEntries(std::move(entries));
  ss_ = ss;
  cr_self_ = representative_.SquaredNorm();
}

void Cluster::Clear() {
  members_.clear();
  member_pos_.clear();
  representative_ = SparseVector();
  cr_self_ = 0.0;
  ss_ = 0.0;
  has_last_leaver_ = false;  // id_ is kept: identity persists while empty
}

double Cluster::AvgSimNaive(const SimilarityContext& ctx) const {
  const size_t n = members_.size();
  if (n <= 1) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      total += ctx.Sim(members_[i], members_[j]);
    }
  }
  return total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace nidc
