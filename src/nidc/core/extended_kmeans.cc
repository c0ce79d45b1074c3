#include "nidc/core/extended_kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "nidc/core/clustering_index.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/core/rep_index.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/provenance.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/thread_pool.h"

namespace nidc {

Status ExtendedKMeansOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(delta >= 0.0)) return Status::InvalidArgument("delta must be >= 0");
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return Status::OK();
}

namespace {

ClusterScoring ScoringOf(const ExtendedKMeansOptions& options) {
  if (!options.use_rep_index) return ClusterScoring::kMerge;
  return options.quantized_scoring ? ClusterScoring::kSlottedQuantized
                                   : ClusterScoring::kSlotted;
}

// Accumulates elapsed seconds into *acc on destruction; no clock reads at
// all when acc is null, so unprofiled runs pay nothing.
class ScopedSeconds {
 public:
  explicit ScopedSeconds(double* acc) : acc_(acc) {
    if (acc_ != nullptr) timer_.Restart();
  }
  ~ScopedSeconds() {
    if (acc_ != nullptr) *acc_ += timer_.ElapsedSeconds();
  }
  ScopedSeconds(const ScopedSeconds&) = delete;
  ScopedSeconds& operator=(const ScopedSeconds&) = delete;

 private:
  double* acc_;
  Stopwatch timer_;
};

// Sampled variant for the per-document maintenance slices: timing every
// mutation costs two clock reads per document per sweep, which was the
// single largest line item in the instrumentation-overhead budget. One
// mutation in kStride is timed and the sum scaled back up on destruction —
// document order is uncorrelated with the stride phase, so the estimate
// stays within a few percent of the exhaustive sum at 1/kStride of the
// clock cost. A null sink samples nothing, exactly like ScopedSeconds.
class SampledSeconds {
 public:
  static constexpr uint32_t kStride = 16;

  explicit SampledSeconds(double* acc) : acc_(acc) {}
  ~SampledSeconds() {
    if (acc_ != nullptr) *acc_ += sampled_ * kStride;
  }
  SampledSeconds(const SampledSeconds&) = delete;
  SampledSeconds& operator=(const SampledSeconds&) = delete;

  /// Sink for one timed slice: the sampled accumulator on every
  /// kStride-th call, null (skip the clocks) otherwise.
  double* Next() {
    if (acc_ == nullptr) return nullptr;
    return (tick_++ % kStride) == 0 ? &sampled_ : nullptr;
  }

 private:
  double* acc_;
  double sampled_ = 0.0;
  uint32_t tick_ = 0;
};

// Shared per-document telemetry of one sweep iteration.
struct SweepCounters {
  size_t moves = 0;
  /// Documents that re-populated an empty cluster other than their own —
  /// the slot was handed to a new topic and minted a fresh stable id.
  size_t reseeds = 0;
  /// Documents whose clustering decision the quantized pass certified.
  size_t quantized_certified = 0;
  /// Documents the quantized margins could not separate — re-scored exactly.
  size_t quantized_fallbacks = 0;
};

// Per-slot provenance capture of a document's latest sweep decision,
// indexed by ctx.SlotOf(id) and overwritten every sweep — so after the
// loop the buffer holds exactly the run's settled decisions, flushed to
// the ProvenanceLog in one batch (no extra scoring pass). Gains are
// decision-bar relative: both floored at the sweeps' `> 0` outlier bar,
// so margin = best - runner_up is >= 0 and path-independent.
struct ProvCapture {
  int best = kUnassigned;
  int runner_up = kUnassigned;
  double best_gain = 0.0;
  double runner_up_gain = 0.0;
  obs::ProvenanceVerdict verdict = obs::ProvenanceVerdict::kOutlier;
  obs::QuantizedOutcome quantized = obs::QuantizedOutcome::kOff;
  uint32_t iteration = 0;
};

// The sweeps' telemetry sinks (all null/empty when uninstrumented), owned
// by the run so the event staging buffer keeps its capacity across sweeps
// instead of regrowing in every one.
struct SweepSinks {
  obs::EventLog* events = nullptr;
  std::vector<obs::Event> staged_events;  // flushed once per sweep
  double* maintenance_seconds = nullptr;
  std::vector<ProvCapture>* capture = nullptr;
};

// Per-slot constants of the quantized error bound, filled lazily and
// reused across sweep iterations: a slot's row (term count, |v|max) is
// immutable for the lifetime of a run, so its margin coefficients never
// change. rel < 0 marks a row the bound cannot certify (over-long row or
// non-finite values) — such documents skip the quantized scan entirely.
struct QuantMargins {
  std::vector<double> rel;
  std::vector<double> abs_term;
  std::vector<uint8_t> cached;

  void EnsureSize(size_t n) {
    if (cached.size() < n) {
      rel.resize(n, 0.0);
      abs_term.resize(n, 0.0);
      cached.resize(n, 0);
    }
  }
};

// Emits the lifecycle events of one settled per-document decision: the
// move itself, the source cluster left empty (if any), and a reseeded
// empty slot (if the reseed branch fired). Cluster ids are read *after*
// the assignment — an emptied cluster keeps its id until reseeded, and a
// reseeded cluster's fresh id is exactly what the event should carry.
// Stages the events of one settled document into `buffer` — the sweeps
// flush the whole buffer through EventLog::EmitBatch once per sweep, so
// the per-document cost is plain stores instead of a mutex + clock read
// per move (which showed up in the instrumentation-overhead budget on
// first sweeps, where every document "moves" from unassigned).
void EmitSweepEvents(std::vector<obs::Event>* buffer,
                     const ClusterSet& clusters, DocId id, int previous,
                     int best, bool reseeded) {
  if (best == previous) return;
  // Built in place: an Event is 112 bytes with a std::string member, too
  // big to stage through a temporary on the overhead-gated path.
  obs::Event& moved = buffer->emplace_back();
  moved.type = obs::EventType::kDocMoved;
  moved.doc = id;
  if (previous != kUnassigned) {
    moved.from_cluster = clusters.cluster_id(static_cast<size_t>(previous));
  }
  if (best != kUnassigned) {
    moved.cluster_id = clusters.cluster_id(static_cast<size_t>(best));
  }
  if (previous != kUnassigned &&
      clusters.cluster(static_cast<size_t>(previous)).empty()) {
    obs::Event& emptied = buffer->emplace_back();
    emptied.type = obs::EventType::kClusterEmptied;
    emptied.cluster_id = clusters.cluster_id(static_cast<size_t>(previous));
  }
  if (reseeded && best != kUnassigned) {
    obs::Event& reseed = buffer->emplace_back();
    reseed.type = obs::EventType::kClusterReseeded;
    reseed.cluster_id = clusters.cluster_id(static_cast<size_t>(best));
  }
}

// One repetition sweep (§4.3 step 1) in its reference form (kMerge): every
// document is physically detached, the best avg_sim gain over all clusters
// is found via Eq. 26 — the cross terms T_p = cr_sim(C_p, {d}) as K
// independent sparse dot products against the representatives — and the
// document is re-attached to the argmax cluster, or put on the outlier
// list when no assignment increases any intra-cluster similarity.
std::vector<DocId> SweepAssignMerge(const std::vector<DocId>& order,
                                    const SimilarityContext& ctx,
                                    AssignmentCriterion criterion,
                                    ClusterSet* clusters,
                                    SweepCounters* counters,
                                    SweepSinks* sinks, uint32_t iteration) {
  std::vector<DocId> outliers;
  obs::EventLog* events = sinks->events;
  std::vector<obs::Event>& staged_events = sinks->staged_events;
  std::vector<ProvCapture>* capture = sinks->capture;
  SampledSeconds maint_sampler(sinks->maintenance_seconds);
  for (DocId id : order) {
    const int previous = clusters->ClusterOf(id);
    bool reseeded = false;
    {
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Assign(id, kUnassigned, ctx);
    }
    int best = kUnassigned;
    double best_gain = 0.0;
    int runner_up = kUnassigned;
    double runner_up_gain = 0.0;
    for (size_t p = 0; p < clusters->num_clusters(); ++p) {
      const Cluster& c = clusters->cluster(p);
      const double gain = criterion == AssignmentCriterion::kGIncrease
                              ? c.GainInGIfAdded(id, ctx)
                              : c.GainIfAdded(id, ctx);
      if (gain > best_gain) {
        runner_up_gain = best_gain;
        runner_up = best;
        best_gain = gain;
        best = static_cast<int>(p);
      } else if (gain > runner_up_gain) {
        runner_up_gain = gain;
        runner_up = static_cast<int>(p);
      }
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[ctx.SlotOf(id)];
      pc.best_gain = best_gain;
      pc.runner_up = runner_up;
      pc.runner_up_gain = runner_up_gain;
      pc.quantized = obs::QuantizedOutcome::kOff;
    }
    if (best == kUnassigned) {
      // No assignment increases any cluster's quality. Before declaring the
      // document an outlier, let it (re)seed an empty cluster — otherwise a
      // singleton seed drains to the outlier list the moment it is swept
      // (removing it empties its own cluster, and an empty cluster's gain
      // is 0, never "> 0").
      for (size_t p = 0; p < clusters->num_clusters(); ++p) {
        if (clusters->cluster(p).empty()) {
          best = static_cast<int>(p);
          reseeded = true;
          break;
        }
      }
    }
    if (best == kUnassigned) {
      outliers.push_back(id);
    } else {
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Assign(id, best, ctx);
    }
    if (best != previous) {
      ++counters->moves;
      // A document handed back its own emptied cluster continues that
      // cluster's identity — only cross-cluster reseeds count.
      if (reseeded) ++counters->reseeds;
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[ctx.SlotOf(id)];
      pc.best = best;
      pc.verdict = reseeded ? obs::ProvenanceVerdict::kReseeded
                   : best == kUnassigned
                       ? obs::ProvenanceVerdict::kOutlier
                       : obs::ProvenanceVerdict::kAssigned;
      pc.iteration = iteration;
    }
    if (events != nullptr) {
      EmitSweepEvents(&staged_events, *clusters, id, previous, best,
                      reseeded);
    }
  }
  if (events != nullptr) events->EmitBatch(&staged_events);
  return outliers;
}

// The move-only sweep (kSlotted): scores every document against the flat
// CSR index *with its ψ still attached*. ScoreAllDetached folds the home
// cluster's detachment into the scan — scores[home] accumulates
// (c⃗_q − ψ)·ψ per term while the attached cross term T_att = c⃗_q·ψ is
// collected alongside — so the detached home statistics follow from the
// Eq. 25/26 identity:
//   cr' = cr − 2·T_att + self,   ss' = ss − self,   n' = n − 1,
// replaying the exact floating-point expressions Cluster::Remove would
// apply. Decisions are therefore bit-identical to the reference
// detach/score/re-attach loop, but clusters and postings are only mutated
// when a document actually moves; a document that stays put costs one
// scalar-cache replay (ReplayStay) and zero index work.
std::vector<DocId> SweepAssignMoveOnly(const std::vector<DocId>& order,
                                       const SimilarityContext& ctx,
                                       AssignmentCriterion criterion,
                                       ClusterSet* clusters,
                                       SweepCounters* counters,
                                       QuantMargins* margins,
                                       SweepSinks* sinks,
                                       uint32_t iteration) {
  std::vector<DocId> outliers;
  const bool quantized =
      clusters->scoring() == ClusterScoring::kSlottedQuantized;
  if (quantized) margins->EnsureSize(ctx.size());
  std::vector<double> t_scores;
  obs::EventLog* events = sinks->events;
  std::vector<obs::Event>& staged_events = sinks->staged_events;
  std::vector<ProvCapture>* capture = sinks->capture;
  SampledSeconds maint_sampler(sinks->maintenance_seconds);
  std::vector<float> q_scores;
  std::vector<float> q_abs;
  std::vector<double> g_lo;
  std::vector<double> g_hi;
  const FlatRepIndex& index = clusters->flat_index();
  const size_t k = clusters->num_clusters();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  // The exact per-cluster gain expressions of the reference loop below.
  // Both are affine in the cross term t with a positive coefficient, each
  // rounding step is monotone, and t appears exactly once — so evaluating
  // them at t ± m brackets the value at any t' in [t − m, t + m].
  const auto gain_of = [criterion](const Cluster& c, double t) {
    return criterion == AssignmentCriterion::kGIncrease ? c.GainInGGivenT(t)
                                                        : c.GainGivenT(t);
  };
  const auto gain_detached = [criterion](double t, double n, double cr,
                                         double ss) {
    return criterion == AssignmentCriterion::kGIncrease
               ? Cluster::GainInGGivenTWith(t, n, cr, ss)
               : Cluster::GainGivenTWith(t, n, cr, ss);
  };

  for (DocId id : order) {
    const int previous = clusters->ClusterOf(id);
    bool reseeded = false;
    const SimilarityContext::Slot slot = ctx.SlotOf(id);

    double t_attached = 0.0;
    double t_home_detached = 0.0;  // scores[home] of the exact scan
    double n_detached = 0.0;
    double cr_detached = 0.0;
    double ss_detached = 0.0;
    // Derives the detached home statistics from the exact attached cross
    // term — the same expressions (and rounding steps) as Cluster::Remove.
    const auto derive_home = [&]() {
      const Cluster& home = clusters->cluster(static_cast<size_t>(previous));
      const double self = ctx.SelfSimAt(slot);
      n_detached = static_cast<double>(home.size() - 1);
      cr_detached = home.cr_self() + (-2.0 * t_attached + self);
      ss_detached = home.ss() - self;
    };

    int best = kUnassigned;
    bool decided = false;

    // Quantized fast path: one fp16/fp32 scan plus an error-margin
    // certification. The home cluster's cross terms arrive through the
    // kernel's exact fp64 side-channel, so its gain is exact; every other
    // cluster gets a gain interval [g_lo, g_hi] from the quantized score
    // ± a rigorous bound. A decision is taken only when the intervals
    // prove what the exact path would choose; anything ambiguous falls
    // through to the exact scan below, keeping decisions bit-identical.
    if (quantized) {
      // Margin of the quantized cross term T̃_p = scores_f32[p], with
      // Ã_p = abs_f32[p] and R the document's term count:
      //   |T̃_p − T_p| ≤ rel · Ã_p + abs_term, where
      //   rel covers the fp16 shadow's relative error (2^-10 includes
      //   its double rounding) plus the fp32 product/summation error
      //   γ32(R + 4) = ((R+4)·2^-24) / (1 − (R+4)·2^-24), and
      //   abs_term covers fp16 subnormal quantization (2^-25 · |v|) and
      //   fp32 underflow per contribution. kSafety = 4 absorbs the
      //   second-order cross terms. fp16 overflow makes Ã_p infinite,
      //   which fails the finiteness checks and forces the exact path.
      // The coefficients depend only on the (immutable) row, so they are
      // computed once per slot and reused across iterations.
      if (!margins->cached[slot]) {
        const SimilarityContext::Row row = ctx.RowAt(slot);
        double vmax = 0.0;
        for (size_t i = 0; i < row.size; ++i) {
          vmax = std::max(vmax, std::fabs(row.values[i]));
        }
        const double r = static_cast<double>(row.size);
        const double gamma_n = (r + 4.0) * 0x1p-24;
        const bool usable = gamma_n < 0.5 && std::isfinite(vmax);
        margins->rel[slot] =
            usable ? 4.0 * (0x1p-10 + gamma_n / (1.0 - gamma_n)) : -1.0;
        margins->abs_term[slot] = 4.0 * r * (0x1p-25 * vmax + 1e-40);
        margins->cached[slot] = 1;
      }
      const double rel = margins->rel[slot];
      const double abs_term = margins->abs_term[slot];
      double ha = 0.0;
      double hd = 0.0;
      if (rel >= 0.0 &&
          index.ScoreAllQuantized(ctx, slot, previous, &q_scores, &q_abs,
                                  &ha, &hd)) {
        if (previous != kUnassigned) {
          t_attached = ha;
          t_home_detached = hd;
          derive_home();
        }
        bool ok = true;
        g_lo.assign(k, kNegInf);  // skipped clusters stay at [-inf, -inf]
        g_hi.assign(k, kNegInf);
        int cand = kUnassigned;
        double cand_lo = 0.0;  // mirrors the exact loop's `gain > 0` bar
        for (size_t p = 0; ok && p < k; ++p) {
          double lo;
          double hi;
          if (static_cast<int>(p) == previous) {
            // A home cluster the detachment would empty is an empty
            // cluster: gain 0, never "> 0" — skip, as the exact loop does.
            if (n_detached < 1.0) continue;
            lo = hi = gain_detached(hd, n_detached, cr_detached,
                                    ss_detached);
            if (std::isnan(lo)) ok = false;
          } else {
            const Cluster& c = clusters->cluster(p);
            if (c.empty()) continue;
            const double t_mid = static_cast<double>(q_scores[p]);
            const double m =
                rel * static_cast<double>(q_abs[p]) + abs_term;
            if (!std::isfinite(t_mid) || !std::isfinite(m)) {
              ok = false;
              break;
            }
            lo = gain_of(c, t_mid - m);
            hi = gain_of(c, t_mid + m);
            if (std::isnan(lo) || std::isnan(hi)) ok = false;
          }
          if (!ok) break;
          g_lo[p] = lo;
          g_hi[p] = hi;
          if (lo > cand_lo) {
            cand_lo = lo;
            cand = static_cast<int>(p);
          }
        }
        if (ok) {
          if (cand == kUnassigned) {
            // Certified outlier: every cluster's best case fails `> 0`.
            bool all_below = true;
            for (size_t p = 0; p < k; ++p) {
              if (g_hi[p] > 0.0) {
                all_below = false;
                break;
              }
            }
            if (all_below) decided = true;  // best stays kUnassigned
          } else {
            // Certified argmax: cand's worst case strictly beats every
            // other cluster's best case, so the exact gains have a unique
            // strict maximum at cand (> 0) — tie-breaking can't differ.
            bool separated = true;
            for (size_t p = 0; p < k; ++p) {
              if (static_cast<int>(p) == cand) continue;
              if (!(g_hi[p] < cand_lo)) {
                separated = false;
                break;
              }
            }
            if (separated) {
              best = cand;
              decided = true;
            }
          }
        }
        if (decided) {
          ++counters->quantized_certified;
        } else {
          ++counters->quantized_fallbacks;
        }
        if (capture != nullptr && decided) {
          // Certified decisions have interval bounds, not exact gains:
          // record the winner's certified lower bound against the best
          // rival's certified upper bound (a conservative margin that is
          // >= 0 by the separation proof), marked kCertified so
          // consumers know these are bounds. Certified outliers record
          // the bar itself (0/0) — no cluster's best case cleared it.
          ProvCapture& pc = (*capture)[slot];
          pc.quantized = obs::QuantizedOutcome::kCertified;
          if (best == kUnassigned) {
            pc.best_gain = 0.0;
            pc.runner_up = kUnassigned;
            pc.runner_up_gain = 0.0;
          } else {
            pc.best_gain = cand_lo;
            int rival = kUnassigned;
            double rival_hi = 0.0;
            for (size_t p = 0; p < k; ++p) {
              if (static_cast<int>(p) == best) continue;
              if (g_hi[p] > rival_hi) {
                rival_hi = g_hi[p];
                rival = static_cast<int>(p);
              }
            }
            pc.runner_up = rival;
            pc.runner_up_gain = rival_hi;
          }
        }
      }
    }

    if (!decided) {
      // Exact path: score all clusters, deriving the home cluster's
      // detached statistics without touching it.
      if (previous == kUnassigned) {
        index.ScoreAll(ctx, slot, &t_scores);
      } else {
        index.ScoreAllDetached(ctx, slot, static_cast<size_t>(previous),
                               &t_scores, &t_attached);
        t_home_detached = t_scores[static_cast<size_t>(previous)];
        derive_home();
      }
      double best_gain = 0.0;
      int runner_up = kUnassigned;
      double runner_up_gain = 0.0;
      for (size_t p = 0; p < k; ++p) {
        double gain;
        if (static_cast<int>(p) == previous) {
          // A home cluster the detachment would empty is an empty cluster:
          // its gain is 0, never "> 0" (reference: Remove triggered Clear).
          if (n_detached < 1.0) continue;
          gain = gain_detached(t_scores[p], n_detached, cr_detached,
                               ss_detached);
        } else {
          const Cluster& c = clusters->cluster(p);
          if (c.empty()) continue;
          gain = gain_of(c, t_scores[p]);
        }
        if (gain > best_gain) {
          runner_up_gain = best_gain;
          runner_up = best;
          best_gain = gain;
          best = static_cast<int>(p);
        } else if (gain > runner_up_gain) {
          runner_up_gain = gain;
          runner_up = static_cast<int>(p);
        }
      }
      if (capture != nullptr) {
        ProvCapture& pc = (*capture)[slot];
        pc.best_gain = best_gain;
        pc.runner_up = runner_up;
        pc.runner_up_gain = runner_up_gain;
        pc.quantized = quantized ? obs::QuantizedOutcome::kRecheck
                                 : obs::QuantizedOutcome::kOff;
      }
    }

    if (best == kUnassigned) {
      // Empty-cluster reseed, with "empty" evaluated as the reference sweep
      // saw it mid-detachment: the home cluster counts as empty when the
      // document was its only member.
      for (size_t p = 0; p < k; ++p) {
        const bool empty = static_cast<int>(p) == previous
                               ? n_detached == 0.0
                               : clusters->cluster(p).empty();
        if (empty) {
          best = static_cast<int>(p);
          reseeded = true;
          break;
        }
      }
    }

    if (best == kUnassigned) {
      if (previous != kUnassigned) {
        ScopedSeconds maint(maint_sampler.Next());
        clusters->Assign(id, kUnassigned, ctx);
      }
      outliers.push_back(id);
    } else if (best == previous) {
      ScopedSeconds maint(maint_sampler.Next());
      if (n_detached == 0.0) {
        // Re-seeding its own emptied cluster: replay the physical
        // round-trip so Clear() purges accumulated drift exactly as the
        // reference path does.
        clusters->Assign(id, kUnassigned, ctx);
        clusters->Assign(id, best, ctx);
      } else {
        // t_home_detached is scores[home] of the exact scan; the quantized
        // path produced the identical value through the kernel's exact
        // fp64 side-channel.
        clusters->ReplayStay(id, static_cast<size_t>(best), t_attached,
                             t_home_detached, ctx);
      }
    } else {
      // An actual move: Assign updates the postings and takes both cross
      // terms from them (the representatives' Dot, bit-for-bit).
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Assign(id, best, ctx);
    }
    if (best != previous) {
      ++counters->moves;
      if (reseeded) ++counters->reseeds;
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[slot];
      pc.best = best;
      pc.verdict = reseeded ? obs::ProvenanceVerdict::kReseeded
                   : best == kUnassigned
                       ? obs::ProvenanceVerdict::kOutlier
                       : obs::ProvenanceVerdict::kAssigned;
      pc.iteration = iteration;
    }
    if (events != nullptr) {
      EmitSweepEvents(&staged_events, *clusters, id, previous, best,
                      reseeded);
    }
  }
  if (events != nullptr) events->EmitBatch(&staged_events);
  return outliers;
}

std::vector<DocId> SweepAssign(const std::vector<DocId>& order,
                               const SimilarityContext& ctx,
                               AssignmentCriterion criterion,
                               ClusterSet* clusters, SweepCounters* counters,
                               QuantMargins* margins, SweepSinks* sinks,
                               uint32_t iteration) {
  if (clusters->slotted()) {
    return SweepAssignMoveOnly(order, ctx, criterion, clusters, counters,
                               margins, sinks, iteration);
  }
  return SweepAssignMerge(order, ctx, criterion, clusters, counters, sinks,
                          iteration);
}

// Populates clusters from fixed representative vectors: each document joins
// the cluster whose representative it is most similar to (cr_sim with the
// singleton {d}); non-positive best similarity goes to the outlier list.
//
// The scan is read-only against the fixed vectors, so the per-document
// decisions are computed in parallel (optionally through a posting index
// over the seed representatives) and then applied serially in document
// order — bit-identical to the serial loop for any thread count.
std::vector<DocId> AssignAgainstFixedRepresentatives(
    const std::vector<DocId>& docs, const std::vector<SparseVector>& reps,
    const SimilarityContext& ctx, ClusterScoring scoring, ThreadPool* pool,
    ClusterSet* clusters) {
  FlatRepIndex flat_seed_index;
  const bool slotted = scoring != ClusterScoring::kMerge;
  if (slotted) {
    flat_seed_index.BuildFromRepresentatives(ctx, reps);
  }

  std::vector<int> decisions(docs.size(), kUnassigned);
  const auto decide = [&](size_t begin, size_t end) {
    std::vector<double> scores;
    for (size_t i = begin; i < end; ++i) {
      int best = kUnassigned;
      double best_sim = 0.0;
      if (slotted) {
        flat_seed_index.ScoreAll(ctx, ctx.SlotOf(docs[i]), &scores);
        for (size_t p = 0; p < reps.size(); ++p) {
          if (scores[p] > best_sim) {
            best_sim = scores[p];
            best = static_cast<int>(p);
          }
        }
      } else {
        const SparseVector& psi = ctx.Psi(docs[i]);
        for (size_t p = 0; p < reps.size(); ++p) {
          const double sim = reps[p].Dot(psi);
          if (sim > best_sim) {
            best_sim = sim;
            best = static_cast<int>(p);
          }
        }
      }
      decisions[i] = best;
    }
  };
  pool->ParallelFor(docs.size(), /*grain=*/64, decide);

  std::vector<DocId> outliers;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (decisions[i] == kUnassigned) {
      outliers.push_back(docs[i]);
    } else {
      clusters->Seed(docs[i], decisions[i]);
    }
  }
  return outliers;
}

}  // namespace

Result<ClusteringResult> RunExtendedKMeans(
    const SimilarityContext& ctx, const std::vector<DocId>& docs,
    const ExtendedKMeansOptions& options,
    const std::optional<KMeansSeeds>& seeds) {
  NIDC_RETURN_NOT_OK(options.Validate());
  if (docs.empty()) {
    return Status::InvalidArgument("cannot cluster an empty document set");
  }
  for (DocId id : docs) {
    if (!ctx.Contains(id)) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " is not in the similarity context");
    }
  }

  NIDC_SPAN("kmeans.run");
  const size_t k = std::min(options.k, docs.size());
  const ClusterScoring scoring = ScoringOf(options);
  ClusterSet clusters(k, scoring);
  Rng rng(options.seed);
  ThreadPool pool(ThreadPool::Resolve(options.num_threads));
  std::vector<DocId> outliers;
  obs::MetricsRegistry* metrics = options.metrics;
  KMeansProfile* profile = options.profile;
  // kmeans.score_gbps needs the phase split even when the caller only asked
  // for metrics — time into a local profile in that case.
  KMeansProfile local_profile;
  if (metrics != nullptr && profile == nullptr) profile = &local_profile;

  // --- Initial process ---
  bool degenerate_restart = false;
  const auto run_initial_process = [&]() -> Status {
    NIDC_SPAN("kmeans.seed");
    ScopedSeconds seed_timer(profile == nullptr ? nullptr
                                                : &profile->seed_seconds);
    const SeedMode mode = seeds ? seeds->mode : SeedMode::kRandom;
    switch (mode) {
      case SeedMode::kRandom: {
        // §4.3: select K documents randomly, form initial K clusters.
        size_t next = 0;
        for (size_t p : rng.SampleWithoutReplacement(docs.size(), k)) {
          clusters.Seed(docs[p], static_cast<int>(next++));
        }
        break;
      }
      case SeedMode::kMembership: {
        if (seeds->memberships.size() > k) {
          return Status::InvalidArgument("membership seed has more clusters "
                                         "than k");
        }
        for (size_t p = 0; p < seeds->memberships.size(); ++p) {
          for (DocId id : seeds->memberships[p]) {
            if (ctx.Contains(id)) clusters.Seed(id, static_cast<int>(p));
          }
        }
        break;
      }
      case SeedMode::kRepresentatives: {
        if (seeds->representatives.size() > k) {
          return Status::InvalidArgument("representative seed has more "
                                         "clusters than k");
        }
        outliers = AssignAgainstFixedRepresentatives(
            docs, seeds->representatives, ctx, scoring, &pool, &clusters);
        break;
      }
    }
    // Degenerate-seed fallback: representative/membership seeds can leave
    // every cluster empty (e.g. the whole previous vocabulary expired). An
    // empty cluster can never attract documents (its avg_sim gain is 0), so
    // restart from random singletons as the initial process prescribes.
    if (clusters.TotalAssigned() == 0) {
      degenerate_restart = true;
      size_t next = 0;
      for (size_t p : rng.SampleWithoutReplacement(docs.size(), k)) {
        clusters.Seed(docs[p], static_cast<int>(next++));
      }
      outliers.clear();
    }
    clusters.RefreshAll(ctx, &pool);
    return Status::OK();
  };
  NIDC_RETURN_NOT_OK(run_initial_process());
  const size_t seeded_assigned = clusters.TotalAssigned();

  // Install stable cluster ids: seeded clusters inherit the previous run's
  // ids (the drift telemetry matches on them); random seeds — and seeded
  // runs that fell back to the random restart — mint fresh ones. From here
  // on, ClusterSet::Assign mints a fresh id whenever a sweep hands an
  // emptied slot to a new topic.
  static const std::vector<uint64_t> kNoSeedIds;
  const std::vector<uint64_t>& seed_ids =
      (seeds && !degenerate_restart) ? seeds->cluster_ids : kNoSeedIds;
  clusters.InstallIds(seed_ids, options.first_cluster_id);
  if (options.events != nullptr) {
    for (size_t p = 0; p < clusters.num_clusters(); ++p) {
      if (clusters.cluster(p).empty()) continue;
      if (p < seed_ids.size() && seed_ids[p] != Cluster::kNoClusterId) {
        continue;  // inherited identity, not a birth
      }
      obs::Event created;
      created.type = obs::EventType::kClusterCreated;
      created.cluster_id = clusters.cluster_id(p);
      options.events->Emit(created);
    }
  }

  // --- Repetition process ---
  std::vector<double> g_history;
  double g_old = clusters.G();
  g_history.push_back(g_old);

  static const std::vector<double> kSweepSecondsBuckets = {
      1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0};
  obs::Histogram* moves_per_sweep =
      metrics == nullptr
          ? nullptr
          : metrics->GetHistogram("kmeans.moves_per_sweep",
                                  {0, 1, 10, 100, 1000, 10000, 100000});
  obs::Histogram* sweep_seconds_hist =
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("kmeans.sweep_seconds",
                                                 kSweepSecondsBuckets);
  obs::Histogram* refresh_seconds_hist =
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("kmeans.refresh_seconds",
                                                 kSweepSecondsBuckets);
  const bool time_phases = metrics != nullptr || profile != nullptr;
  std::vector<DocId> order = docs;
  int iterations = 0;
  bool converged = false;
  size_t total_moves = 0;
  size_t total_reseeds = 0;
  size_t total_quantized_certified = 0;
  size_t total_quantized_fallbacks = 0;
  QuantMargins quant_margins;
  // Slot-indexed provenance capture, overwritten every sweep; the final
  // sweep's contents are the run's settled decisions (flushed below).
  std::vector<ProvCapture> prov_capture;
  SweepSinks sinks;
  sinks.events = options.events;
  // The first sweep moves every document out of "unassigned": one
  // reservation covers its kDocMoved events without regrowth.
  if (sinks.events != nullptr) sinks.staged_events.reserve(docs.size());
  sinks.maintenance_seconds =
      profile == nullptr ? nullptr : &profile->maintenance_seconds;
  if (options.provenance != nullptr) {
    prov_capture.resize(ctx.size());
    sinks.capture = &prov_capture;
  }
  Stopwatch phase_timer;
  while (iterations < options.max_iterations) {
    if (options.shuffle_each_iteration) rng.Shuffle(&order);
    SweepCounters counters;
    {
      NIDC_SPAN("kmeans.sweep");
      if (time_phases) phase_timer.Restart();
      outliers = SweepAssign(order, ctx, options.criterion, &clusters,
                             &counters, &quant_margins, &sinks,
                             static_cast<uint32_t>(iterations + 1));
      if (time_phases) {
        const double seconds = phase_timer.ElapsedSeconds();
        if (sweep_seconds_hist != nullptr) {
          sweep_seconds_hist->Observe(seconds);
        }
        if (profile != nullptr) profile->sweep_seconds += seconds;
      }
    }
    total_moves += counters.moves;
    total_reseeds += counters.reseeds;
    total_quantized_certified += counters.quantized_certified;
    total_quantized_fallbacks += counters.quantized_fallbacks;
    if (moves_per_sweep != nullptr) {
      moves_per_sweep->Observe(static_cast<double>(counters.moves));
    }
    ++iterations;
    // Step 2: recompute cluster representatives (also clears float drift).
    {
      NIDC_SPAN("kmeans.refresh");
      if (time_phases) phase_timer.Restart();
      clusters.RefreshAll(ctx, &pool);
      if (time_phases) {
        const double seconds = phase_timer.ElapsedSeconds();
        if (refresh_seconds_hist != nullptr) {
          refresh_seconds_hist->Observe(seconds);
        }
        if (profile != nullptr) profile->refresh_seconds += seconds;
      }
    }
    // Steps 3–4: G_new and the δ test.
    const double g_new = clusters.G();
    g_history.push_back(g_new);
    if (RelativeGChange(g_old, g_new) < options.delta) {
      converged = true;
      g_old = g_new;
      break;
    }
    g_old = g_new;
  }

  if (metrics != nullptr) {
    metrics->GetCounter("kmeans.runs")->Increment();
    metrics->GetCounter("kmeans.iterations")
        ->Increment(static_cast<uint64_t>(iterations));
    metrics
        ->GetHistogram("kmeans.iterations_per_run",
                       {1, 2, 3, 5, 8, 13, 21, 34, 50})
        ->Observe(static_cast<double>(iterations));
    if (converged) metrics->GetCounter("kmeans.converged")->Increment();
    metrics->GetCounter("kmeans.moves")->Increment(total_moves);
    metrics->GetCounter("kmeans.cluster_reseeds")->Increment(total_reseeds);
    metrics->GetCounter("kmeans.docs_swept")
        ->Increment(static_cast<uint64_t>(order.size()) *
                    static_cast<uint64_t>(iterations));
    metrics->GetCounter("kmeans.seeded_assigned")->Increment(seeded_assigned);
    metrics->GetGauge("kmeans.outliers")
        ->Set(static_cast<double>(outliers.size()));
    metrics->GetCounter("kmeans.outliers_total")->Increment(outliers.size());
    metrics->GetGauge("kmeans.g_initial")->Set(g_history.front());
    metrics->GetGauge("kmeans.g_final")->Set(g_old);
    if (clusters.slotted()) {
      // Counters are cumulative over the FlatRepIndex lifetime (one run) —
      // incrementing by the final values folds them into the registry.
      const FlatRepIndex::Stats& fis = clusters.flat_index().stats();
      metrics->GetCounter("rep_index.moves_applied")
          ->Increment(fis.moves_applied);
      metrics->GetCounter("rep_index.builds")->Increment(fis.builds);
      metrics->GetCounter("rep_index.tombstones")
          ->Increment(fis.tombstones_created);
      metrics->GetCounter("rep_index.tombstones_revived")
          ->Increment(fis.tombstones_revived);
      metrics->GetCounter("rep_index.delta_entries")
          ->Increment(fis.delta_entries_added);
      metrics->GetGauge("rep_index.live_entries")
          ->Set(static_cast<double>(fis.live_entries));
      metrics->GetGauge("rep_index.dead_entries")
          ->Set(static_cast<double>(fis.dead_entries));
      metrics->GetGauge("rep_index.terms")
          ->Set(static_cast<double>(clusters.flat_index().NumLiveTerms()));
    }
  }

  // Scoring-kernel telemetry: fill the profile from the flat index's scan
  // stats and export the kernel.* metric family.
  if (clusters.slotted() && profile != nullptr) {
    const FlatRepIndex::ScanStats& ss = clusters.flat_index().scan_stats();
    profile->kernel = kernels::Active().name;
    profile->score_bytes = ss.bytes_scanned.load(std::memory_order_relaxed);
    profile->entries_scanned =
        ss.entries_scanned.load(std::memory_order_relaxed);
    profile->docs_scored = ss.docs_scored.load(std::memory_order_relaxed);
    profile->quantized_docs =
        ss.quantized_docs.load(std::memory_order_relaxed);
    profile->quantized_fallbacks =
        static_cast<uint64_t>(total_quantized_fallbacks);
    profile->delta_fallbacks =
        ss.delta_fallback_docs.load(std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics
          ->GetGauge(std::string("kernel.dispatch.") + profile->kernel)
          ->Set(1.0);
      metrics->GetCounter("kernel.bytes_scanned")
          ->Increment(profile->score_bytes);
      metrics->GetCounter("kernel.entries_scanned")
          ->Increment(profile->entries_scanned);
      metrics->GetCounter("kernel.docs_scored")
          ->Increment(profile->docs_scored);
      metrics->GetCounter("kernel.quantized_docs")
          ->Increment(profile->quantized_docs);
      metrics->GetCounter("kernel.quantized_certified")
          ->Increment(static_cast<uint64_t>(total_quantized_certified));
      metrics->GetCounter("kernel.quantized_fallbacks")
          ->Increment(profile->quantized_fallbacks);
      metrics->GetCounter("kernel.delta_fallbacks")
          ->Increment(profile->delta_fallbacks);
      metrics->GetGauge("kmeans.score_gbps")->Set(profile->score_gbps());
    }
  }

  // Flush the final sweep's per-slot captures as decision records, one
  // batch under one log lock. Cluster indices resolve to the stable ids
  // the slots carry *now* (end of run) — exactly the ids the result and
  // the event log report.
  if (options.provenance != nullptr) {
    std::vector<obs::DecisionRecord> records;
    records.reserve(docs.size());
    const char* kernel = clusters.slotted() ? kernels::Active().name : "";
    const obs::ProvenancePath path = scoring == ClusterScoring::kMerge
                                         ? obs::ProvenancePath::kMerge
                                         : obs::ProvenancePath::kSlotted;
    for (DocId id : docs) {
      const ProvCapture& pc = prov_capture[ctx.SlotOf(id)];
      obs::DecisionRecord record;
      record.doc = id;
      record.iteration = pc.iteration;
      record.verdict = pc.verdict;
      record.path = path;
      record.quantized = pc.quantized;
      record.kernel = kernel;
      if (pc.best != kUnassigned) {
        record.cluster_id =
            clusters.cluster_id(static_cast<size_t>(pc.best));
      }
      if (pc.runner_up != kUnassigned) {
        record.runner_up_id =
            clusters.cluster_id(static_cast<size_t>(pc.runner_up));
      }
      record.best_gain = pc.best_gain;
      record.runner_up_gain = pc.runner_up_gain;
      record.margin = pc.best_gain - pc.runner_up_gain;
      records.push_back(record);
    }
    options.provenance->RecordBatch(records);
  }

  return ClusteringResult::FromClusterSet(clusters, std::move(outliers),
                                          std::move(g_history), iterations,
                                          converged);
}

}  // namespace nidc
