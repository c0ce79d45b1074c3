// AVX-512 scoring kernels. Compiled with -mavx512f -mpopcnt and reached
// only through the runtime dispatch table (kernels.cc); everything here
// stays inside the AVX512F foundation set (no BW/VL/DQ dependencies).
//
// Exact fp64 kernel, K <= 32: the K score accumulators live in
// ceil(K/8) <= 4 zmm registers and each term is handled without branches.
// The term's sorted cluster ids arrive as one bitmask
// (PostingsView::cluster_masks); byte a of it is the lane mask of
// register a, and vexpandpd loads the term's weights straight into their
// cluster lanes — one masked expand-load per register, so the hot loop
// does no score loads or stores. The home cluster's lane takes the
// detached product (w − v)·v, and its attached product w·v feeds one more
// register lane. Every accumulator sees the same additions in the same
// term order as the scalar kernel, with separate mul + add (no FMA
// contraction), so the result is bit-identical.
//
// Exact fp64 kernel, K > 32 (or a view without cluster masks): 8 postings
// per iteration, masked vgatherdpd / vscatterdpd against the fp64 score
// table. Within one term the posting cluster ids are distinct, so
// gather-add-scatter inside a chunk never collides, and the
// per-accumulator order is again the scalar kernel's.
//
// Quantized kernel: 16 postings per iteration over the fp16 shadow
// weights. For K <= 16 the per-cluster fp32 accumulators live entirely in
// two zmm registers: the sorted distinct ids of a chunk become a bitmask
// (sllv + reduce-or) and vexpandps routes the products into their cluster
// lanes. Larger K falls back to masked fp32 gather/scatter.

#include "nidc/core/kernels/kernels.h"

#if defined(NIDC_HAVE_KERNEL_AVX512)

#include <immintrin.h>

namespace nidc::kernels {

namespace {

inline void PrefetchTermExact(const PostingsView& view, const DocRow& row,
                              size_t i) {
  if (i + 2 < row.size) {
    const size_t off = view.offsets[row.terms[i + 2]];
    _mm_prefetch(reinterpret_cast<const char*>(view.clusters + off),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(view.weights + off),
                 _MM_HINT_T0);
  }
}

// The register-resident exact path reads a term's mask and weights, never
// its cluster ids.
inline void PrefetchTermMasked(const PostingsView& view, const DocRow& row,
                               size_t i) {
  if (i + 2 < row.size) {
    const uint32_t t = row.terms[i + 2];
    _mm_prefetch(reinterpret_cast<const char*>(view.cluster_masks + t),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(view.weights + view.offsets[t]),
                 _MM_HINT_T0);
  }
}

inline void PrefetchTermQuantized(const PostingsView& view, const DocRow& row,
                                  size_t i) {
  if (i + 2 < row.size) {
    const size_t off = view.offsets[row.terms[i + 2]];
    _mm_prefetch(reinterpret_cast<const char*>(view.clusters + off),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(view.qweights + off),
                 _MM_HINT_T0);
  }
}

// Quantized path for K <= 16: all per-cluster accumulators in registers.
uint64_t ScoreQuantizedRegister(const PostingsView& view, const DocRow& row,
                                uint32_t home, float* scores_f32,
                                float* abs_f32, double* home_attached,
                                double* home_detached) {
  const __m512i kOnes = _mm512_set1_epi32(1);
  const __m512i kAbsMask = _mm512_set1_epi32(0x7fffffff);
  const __m512i home_v = _mm512_set1_epi32(static_cast<int>(home));
  __m512 acc_scores = _mm512_setzero_ps();
  __m512 acc_abs = _mm512_setzero_ps();
  double attached = 0.0;
  double detached = 0.0;
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTermQuantized(view, row, i);
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.offsets[t];
    const size_t n = view.offsets[t + 1] - begin;
    if (n == 0) continue;  // K <= 16, so n <= 16: one chunk per term
    entries += n;
    const __mmask16 m =
        static_cast<__mmask16>((uint32_t{1} << n) - 1u);  // n <= 16
    // Padded SoA arrays make the full-width loads safe on the tail.
    const __m512i ids = _mm512_loadu_si512(view.clusters + begin);
    const __m256i halfs = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(view.qweights + begin));
    const __m512 wq = _mm512_cvtph_ps(halfs);
    const __m512 vvf = _mm512_set1_ps(static_cast<float>(v));
    const __m512 prod = _mm512_maskz_mul_ps(m, wq, vvf);
    const __m512 absp = _mm512_castsi512_ps(
        _mm512_and_si512(_mm512_castps_si512(prod), kAbsMask));
    // Sorted distinct ids -> set bits of `cb` in the same order the chunk's
    // products sit in the low lanes, so vexpandps routes product j straight
    // to cluster lane ids[j].
    const __m512i bits = _mm512_maskz_sllv_epi32(m, kOnes, ids);
    const __mmask16 cb =
        static_cast<__mmask16>(_mm512_reduce_or_epi32(bits));
    acc_scores = _mm512_add_ps(acc_scores, _mm512_maskz_expand_ps(cb, prod));
    acc_abs = _mm512_add_ps(acc_abs, _mm512_maskz_expand_ps(cb, absp));
    if (home != kNoHome) {
      const __mmask16 kh = _mm512_mask_cmpeq_epi32_mask(m, ids, home_v);
      if (kh != 0) {
        // Exact fp64 side-channel for the home cluster (<= 1 entry/term).
        const size_t e = begin + static_cast<size_t>(__builtin_ctz(kh));
        const double hw = view.weights[e];
        attached += hw * v;
        detached += (hw - v) * v;
      }
    }
  }
  const __mmask16 out_mask = static_cast<__mmask16>(
      (uint32_t{1} << view.num_clusters) - 1u);  // num_clusters <= 16
  _mm512_mask_storeu_ps(scores_f32, out_mask, acc_scores);
  _mm512_mask_storeu_ps(abs_f32, out_mask, acc_abs);
  *home_attached = attached;
  *home_detached = detached;
  return entries;
}

// Exact path for K <= 8·NA: accumulators in NA zmm registers (lane c of
// register c / 8 holds cluster c).
template <int NA>
uint64_t ScoreExactRegister(const PostingsView& view, const DocRow& row,
                            uint32_t home, double* scores,
                            double* home_attached) {
  static_assert(NA >= 1 && NA <= 4, "K <= 32");
  __m512d acc[NA];
  __mmask8 home_lane[NA];
  for (int a = 0; a < NA; ++a) {
    acc[a] = _mm512_setzero_pd();
    home_lane[a] = home != kNoHome && home / 8 == static_cast<uint32_t>(a)
                       ? static_cast<__mmask8>(1u << (home % 8))
                       : static_cast<__mmask8>(0);
  }
  // Only the home lane of the home register ever accumulates here.
  __m512d attached = _mm512_setzero_pd();
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTermMasked(view, row, i);
    const uint32_t t = row.terms[i];
    const __m512d vv = _mm512_set1_pd(row.values[i]);
    const uint32_t cb = view.cluster_masks[t];
    entries += _mm_popcnt_u32(cb);
    const double* w = view.weights + view.offsets[t];
    for (int a = 0; a < NA; ++a) {
      const __mmask8 ma = static_cast<__mmask8>(cb >> (8 * a));
      // Sorted ids: the weights of register a's clusters are the next
      // popcount(ma) entries, and expand routes each to its cluster lane.
      const __m512d wexp = _mm512_maskz_expandloadu_pd(ma, w);
      w += _mm_popcnt_u32(ma);
      const __m512d prod = _mm512_mul_pd(wexp, vv);
      const __m512d detached = _mm512_mul_pd(_mm512_sub_pd(wexp, vv), vv);
      const __mmask8 mh = static_cast<__mmask8>(ma & home_lane[a]);
      acc[a] = _mm512_mask_add_pd(acc[a], ma, acc[a],
                                  _mm512_mask_mov_pd(prod, mh, detached));
      attached = _mm512_mask_add_pd(attached, mh, attached, prod);
    }
  }
  const size_t k = view.num_clusters;
  for (int a = 0; a < NA; ++a) {
    const size_t base = static_cast<size_t>(8 * a);
    const size_t live = k > base ? k - base : 0;
    _mm512_mask_storeu_pd(
        scores + base,
        static_cast<__mmask8>(live >= 8 ? 0xffu : (1u << live) - 1u), acc[a]);
  }
  alignas(64) double lane[8];
  _mm512_store_pd(lane, attached);
  *home_attached = home == kNoHome ? 0.0 : lane[home % 8];
  return entries;
}

}  // namespace

uint64_t ScoreAvx512(const PostingsView& view, const DocRow& row,
                     uint32_t home, double* scores, double* home_attached) {
  const size_t k = view.num_clusters;
  if (view.cluster_masks != nullptr) {
    if (k <= 8) {
      return ScoreExactRegister<1>(view, row, home, scores, home_attached);
    }
    if (k <= 16) {
      return ScoreExactRegister<2>(view, row, home, scores, home_attached);
    }
    if (k <= 24) {
      return ScoreExactRegister<3>(view, row, home, scores, home_attached);
    }
    if (k <= 32) {
      return ScoreExactRegister<4>(view, row, home, scores, home_attached);
    }
  }
  for (size_t p = 0; p < k; ++p) scores[p] = 0.0;
  double attached = 0.0;
  uint64_t entries = 0;
  const __m512i home64 =
      _mm512_set1_epi64(static_cast<long long>(static_cast<uint64_t>(home)));
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTermExact(view, row, i);
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.offsets[t];
    const size_t end = view.offsets[t + 1];
    entries += end - begin;
    const __m512d vv = _mm512_set1_pd(v);
    for (size_t e = begin; e < end; e += 8) {
      const size_t rem = end - e < 8 ? end - e : 8;
      const __mmask8 m = static_cast<__mmask8>(0xffu >> (8 - rem));
      const __m256i ids = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(view.clusters + e));
      const __m512d w = _mm512_loadu_pd(view.weights + e);
      __m512d prod = _mm512_mul_pd(w, vv);
      if (home != kNoHome) {
        const __m512i ids64 = _mm512_cvtepu32_epi64(ids);
        const __mmask8 kh = _mm512_mask_cmpeq_epi64_mask(m, ids64, home64);
        if (kh != 0) {
          // Detached home lane: same sub-then-mul expression as the scalar
          // kernel, and the attached cross term recomputed in scalar fp64.
          const __m512d prod_home =
              _mm512_mul_pd(_mm512_sub_pd(w, vv), vv);
          prod = _mm512_mask_mov_pd(prod, kh, prod_home);
          const size_t he = e + static_cast<size_t>(__builtin_ctz(kh));
          attached += view.weights[he] * v;
        }
      }
      // Distinct ids within a term: no lane collisions inside the chunk.
      const __m512d old = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m,
                                                   ids, scores, 8);
      _mm512_mask_i32scatter_pd(scores, m, ids, _mm512_add_pd(old, prod), 8);
    }
  }
  *home_attached = attached;
  return entries;
}

uint64_t ScoreQuantizedAvx512(const PostingsView& view, const DocRow& row,
                              uint32_t home, float* scores_f32, float* abs_f32,
                              double* home_attached, double* home_detached) {
  const size_t k = view.num_clusters;
  if (k <= 16) {
    return ScoreQuantizedRegister(view, row, home, scores_f32, abs_f32,
                                  home_attached, home_detached);
  }
  for (size_t p = 0; p < k; ++p) {
    scores_f32[p] = 0.0f;
    abs_f32[p] = 0.0f;
  }
  const __m512i kAbsMask = _mm512_set1_epi32(0x7fffffff);
  const __m512i home_v = _mm512_set1_epi32(static_cast<int>(home));
  double attached = 0.0;
  double detached = 0.0;
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTermQuantized(view, row, i);
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.offsets[t];
    const size_t end = view.offsets[t + 1];
    entries += end - begin;
    const __m512 vvf = _mm512_set1_ps(static_cast<float>(v));
    for (size_t e = begin; e < end; e += 16) {
      const size_t rem = end - e < 16 ? end - e : 16;
      const __mmask16 m = static_cast<__mmask16>(0xffffu >> (16 - rem));
      const __m512i ids = _mm512_loadu_si512(view.clusters + e);
      const __m256i halfs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(view.qweights + e));
      const __m512 wq = _mm512_cvtph_ps(halfs);
      const __m512 prod = _mm512_maskz_mul_ps(m, wq, vvf);
      const __m512 absp = _mm512_castsi512_ps(
          _mm512_and_si512(_mm512_castps_si512(prod), kAbsMask));
      // Distinct ids within a term: gather-add-scatter cannot collide.
      const __m512 olds = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m,
                                                   ids, scores_f32, 4);
      _mm512_mask_i32scatter_ps(scores_f32, m, ids, _mm512_add_ps(olds, prod),
                                4);
      const __m512 olda = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m,
                                                   ids, abs_f32, 4);
      _mm512_mask_i32scatter_ps(abs_f32, m, ids, _mm512_add_ps(olda, absp),
                                4);
      if (home != kNoHome) {
        const __mmask16 kh = _mm512_mask_cmpeq_epi32_mask(m, ids, home_v);
        if (kh != 0) {
          const size_t he = e + static_cast<size_t>(__builtin_ctz(kh));
          const double hw = view.weights[he];
          attached += hw * v;
          detached += (hw - v) * v;
        }
      }
    }
  }
  *home_attached = attached;
  *home_detached = detached;
  return entries;
}

}  // namespace nidc::kernels

#endif  // NIDC_HAVE_KERNEL_AVX512
