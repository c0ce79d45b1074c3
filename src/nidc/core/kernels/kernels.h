// Vectorized scoring kernels for the slotted (CSR) sweep hot path.
//
// The extended K-means inner loop is a document-at-a-time posting scan:
// for every term of a document's ψ row, walk that term's (cluster, weight)
// posting list and accumulate scores[cluster] += weight · value — plus,
// for the document's home cluster, the detached variant
// (weight − value) · value and the attached cross term weight · value
// (see FlatRepIndex::ScoreAllDetached). This file isolates exactly that
// loop behind a runtime-dispatched function-pointer table with three
// implementations:
//
//   scalar   portable reference — bit-for-bit the historical loop
//   avx2     256-bit lanes + F16C fp16 loads, software-prefetched rows
//   avx512   512-bit masked lanes; the score accumulators live entirely
//            in registers (mask-expand instead of gather/scatter) for
//            K <= 32 on the exact path and K <= 16 on the quantized one
//
// The active kernel is chosen at startup from CPUID (best available) and
// can be overridden with NIDC_KERNEL=scalar|avx2|avx512 for testing, or
// programmatically via Select(). Every kernel produces *bit-identical*
// exact scores: within one term the posting clusters are distinct, so
// reordering the per-term lane arithmetic never reorders any single
// accumulator's addition sequence, and products are kept as separate
// mul + add (never FMA-contracted).
//
// The quantized pass scores in fp32 arithmetic over an fp16 shadow copy of
// the posting weights (6 bytes touched per entry instead of 12) and
// additionally accumulates per-cluster absolute sums, from which the sweep
// derives a rigorous error margin; candidates inside the margin are
// re-checked exactly (see extended_kmeans.cc), so clustering decisions
// stay bit-identical to the exact path.

#ifndef NIDC_CORE_KERNELS_KERNELS_H_
#define NIDC_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace nidc::kernels {

/// Kernel implementations, in increasing ISA order.
enum class Kind { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Loads beyond a posting list's logical end must stay in-bounds: the
/// SIMD kernels read full vectors and mask in-register, so the SoA arrays
/// they scan carry this many zeroed slots of padding after the last entry.
inline constexpr size_t kPostingPadding = 16;

/// Largest K for which a view carries per-term cluster masks.
inline constexpr size_t kMaxMaskedClusters = 32;

/// Read-only SoA view of a flat CSR posting index (see FlatRepIndex).
/// Posting entries of one term are sorted by ascending cluster id; the
/// clusters / weights / qweights arrays are padded with kPostingPadding
/// zeroed slots past offsets[num_terms]. With num_clusters <=
/// kMaxMaskedClusters, cluster_masks[t] may give the term's sorted ids as
/// one word (bit c set iff term t has a posting of cluster c); the AVX-512
/// exact kernel routes weights into registers by it, and takes its
/// gather/scatter path without it.
struct PostingsView {
  const size_t* offsets = nullptr;     // num_terms + 1 entries
  const uint32_t* clusters = nullptr;  // entry cluster ids
  const double* weights = nullptr;     // exact fp64 weights
  const uint16_t* qweights = nullptr;  // fp16 shadow (null: quantization off)
  const uint32_t* cluster_masks = nullptr;  // num_terms entries (K <= 32)
  size_t num_terms = 0;
  size_t num_clusters = 0;
};

/// One document's ψ as local-term/value arrays (SimilarityContext::Row).
struct DocRow {
  const uint32_t* terms = nullptr;
  const double* values = nullptr;
  size_t size = 0;
};

/// `home` value meaning "score every cluster attached" (document has no
/// home cluster). Never collides with a real cluster id.
inline constexpr uint32_t kNoHome = UINT32_MAX;

/// Exact fp64 document-at-a-time scan. `scores` (size num_clusters) is
/// zeroed by the kernel, then accumulates scores[c] += w·v in term-major
/// order; entries of cluster `home` instead accumulate (w−v)·v into
/// scores[home] and w·v into *home_attached (zeroed by the kernel) — the
/// detachment identity of the move-only sweep. Returns posting entries
/// touched (for bytes accounting).
using ScoreFn = uint64_t (*)(const PostingsView& view, const DocRow& row,
                             uint32_t home, double* scores,
                             double* home_attached);

/// Quantized scan: fp32 products of fp16 posting weights and fp32-converted
/// row values. scores_f32[c] accumulates the products, abs_f32[c] their
/// absolute values (both size num_clusters, zeroed by the kernel). Entries
/// of cluster `home` additionally take the *exact* fp64 side-channel:
/// *home_attached += w·v and *home_detached += (w−v)·v, bit-identical to
/// the exact kernel's home lane. Requires view.qweights != null. Returns
/// posting entries touched.
using ScoreQuantizedFn = uint64_t (*)(const PostingsView& view,
                                      const DocRow& row, uint32_t home,
                                      float* scores_f32, float* abs_f32,
                                      double* home_attached,
                                      double* home_detached);

/// One dispatch-table row.
struct ScoreKernel {
  const char* name = "scalar";
  Kind kind = Kind::kScalar;
  ScoreFn score = nullptr;
  ScoreQuantizedFn score_quantized = nullptr;
};

/// The active kernel. First call resolves NIDC_KERNEL (scalar|avx2|avx512;
/// fatal when the requested ISA is not supported by the running CPU), or
/// picks the best supported implementation when the variable is unset.
const ScoreKernel& Active();

/// True when `kind` can run on this CPU (scalar always can). A kernel
/// compiled out of the binary (toolchain without the ISA) is unavailable.
bool Available(Kind kind);

/// Overrides the active kernel (test hook; fatal if unavailable).
void Select(Kind kind);

const char* KindName(Kind kind);

/// Parses "scalar" / "avx2" / "avx512"; returns false on anything else.
bool ParseKind(const char* name, Kind* out);

/// IEEE binary16 conversions (software, round-to-nearest-even; values
/// beyond ±65504 become ±inf, which the sweep's margin logic turns into a
/// guaranteed exact re-check). Used to build and maintain the fp16 shadow
/// weights; kernels may decode with hardware F16C instead — decoding
/// differences are covered by the quantization error margin, never by
/// bit-agreement between kernels.
uint16_t HalfFromDouble(double value);
float HalfToFloat(uint16_t half);

}  // namespace nidc::kernels

#endif  // NIDC_CORE_KERNELS_KERNELS_H_
