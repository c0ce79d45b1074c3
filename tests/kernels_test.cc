// Unit tests for the vectorized scoring kernels: dispatch-table plumbing
// (ParseKind / Available / Select), fp16 shadow conversions, bit-identity
// of every compiled-in exact kernel against the scalar reference on
// odd / aligned / tail posting lengths at every register count of the
// AVX-512 register-resident paths and past them, and the quantization
// error bound the sweep's
// certification relies on — including denormal weights, fp16 overflow, and
// the exact fp64 home side-channel.

#include "nidc/core/kernels/kernels.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

namespace nidc::kernels {
namespace {

// Restores the process-global kernel selection on scope exit.
struct KernelGuard {
  Kind saved = Active().kind;
  ~KernelGuard() { Select(saved); }
};

constexpr Kind kAllKinds[] = {Kind::kScalar, Kind::kAvx2, Kind::kAvx512};

// A self-owned padded SoA posting index plus one document row, with the
// same layout invariants FlatRepIndex maintains: per-term entries sorted by
// ascending distinct cluster id, arrays padded with kPostingPadding zeroed
// slots, fp16 shadow built with HalfFromDouble, per-term cluster masks for
// K <= 32.
struct TestIndex {
  std::vector<size_t> offsets;
  std::vector<uint32_t> clusters;
  std::vector<double> weights;
  std::vector<uint16_t> qweights;
  std::vector<uint32_t> masks;
  std::vector<uint32_t> row_terms;
  std::vector<double> row_values;
  size_t k = 0;

  PostingsView View() const {
    return {offsets.data(),
            clusters.data(),
            weights.data(),
            qweights.data(),
            masks.empty() ? nullptr : masks.data(),
            offsets.size() - 1,
            k};
  }
  DocRow Row() const { return {row_terms.data(), row_values.data(),
                               row_terms.size()}; }
  void Finish() {
    const size_t n = clusters.size();
    if (k <= kMaxMaskedClusters) {
      masks.assign(offsets.size() - 1, 0);
      for (size_t t = 0; t + 1 < offsets.size(); ++t) {
        for (size_t e = offsets[t]; e < offsets[t + 1]; ++e) {
          masks[t] |= uint32_t{1} << clusters[e];
        }
      }
    }
    clusters.resize(n + kPostingPadding, 0);
    weights.resize(n + kPostingPadding, 0.0);
    qweights.assign(weights.size(), 0);
    for (size_t e = 0; e < n; ++e) qweights[e] = HalfFromDouble(weights[e]);
  }
};

// Posting lengths cycle 0..K (zero-length terms included, and full-K
// lists on every (K+1)-th term), so every vector width sees full blocks,
// odd remainders, and empty tails. With `tombstones`, every seventh entry
// has weight exactly 0.0 — the zero-snapped posting a move leaves behind.
// The row touches every term.
TestIndex MakeIndex(size_t k, size_t terms, uint64_t seed,
                    double weight_scale = 0.1, bool tombstones = false) {
  TestIndex idx;
  idx.k = k;
  Rng rng(seed);
  idx.offsets.push_back(0);
  for (size_t t = 0; t < terms; ++t) {
    const size_t len = t % (k + 1);
    std::vector<uint32_t> ids;
    for (size_t p : rng.SampleWithoutReplacement(k, len)) {
      ids.push_back(static_cast<uint32_t>(p));
    }
    std::sort(ids.begin(), ids.end());
    for (uint32_t c : ids) {
      const double w = (rng.NextDouble() - 0.25) * weight_scale;
      idx.weights.push_back(
          tombstones && idx.clusters.size() % 7 == 0 ? 0.0 : w);
      idx.clusters.push_back(c);
    }
    idx.offsets.push_back(idx.clusters.size());
    idx.row_terms.push_back(static_cast<uint32_t>(t));
    idx.row_values.push_back(rng.NextDouble() * 0.2);
  }
  idx.Finish();
  return idx;
}

TEST(KernelsTest, ParseKindRoundTripsAndRejectsUnknown) {
  for (Kind kind : kAllKinds) {
    Kind parsed;
    ASSERT_TRUE(ParseKind(KindName(kind), &parsed)) << KindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  Kind out;
  EXPECT_FALSE(ParseKind("", &out));
  EXPECT_FALSE(ParseKind("sse2", &out));
  EXPECT_FALSE(ParseKind("AVX2", &out));  // case-sensitive, like the env var
  EXPECT_FALSE(ParseKind("avx5121", &out));
}

TEST(KernelsTest, ScalarAlwaysAvailableAndSelectable) {
  KernelGuard guard;
  EXPECT_TRUE(Available(Kind::kScalar));
  Select(Kind::kScalar);
  EXPECT_EQ(Active().kind, Kind::kScalar);
  EXPECT_STREQ(Active().name, "scalar");
  ASSERT_NE(Active().score, nullptr);
  ASSERT_NE(Active().score_quantized, nullptr);
  for (Kind kind : kAllKinds) {
    if (!Available(kind)) continue;
    Select(kind);
    EXPECT_EQ(Active().kind, kind);
    EXPECT_STREQ(Active().name, KindName(kind));
  }
}

TEST(KernelsTest, HalfConversionBasics) {
  EXPECT_EQ(HalfToFloat(HalfFromDouble(0.0)), 0.0f);
  EXPECT_EQ(HalfToFloat(HalfFromDouble(1.0)), 1.0f);
  EXPECT_EQ(HalfToFloat(HalfFromDouble(-2.0)), -2.0f);
  EXPECT_EQ(HalfToFloat(HalfFromDouble(65504.0)), 65504.0f);  // fp16 max
  // Beyond ±65504 the shadow saturates to infinity — the sweep's
  // finiteness checks then force the exact path.
  EXPECT_TRUE(std::isinf(HalfToFloat(HalfFromDouble(65520.0))));
  EXPECT_TRUE(std::isinf(HalfToFloat(HalfFromDouble(1e300))));
  EXPECT_TRUE(std::isinf(HalfToFloat(HalfFromDouble(
      -std::numeric_limits<double>::infinity()))));
}

TEST(KernelsTest, HalfConversionRelativeErrorWithinBound) {
  // Normal fp16 range: round-to-nearest gives relative error ≤ 2^-11 per
  // rounding; the margin budgets 2^-10 to also cover the double→fp16
  // double-rounding. Spot-check across the full normal exponent range.
  Rng rng(99);
  for (int e = -14; e <= 15; ++e) {
    for (int i = 0; i < 32; ++i) {
      const double v = std::ldexp(1.0 + rng.NextDouble(), e);
      if (v > 65504.0) continue;
      const double back = HalfToFloat(HalfFromDouble(v));
      EXPECT_LE(std::fabs(back - v), std::fabs(v) * 0x1p-10) << v;
    }
  }
}

TEST(KernelsTest, HalfConversionDenormalAbsoluteError) {
  // Below 2^-14 fp16 goes subnormal: absolute quantization error is at
  // most half the subnormal quantum 2^-24 — the abs_term side of the
  // sweep's margin. fp64 values below fp16 subnormal resolution flush to
  // (signed) zero.
  for (double v : {0x1p-15, 0x1.8p-16, 0x1p-20, 0x1p-24, 0x1.fp-25}) {
    const double back = HalfToFloat(HalfFromDouble(v));
    EXPECT_LE(std::fabs(back - v), 0x1p-25) << v;
    const double nback = HalfToFloat(HalfFromDouble(-v));
    EXPECT_LE(std::fabs(nback + v), 0x1p-25) << -v;
  }
  EXPECT_EQ(HalfToFloat(HalfFromDouble(0x1p-26)), 0.0f);
  EXPECT_EQ(HalfToFloat(HalfFromDouble(1e-300)), 0.0f);
}

TEST(KernelsTest, ExactKernelsBitIdenticalToScalar) {
  KernelGuard guard;
  // K values straddle every dispatch regime of the AVX-512 exact kernel:
  // one accumulator register (3, 8), two (9, 16), three (17, 24), four
  // (32), and the gather/scatter path past 32. Each list of length K puts
  // a posting in the top lane, so home == K − 1 exercises the detached
  // product there; tombstones add zero-weight entries. A view without
  // cluster masks must fall back to gather/scatter at any K.
  for (size_t k : {3u, 8u, 9u, 16u, 17u, 24u, 32u, 33u}) {
    TestIndex idx = MakeIndex(k, /*terms=*/97, /*seed=*/1000 + k,
                              /*weight_scale=*/0.1, /*tombstones=*/true);
    PostingsView unmasked = idx.View();
    unmasked.cluster_masks = nullptr;
    const PostingsView view = idx.View();
    const DocRow row = idx.Row();
    // Home absent (kNoHome) and every possible home cluster id.
    std::vector<uint32_t> homes = {kNoHome};
    for (size_t p = 0; p < k; ++p) homes.push_back(static_cast<uint32_t>(p));
    for (uint32_t home : homes) {
      Select(Kind::kScalar);
      std::vector<double> ref_scores(k);
      double ref_attached = 0.0;
      const uint64_t ref_entries =
          Active().score(view, row, home, ref_scores.data(), &ref_attached);
      for (Kind kind : {Kind::kAvx2, Kind::kAvx512}) {
        if (!Available(kind)) continue;
        SCOPED_TRACE(std::string(KindName(kind)) + " k=" +
                     std::to_string(k) + " home=" + std::to_string(home));
        Select(kind);
        for (const PostingsView& v : {view, unmasked}) {
          std::vector<double> scores(k, 123.0);  // kernel must zero these
          double attached = 123.0;
          const uint64_t entries =
              Active().score(v, row, home, scores.data(), &attached);
          EXPECT_EQ(entries, ref_entries);
          EXPECT_EQ(attached, ref_attached);
          for (size_t p = 0; p < k; ++p) {
            EXPECT_EQ(scores[p], ref_scores[p]) << "cluster " << p;
          }
        }
      }
    }
  }
}

// The sweep's margin coefficients for a row (see extended_kmeans.cc).
void MarginOf(const DocRow& row, double* rel, double* abs_term) {
  double vmax = 0.0;
  for (size_t i = 0; i < row.size; ++i) {
    vmax = std::max(vmax, std::fabs(row.values[i]));
  }
  const double r = static_cast<double>(row.size);
  const double gamma_n = (r + 4.0) * 0x1p-24;
  ASSERT_LT(gamma_n, 0.5);
  *rel = 4.0 * (0x1p-10 + gamma_n / (1.0 - gamma_n));
  *abs_term = 4.0 * r * (0x1p-25 * vmax + 1e-40);
}

TEST(KernelsTest, QuantizedScoresWithinCertifiedMargin) {
  KernelGuard guard;
  for (size_t k : {5u, 16u, 33u}) {
    // Mixed magnitudes: normal-range weights and fp16-subnormal ones.
    for (double scale : {0.5, 1e-5}) {
      TestIndex idx = MakeIndex(k, /*terms=*/64, /*seed=*/7 + k, scale);
      const PostingsView view = idx.View();
      const DocRow row = idx.Row();
      Select(Kind::kScalar);
      std::vector<double> exact(k);
      double exact_attached = 0.0;
      Active().score(view, row, kNoHome, exact.data(), &exact_attached);
      double rel = 0.0;
      double abs_term = 0.0;
      MarginOf(row, &rel, &abs_term);
      for (Kind kind : kAllKinds) {
        if (!Available(kind)) continue;
        SCOPED_TRACE(std::string(KindName(kind)) + " k=" +
                     std::to_string(k) + " scale=" + std::to_string(scale));
        Select(kind);
        std::vector<float> q(k, -1.0f);
        std::vector<float> qa(k, -1.0f);
        double ha = 0.0;
        double hd = 0.0;
        Active().score_quantized(view, row, kNoHome, q.data(), qa.data(),
                                 &ha, &hd);
        for (size_t p = 0; p < k; ++p) {
          const double bound =
              rel * static_cast<double>(qa[p]) + abs_term;
          EXPECT_LE(std::fabs(static_cast<double>(q[p]) - exact[p]), bound)
              << "cluster " << p;
          EXPECT_GE(qa[p], 0.0f);
        }
      }
    }
  }
}

TEST(KernelsTest, QuantizedHomeSideChannelBitIdenticalToExact) {
  KernelGuard guard;
  for (size_t k : {4u, 16u, 21u}) {
    TestIndex idx = MakeIndex(k, /*terms=*/80, /*seed=*/300 + k);
    const PostingsView view = idx.View();
    const DocRow row = idx.Row();
    for (uint32_t home = 0; home < k; ++home) {
      Select(Kind::kScalar);
      std::vector<double> exact(k);
      double exact_attached = 0.0;
      Active().score(view, row, home, exact.data(), &exact_attached);
      for (Kind kind : kAllKinds) {
        if (!Available(kind)) continue;
        SCOPED_TRACE(std::string(KindName(kind)) + " k=" +
                     std::to_string(k) + " home=" + std::to_string(home));
        Select(kind);
        std::vector<float> q(k);
        std::vector<float> qa(k);
        double ha = 123.0;
        double hd = 123.0;
        Active().score_quantized(view, row, home, q.data(), qa.data(), &ha,
                                 &hd);
        // The home cluster's cross terms ride an exact fp64 side-channel
        // in term-major order — bit-identical to the exact kernel's home
        // lane, regardless of the surrounding fp32 arithmetic.
        EXPECT_EQ(ha, exact_attached);
        EXPECT_EQ(hd, exact[home]);
      }
    }
  }
}

TEST(KernelsTest, Fp16OverflowPoisonsAbsSumsSoTheSweepMustRecheck) {
  KernelGuard guard;
  // One weight beyond fp16 max: its shadow is +inf, so the quantized score
  // and absolute sum of that cluster become non-finite — the sweep's
  // finiteness checks then refuse to certify and re-score exactly.
  TestIndex idx;
  idx.k = 3;
  idx.offsets = {0, 2};
  idx.clusters = {0, 2};
  idx.weights = {1.0, 1e6};
  idx.row_terms = {0};
  idx.row_values = {0.5};
  idx.Finish();
  for (Kind kind : kAllKinds) {
    if (!Available(kind)) continue;
    SCOPED_TRACE(KindName(kind));
    Select(kind);
    std::vector<float> q(idx.k);
    std::vector<float> qa(idx.k);
    double ha = 0.0;
    double hd = 0.0;
    Active().score_quantized(idx.View(), idx.Row(), kNoHome, q.data(),
                             qa.data(), &ha, &hd);
    EXPECT_FALSE(std::isfinite(qa[2]));
    EXPECT_TRUE(std::isfinite(q[0]));
    EXPECT_NEAR(q[0], 0.5f, 0.5f * 0x1p-10);
  }
}

TEST(KernelsTest, EmptyRowAndEmptyPostingsScoreZero) {
  KernelGuard guard;
  TestIndex idx;
  idx.k = 4;
  idx.offsets = {0, 0, 0};  // two terms, both with empty postings
  idx.row_terms = {0, 1};
  idx.row_values = {0.25, 0.75};
  idx.Finish();
  for (Kind kind : kAllKinds) {
    if (!Available(kind)) continue;
    SCOPED_TRACE(KindName(kind));
    Select(kind);
    std::vector<double> scores(idx.k, 7.0);
    double attached = 7.0;
    EXPECT_EQ(Active().score(idx.View(), idx.Row(), kNoHome, scores.data(),
                             &attached),
              0u);
    for (double s : scores) EXPECT_EQ(s, 0.0);
    EXPECT_EQ(attached, 0.0);
    const DocRow empty{nullptr, nullptr, 0};
    EXPECT_EQ(Active().score(idx.View(), empty, 1, scores.data(),
                             &attached),
              0u);
    for (double s : scores) EXPECT_EQ(s, 0.0);
  }
}

}  // namespace
}  // namespace nidc::kernels
