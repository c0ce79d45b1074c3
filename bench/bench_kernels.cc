// Raw scoring-kernel microbenchmark: times ScoreFn / ScoreQuantizedFn of
// every compiled-in kernel on synthetic posting arenas, free of sweep
// machinery (no gains, no maintenance, no clustering) — the number this
// isolates is the document-at-a-time posting-scan itself.
//
// GB/s methodology (shared with bench_sweep_hotpath and the
// kmeans.score_gbps gauge): bytes = entries · entry_bytes + row_terms ·
// 12, where entry_bytes is 12 for the exact scan (4-byte cluster id +
// 8-byte fp64 weight) and 6 for the quantized scan (4 + 2-byte fp16), and
// each row term costs a 4-byte local id plus an 8-byte value. Achieved
// GB/s = bytes / seconds; the scan is sequential within a term's posting
// block, so this approximates streamed memory traffic.
//
// Env knobs:
//   NIDC_KBENCH_K        clusters (default 16 — exercises the AVX-512
//                        register-resident paths, exact up to K = 32 and
//                        quantized up to K = 16; larger K takes the
//                        gather/scatter paths)
//   NIDC_KBENCH_TERMS    vocabulary size (default 4096)
//   NIDC_KBENCH_ROW      terms per document row (default 64)
//   NIDC_KBENCH_DOCS     documents per repetition (default 2048)
//   NIDC_KBENCH_REPS     repetitions, min taken (default 7)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "nidc/core/kernels/kernels.h"
#include "nidc/util/random.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/table_printer.h"

namespace nidc::bench {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0'
             ? static_cast<size_t>(std::strtoull(v, nullptr, 10))
             : fallback;
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// Synthetic CSR arena with the posting shape of a real sweep: every term
/// holds a sorted run of distinct cluster ids with fp64 weights and the
/// fp16 shadow, padded per kernels::kPostingPadding. Posting lengths cycle
/// 1..K so vector remainder lanes are exercised on every scan.
struct Arena {
  std::vector<size_t> offsets;
  std::vector<uint32_t> clusters;
  std::vector<double> weights;
  std::vector<uint16_t> qweights;
  std::vector<uint32_t> masks;  // per-term cluster bitmask (K <= 32)
  std::vector<uint32_t> row_terms;
  std::vector<double> row_values;
  std::vector<size_t> row_offsets;
  size_t k = 0;

  kernels::PostingsView View() const {
    return {offsets.data(),
            clusters.data(),
            weights.data(),
            qweights.data(),
            masks.empty() ? nullptr : masks.data(),
            offsets.size() - 1,
            k};
  }
  kernels::DocRow Row(size_t d) const {
    const size_t begin = row_offsets[d];
    return {row_terms.data() + begin, row_values.data() + begin,
            row_offsets[d + 1] - begin};
  }
  size_t num_docs() const { return row_offsets.size() - 1; }
};

Arena BuildArena(size_t k, size_t terms, size_t row, size_t docs) {
  Arena a;
  a.k = k;
  Rng rng(1234);
  a.offsets.push_back(0);
  for (size_t t = 0; t < terms; ++t) {
    const size_t len = 1 + t % k;  // odd/tail posting lengths, 1..K
    // A sorted sample of `len` distinct cluster ids.
    std::vector<uint32_t> ids;
    for (size_t p : rng.SampleWithoutReplacement(k, len)) {
      ids.push_back(static_cast<uint32_t>(p));
    }
    std::sort(ids.begin(), ids.end());
    uint32_t mask = 0;
    for (uint32_t c : ids) {
      a.clusters.push_back(c);
      a.weights.push_back(rng.NextDouble() * 0.1);
      if (k <= kernels::kMaxMaskedClusters) mask |= uint32_t{1} << c;
    }
    a.offsets.push_back(a.clusters.size());
    if (k <= kernels::kMaxMaskedClusters) a.masks.push_back(mask);
  }
  const size_t n = a.clusters.size();
  a.clusters.resize(n + kernels::kPostingPadding, 0);
  a.weights.resize(n + kernels::kPostingPadding, 0.0);
  a.qweights.resize(n + kernels::kPostingPadding, 0);
  for (size_t e = 0; e < n; ++e) {
    a.qweights[e] = kernels::HalfFromDouble(a.weights[e]);
  }
  a.row_offsets.push_back(0);
  for (size_t d = 0; d < docs; ++d) {
    std::vector<uint32_t> ts;
    for (size_t t : rng.SampleWithoutReplacement(terms, row)) {
      ts.push_back(static_cast<uint32_t>(t));
    }
    std::sort(ts.begin(), ts.end());
    for (uint32_t t : ts) {
      a.row_terms.push_back(t);
      a.row_values.push_back(rng.NextDouble() * 0.1);
    }
    a.row_offsets.push_back(a.row_terms.size());
  }
  return a;
}

struct Measure {
  double seconds = 0.0;
  uint64_t entries = 0;
  double checksum = 0.0;  // defeats dead-code elimination
};

template <typename Fn>
Measure MinOfReps(size_t reps, uint64_t* entries_out, Fn body) {
  Measure best;
  best.seconds = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    Measure m = body();
    m.seconds = timer.ElapsedSeconds();
    if (m.seconds < best.seconds) best = m;
  }
  if (entries_out != nullptr) *entries_out = best.entries;
  return best;
}

int Main() {
  const size_t k = EnvSize("NIDC_KBENCH_K", 16);
  const size_t terms = EnvSize("NIDC_KBENCH_TERMS", 4096);
  const size_t row = EnvSize("NIDC_KBENCH_ROW", 64);
  const size_t docs = EnvSize("NIDC_KBENCH_DOCS", 2048);
  const size_t reps = EnvSize("NIDC_KBENCH_REPS", 7);

  Arena arena = BuildArena(k, terms, row, docs);
  const kernels::PostingsView view = arena.View();
  std::printf("kernel microbench: K=%zu terms=%zu row=%zu docs=%zu "
              "(min of %zu reps)\n\n",
              k, terms, row, docs, reps);

  std::vector<double> scores(k);
  std::vector<float> scores_f32(k);
  std::vector<float> abs_f32(k);

  TablePrinter table({"kernel", "variant", "ns/doc", "GB/s", "checksum"});
  const kernels::Kind kinds[] = {kernels::Kind::kScalar,
                                 kernels::Kind::kAvx2,
                                 kernels::Kind::kAvx512};
  for (kernels::Kind kind : kinds) {
    if (!kernels::Available(kind)) {
      table.AddRow({kernels::KindName(kind), "-", "-", "-", "unavailable"});
      continue;
    }
    kernels::Select(kind);
    const kernels::ScoreKernel& kern = kernels::Active();

    uint64_t entries = 0;
    const Measure exact = MinOfReps(reps, &entries, [&]() {
      Measure m;
      for (size_t d = 0; d < arena.num_docs(); ++d) {
        const kernels::DocRow r = arena.Row(d);
        double attached = 0.0;
        // Every doc scans "detached" against home cluster d % k — the
        // sweep's common case.
        m.entries += kern.score(view, r, static_cast<uint32_t>(d % k),
                                scores.data(), &attached);
        m.checksum += scores[d % k] + attached;
      }
      return m;
    });
    const double exact_bytes =
        static_cast<double>(entries) * 12.0 +
        static_cast<double>(arena.row_terms.size()) * 12.0;
    table.AddRow({kern.name, "exact",
                  Fmt(exact.seconds / static_cast<double>(docs) * 1e9, 1),
                  Fmt(exact_bytes / exact.seconds / 1e9, 2),
                  Fmt(exact.checksum, 6)});

    const Measure quant = MinOfReps(reps, &entries, [&]() {
      Measure m;
      for (size_t d = 0; d < arena.num_docs(); ++d) {
        const kernels::DocRow r = arena.Row(d);
        double attached = 0.0;
        double detached = 0.0;
        m.entries +=
            kern.score_quantized(view, r, static_cast<uint32_t>(d % k),
                                 scores_f32.data(), abs_f32.data(),
                                 &attached, &detached);
        m.checksum += static_cast<double>(scores_f32[d % k]) + attached;
      }
      return m;
    });
    const double quant_bytes =
        static_cast<double>(entries) * 6.0 +
        static_cast<double>(arena.row_terms.size()) * 12.0;
    table.AddRow({kern.name, "quantized",
                  Fmt(quant.seconds / static_cast<double>(docs) * 1e9, 1),
                  Fmt(quant_bytes / quant.seconds / 1e9, 2),
                  Fmt(quant.checksum, 6)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace nidc::bench

int main() { return nidc::bench::Main(); }
