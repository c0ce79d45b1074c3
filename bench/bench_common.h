// Shared plumbing for the table/figure benchmark harnesses: corpus
// construction, the paper's parameter sets, and window-clustering helpers.

#ifndef NIDC_BENCH_BENCH_COMMON_H_
#define NIDC_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/corpus/stream.h"
#include "nidc/eval/f1_measures.h"
#include "nidc/eval/report.h"
#include "nidc/synth/tdt2_like_generator.h"
#include "nidc/util/csv_writer.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/string_util.h"
#include "nidc/util/table_printer.h"

namespace nidc::bench {

/// Reads a double from the environment (lets users re-run benches at other
/// scales without recompiling), falling back to `fallback`.
inline double EnvScale(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : fallback;
}

/// Median of an odd-sized sample: its single middle element. The benches'
/// perf gates read the median of per-round paired ratios through it.
inline double Median(std::vector<double> values) {
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

/// One generated corpus + its generator, built once per bench process.
struct BenchCorpus {
  std::unique_ptr<Tdt2LikeGenerator> generator;
  std::unique_ptr<Corpus> corpus;

  TopicNamer Namer() const {
    const Tdt2LikeGenerator* gen = generator.get();
    return [gen](TopicId id) { return gen->TopicName(id); };
  }
};

/// Generates the TDT2-like corpus at `scale` (1.0 = the paper-scale 7,578
/// documents). Exits the process on failure: benches have no one to report
/// errors to.
inline BenchCorpus MakeCorpus(double scale = 1.0, uint64_t seed = 19980104) {
  GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  BenchCorpus out;
  out.generator = std::make_unique<Tdt2LikeGenerator>(opts);
  auto corpus = out.generator->Generate();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  out.corpus = std::move(corpus).value();
  return out;
}

/// The paper's Experiment-2 parameters (§6.2.2): K = 24, life span 30 days.
inline ExtendedKMeansOptions Experiment2KMeans(uint64_t seed = 7) {
  ExtendedKMeansOptions opts;
  opts.k = 24;
  opts.seed = seed;
  return opts;
}

/// Non-incremental clustering of one window at half-life `beta`, per the
/// Experiment-2 setup. Exits on error.
inline StepResult ClusterWindow(const BenchCorpus& bc, const TimeWindow& w,
                                double beta,
                                ExtendedKMeansOptions kmeans) {
  ForgettingParams params;
  params.half_life_days = beta;
  params.life_span_days = 30.0;
  BatchClusterer clusterer(bc.corpus.get(), params, kmeans);
  auto result =
      clusterer.Run(bc.corpus->DocsInRange(w.begin, w.end), w.end);
  if (!result.ok()) {
    std::fprintf(stderr, "clustering %s failed: %s\n", w.label.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Marks + scores one window clustering against ground truth.
inline GlobalF1 Evaluate(const BenchCorpus& bc, const TimeWindow& w,
                         const StepResult& step) {
  const auto docs = bc.corpus->DocsInRange(w.begin, w.end);
  return ComputeGlobalF1(
      MarkClusters(*bc.corpus, step.clustering.clusters, docs, {}));
}

/// Writes `csv` to $NIDC_CSV_DIR/<name>.csv when the variable is set, so
/// the figures can be re-plotted externally; silently skips otherwise.
inline void MaybeWriteCsv(const char* name, const CsvWriter& csv) {
  const char* dir = std::getenv("NIDC_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  const Status status = csv.WriteFile(path);
  if (status.ok()) {
    std::printf("(series written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv write failed: %s\n",
                 status.ToString().c_str());
  }
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Substrate: synthetic TDT2-like corpus (see DESIGN.md) — match\n");
  std::printf("the *shape* of the paper's numbers, not their absolute values.\n");
  std::printf("==============================================================\n\n");
}

}  // namespace nidc::bench

#endif  // NIDC_BENCH_BENCH_COMMON_H_
