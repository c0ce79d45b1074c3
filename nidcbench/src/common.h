// Shared plumbing of the three workloads: run options, the result every
// run fills, the metric catalogue (names and units) and corpus/digest
// helpers.

#ifndef NIDCBENCH_COMMON_H_
#define NIDCBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/corpus/corpus.h"
#include "nidc/corpus/corpus_io.h"
#include "spans.h"

namespace nidcbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory of this run (created and removed by main).
  std::string work_dir;
  /// The benchmark's data directory (expected digests).
  std::string data_dir;
  /// This executable, for spawning the load generator.
  std::string self_exe;
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 = a single measured quantity).
  size_t samples = 0;
};

/// What one run measured and checked.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<MetricValue> metrics;
  std::vector<std::string> errors;
  /// Extra report fields, rendered as raw JSON values.
  std::vector<std::pair<std::string, std::string>> details;

  void Fail(const std::string& message);
  void Set(const std::string& name, double value, size_t samples = 0);
  void Detail(const std::string& key, const std::string& raw_json);
};

/// Catalogue entry of one metric (the single source of BENCHMARK.json's
/// names and units; tests/selftest.cc checks the two agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const MetricSpec* FindMetric(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// The paper-scale TDT2-like stream for `seed` (7,578 documents over 178
/// days), sorted by time.
std::vector<nidc::RawDocument> GenerateStream(uint64_t seed);

/// Analyzes raw documents into a corpus (the text layer).
std::unique_ptr<nidc::Corpus> AnalyzeStream(
    const std::vector<nidc::RawDocument>& raw);

/// SerializeState(CaptureState(c)): the bit-identity currency.
std::string StateOf(const nidc::IncrementalClusterer& clusterer);

/// 16-hex FNV-1a of `bytes`, for compact stored expectations.
std::string Fingerprint(const std::string& bytes);

/// Cumulative CPU time of the whole machine from /proc/stat, jiffies.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Host description recorded with every result; `since` is the reading
/// taken when the run started (the share of CPU time the hypervisor stole
/// during the run says how disturbed its timings were).
std::string HostJson(const RunOptions& options, const CpuTimes& since);

/// How often each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepetitions = 5;

/// Repeats `setup` `times` times and returns the median wall seconds.
/// The last repetition's products stay in place for the run.
template <typename Fn>
double MedianSetupSeconds(int times, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double start = Now();
    setup();
    seconds.push_back(Now() - start);
  }
  return Median(seconds);
}

/// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& path);

/// A traced run fails when the layer components along the blocking path
/// leave more than this share of the end-to-end p50 uncovered.
inline constexpr double kBlockingPathTolerancePct = 10.0;

/// Records the blocking-path split of `metric` (obs.blocking_path_gap_pct
/// and details.blocking_path) and fails the run when it does not add up.
void ReportBlockingPath(const std::string& metric,
                        const std::vector<double>& totals,
                        const std::vector<std::map<std::string, double>>&
                            components,
                        RunResult* result);

/// Milliseconds between two Now() readings.
inline double Ms(double from, double to) { return (to - from) * 1e3; }

// Workload entry points.
RunResult RunPaperReplay(const RunOptions& options, SpanRecorder* spans);
RunResult RunIngestOpenLoop(const RunOptions& options, SpanRecorder* spans);
RunResult RunReplicatedStream(const RunOptions& options, SpanRecorder* spans);

/// The load-generator child process (see loadgen.h); returns its exit
/// code.
int LoadGenMain(int argc, char** argv);

}  // namespace nidcbench

#endif  // NIDCBENCH_COMMON_H_
