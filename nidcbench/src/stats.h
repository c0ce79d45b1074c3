// The benchmark's own statistics: percentiles with the sample-support
// rule, quartiles, span self time, the open-loop schedule and the backlog
// detector. tests/selftest.cc checks every function here.

#ifndef NIDCBENCH_STATS_H_
#define NIDCBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nidcbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples (q in (0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Samples ranked strictly beyond the nearest-rank percentile q.
size_t SamplesBeyond(size_t n, double q);

/// True when the percentile q of n samples has at least
/// kMinSamplesBeyond samples beyond it.
bool SupportsPercentile(size_t n, double q);

double Median(std::vector<double> samples);

/// Quartiles exactly as Python's statistics.quantiles(data, n=4) gives
/// them (the default "exclusive" method). Needs at least two samples;
/// a single sample yields {x, x, x}.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2, the spread the benchmark is judged by (0 when q2 is
  /// 0).
  double SpreadShare() const;
};
Quartiles ComputeQuartiles(std::vector<double> samples);

/// One recorded interval. `parent` is the index of the causing span in
/// the same vector, or -1 for a root.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  double Duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child's
/// part outside the parent does not count).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Layer components of the samples around a median. The samples ranked
/// between the 40th and 60th percentile by `totals` are averaged, their
/// totals and each component on its own; `gap_pct` is the share of the
/// band's mean total that the averaged components leave uncovered. When
/// each sample's components are independently timed parts of it, the gap
/// is the untimed remainder; when they are consecutive intervals of the
/// total, it is 0 by construction.
struct MedianPathSplit {
  double p50 = 0.0;
  double band_total = 0.0;
  std::map<std::string, double> components;
  double covered = 0.0;
  double gap_pct = 0.0;
};
MedianPathSplit SplitMedianPath(
    const std::vector<double>& totals,
    const std::vector<std::map<std::string, double>>& components);

/// Open-loop send schedule: request k is due at
/// (docs of requests 0..k-1) / docs_per_second seconds after the start,
/// so the offered load is exactly docs_per_second whatever the batch
/// sizes.
std::vector<double> MakeSchedule(const std::vector<size_t>& docs_per_request,
                                 double docs_per_second);

/// Least-squares slope of y over x (0 with fewer than two distinct x).
double Slope(const std::vector<double>& x, const std::vector<double>& y);

/// Inputs of the backlog detector for one rung.
struct BacklogInput {
  /// Scheduled send offsets (s) and the matching apply latencies (ms) of
  /// the requests that closed a window.
  std::vector<double> sched_s;
  std::vector<double> apply_ms;
  /// Scheduled send offsets (s) and generator lateness (ms) of every
  /// request.
  std::vector<double> send_sched_s;
  std::vector<double> late_ms;
  /// Polled (offset s, total queued batches) samples.
  std::vector<double> depth_t_s;
  std::vector<double> depth;
  /// Scheduled length of the rung, seconds.
  double duration_s = 0.0;
};

struct BacklogVerdict {
  bool growing = false;
  /// Latency the backlog added over the rung: slope x duration, ms.
  double apply_growth_ms = 0.0;
  double late_growth_ms = 0.0;
  /// Queue depth added over the rung: slope x duration, batches.
  double depth_growth = 0.0;
  std::string reason;
};

/// True when latency, lateness or queue depth climbs over the rung by
/// more than a fixed allowance (the thresholds are in stats.cc).
BacklogVerdict DetectBacklog(const BacklogInput& input);

}  // namespace nidcbench

#endif  // NIDCBENCH_STATS_H_
