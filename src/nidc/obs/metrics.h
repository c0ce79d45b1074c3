// Pipeline metrics: a thread-safe registry of named counters, gauges and
// fixed-bucket histograms, cheap enough to update from the clustering hot
// path.
//
// Design constraints, in order:
//   * hot-path cost — Increment/Set/Observe touch one (or two) relaxed
//     atomics and take no lock; instrument handles are resolved once via
//     the registry (which does lock) and then used lock-free forever;
//   * stability — instruments live in deques owned by the registry, so a
//     handle obtained from Get* stays valid for the registry's lifetime
//     regardless of later registrations;
//   * optionality — every instrumented call site takes a `MetricsRegistry*`
//     that may be null, in which case it must skip instrumentation
//     entirely (the "no registry = zero overhead" contract the bench
//     guard in bench_sweep_hotpath enforces).
//
// Snapshot() flattens the registry into name-sorted MetricSample records,
// the common input of every exporter (see exporters.h).

#ifndef NIDC_OBS_METRICS_H_
#define NIDC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace nidc::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins floating-point metric (also supports atomic Add).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Opaque 128-bit id attached to a histogram observation (in practice a
/// request trace id, so a latency bucket points at a concrete trace).
struct Exemplar {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return hi != 0 || lo != 0; }
};

/// Fixed-bucket histogram with Prometheus `le` semantics: an observation
/// lands in the first bucket whose upper bound is >= the value (upper
/// bounds are inclusive); values above every bound land in the implicit
/// +Inf overflow bucket.
///
/// The total count is the sum of the buckets, so every reader derives
/// count, cumulative buckets and quantiles from one pass over them and
/// never sees a bucket exceed the count it reports.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);
  /// Observe() that also makes `exemplar` its bucket's exemplar (the last
  /// one observed there wins).
  void Observe(double value, const Exemplar& exemplar);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts read in one pass, one per bound
  /// plus the +Inf overflow last.
  std::vector<uint64_t> BucketCounts() const;
  /// Cumulative count of observations <= upper_bounds()[i].
  uint64_t CumulativeCount(size_t i) const;
  uint64_t TotalCount() const { return CumulativeCount(counts_.size() - 1); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Linear-interpolated quantile estimate from the bucket counts (0 when
  /// empty; the last bound when `q` lands in the overflow bucket).
  double Quantile(double q) const;
  /// Exemplar of the slowest occupied bucket at or above quantile `q`'s
  /// bucket (falling back to faster ones); invalid when none was
  /// recorded. An exemplar read while another thread writes the same
  /// bucket may pair halves of two ids: callers that need a coherent id
  /// serialize both sides.
  Exemplar ExemplarAt(double q) const;

 private:
  size_t BucketOf(double value) const;

  std::vector<double> upper_bounds_;
  // counts_[i] is the number of observations in bucket i (non-cumulative);
  // counts_ has upper_bounds_.size() + 1 slots, the last being +Inf.
  std::deque<std::atomic<uint64_t>> counts_;
  // Bucket i's exemplar as halves 2i (hi) and 2i + 1 (lo), 0/0 = none;
  // written only by Observe(value, exemplar).
  std::deque<std::atomic<uint64_t>> exemplars_;
  std::atomic<double> sum_{0.0};
};

/// Flattened view of one instrument, the exporters' common currency.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;

  /// Counter/gauge value (histograms: unused).
  double value = 0.0;

  /// Histogram payload: (upper bound, cumulative count) per bucket, with
  /// the final +Inf bucket's count equal to `count`.
  std::vector<std::pair<double, uint64_t>> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};

/// Named instrument registry. Get* registers on first use and returns a
/// pointer that stays valid for the registry's lifetime; calling Get* with
/// a name already registered as a different kind is fatal.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `upper_bounds` is used on first registration only; later calls with
  /// the same name return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  /// Name-sorted flattening of every registered instrument.
  std::vector<MetricSample> Snapshot() const;

  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    size_t index;  // into the deque of its kind
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> slots_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_METRICS_H_
