#include "nidc/obs/metrics.h"

#include <algorithm>

#include "nidc/util/logging.h"

namespace nidc::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1),
      exemplars_(2 * counts_.size()) {
  NIDC_CHECK(!upper_bounds_.empty()) << "histogram needs >= 1 bucket bound";
  NIDC_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()) &&
             std::adjacent_find(upper_bounds_.begin(), upper_bounds_.end()) ==
                 upper_bounds_.end())
      << "histogram bounds must be strictly increasing";
}

size_t Histogram::BucketOf(double value) const {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  return static_cast<size_t>(it - upper_bounds_.begin());
}

void Histogram::Observe(double value) {
  counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Observe(double value, const Exemplar& exemplar) {
  const size_t bucket = BucketOf(value);
  exemplars_[2 * bucket].store(exemplar.hi, std::memory_order_relaxed);
  exemplars_[2 * bucket + 1].store(exemplar.lo, std::memory_order_relaxed);
  Observe(value);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(counts_.size());
  for (const auto& count : counts_) {
    counts.push_back(count.load(std::memory_order_relaxed));
  }
  return counts;
}

uint64_t Histogram::CumulativeCount(size_t i) const {
  uint64_t total = 0;
  for (size_t b = 0; b <= i && b < counts_.size(); ++b) {
    total += counts_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t count : counts) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      if (i >= upper_bounds_.size()) return upper_bounds_.back();
      const double lo = i == 0 ? 0.0 : upper_bounds_[i - 1];
      const double hi = upper_bounds_[i];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return upper_bounds_.back();
}

Exemplar Histogram::ExemplarAt(double q) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t count : counts) total += count;
  if (total == 0) return Exemplar{};
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  size_t bucket = counts.size() - 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target && counts[i] > 0) {
      bucket = i;
      break;
    }
  }
  const auto exemplar_of = [&](size_t i) {
    return Exemplar{exemplars_[2 * i].load(std::memory_order_relaxed),
                    exemplars_[2 * i + 1].load(std::memory_order_relaxed)};
  };
  // Prefer the slowest occupied bucket at or above the quantile bucket —
  // that is the exemplar an operator chasing the p99 tail wants.
  for (size_t i = counts.size(); i-- > bucket;) {
    const Exemplar exemplar = exemplar_of(i);
    if (counts[i] > 0 && exemplar.valid()) return exemplar;
  }
  for (size_t i = bucket; i-- > 0;) {
    const Exemplar exemplar = exemplar_of(i);
    if (counts[i] > 0 && exemplar.valid()) return exemplar;
  }
  return Exemplar{};
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    NIDC_CHECK(it->second.kind == Kind::kCounter)
        << "metric '" << name << "' already registered as a different kind";
    return &counters_[it->second.index];
  }
  slots_.emplace(name, Slot{Kind::kCounter, counters_.size()});
  counters_.emplace_back();
  return &counters_.back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    NIDC_CHECK(it->second.kind == Kind::kGauge)
        << "metric '" << name << "' already registered as a different kind";
    return &gauges_[it->second.index];
  }
  slots_.emplace(name, Slot{Kind::kGauge, gauges_.size()});
  gauges_.emplace_back();
  return &gauges_.back();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    NIDC_CHECK(it->second.kind == Kind::kHistogram)
        << "metric '" << name << "' already registered as a different kind";
    return &histograms_[it->second.index];
  }
  slots_.emplace(name, Slot{Kind::kHistogram, histograms_.size()});
  histograms_.emplace_back(std::move(upper_bounds));
  return &histograms_.back();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    MetricSample sample;
    sample.name = name;
    switch (slot.kind) {
      case Kind::kCounter:
        sample.kind = MetricSample::Kind::kCounter;
        sample.value = static_cast<double>(counters_[slot.index].Value());
        break;
      case Kind::kGauge:
        sample.kind = MetricSample::Kind::kGauge;
        sample.value = gauges_[slot.index].Value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[slot.index];
        sample.kind = MetricSample::Kind::kHistogram;
        // One read of every bucket: the cumulative buckets and the count
        // come from the same counts, so they agree under concurrent
        // Observe calls.
        const std::vector<uint64_t> counts = h.BucketCounts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += counts[i];
          sample.buckets.emplace_back(h.upper_bounds()[i], cumulative);
        }
        sample.count = cumulative + counts.back();
        sample.sum = h.Sum();
        break;
      }
    }
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace nidc::obs
