#include "nidc/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "nidc/util/thread_pool.h"

namespace nidc::obs {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (le semantics: bound is inclusive)
  h.Observe(1.0001); // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(100.0);  // bucket 2
  h.Observe(100.5);  // +Inf overflow
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.CumulativeCount(1), 4u);
  EXPECT_EQ(h.CumulativeCount(2), 5u);
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
}

TEST(HistogramTest, NegativeAndBelowFirstBound) {
  Histogram h({0.0, 1.0});
  h.Observe(-5.0);
  h.Observe(0.0);
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.TotalCount(), 2u);
}

TEST(HistogramTest, EmptyQuantileIsZeroAndHasNoExemplar) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  EXPECT_FALSE(h.ExemplarAt(0.99).valid());
}

TEST(HistogramTest, QuantileInterpolatesInsideTheBucket) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(1.5);
  // 4 observations, 2 in (0, 1] and 2 in (1, 2]: the target rank q * 4
  // is placed linearly inside the bucket it falls in.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 0.5);   // rank 1 of bucket [0, 1]
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);    // rank 2: top of bucket 0
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 1.5);   // rank 3: mid of (1, 2]
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(HistogramTest, QuantileInOverflowReturnsTheLastBound) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(10.0);
  h.Observe(10.0);
  h.Observe(10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 1.0);
}

TEST(HistogramTest, ExemplarAtPicksTheSlowestOccupiedBucket) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 98; ++i) h.Observe(0.5, Exemplar{0, 1});
  h.Observe(1.5, Exemplar{0, 2});
  h.Observe(3.0, Exemplar{0, 3});
  // p99 lands in (1, 2], but the slowest occupied bucket at or above it,
  // (2, 4], carries the exemplar worth chasing.
  EXPECT_EQ(h.ExemplarAt(0.99).lo, 3u);
  // The last exemplar observed into a bucket wins.
  h.Observe(3.5, Exemplar{7, 4});
  EXPECT_EQ(h.ExemplarAt(0.99).hi, 7u);
  EXPECT_EQ(h.ExemplarAt(0.99).lo, 4u);
}

TEST(HistogramTest, ExemplarAtFallsBackToFasterBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5, Exemplar{0, 9});
  h.Observe(3.0);  // plain Observe records no exemplar
  EXPECT_EQ(h.ExemplarAt(0.99).lo, 9u);
  EXPECT_NEAR(h.Quantile(0.99), 3.96, 1e-12);  // rank 1.98 in (2, 4]
}

TEST(MetricsRegistryTest, GetReturnsSameInstrumentForSameName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("steps");
  Counter* b = registry.GetCounter("steps");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, HandlesStayValidAcrossManyRegistrations) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("c0");
  first->Increment(7);
  // Enough registrations to force reallocation in vector-backed storage;
  // the deque-backed registry must keep `first` valid.
  for (int i = 1; i < 200; ++i) {
    registry.GetCounter("c" + std::to_string(i));
    registry.GetGauge("g" + std::to_string(i));
  }
  EXPECT_EQ(first->Value(), 7u);
  EXPECT_EQ(registry.GetCounter("c0"), first);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedOnFirstRegistration) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {1.0, 2.0});
  Histogram* again = registry.GetHistogram("lat", {5.0, 6.0, 7.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(3);
  registry.GetGauge("alpha")->Set(1.5);
  registry.GetHistogram("mid", {1.0})->Observe(0.5);
  const std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.5);
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(samples[1].buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[1].buckets[0].first, 1.0);
  EXPECT_EQ(samples[1].buckets[0].second, 1u);
  EXPECT_EQ(samples[1].count, 1u);
  EXPECT_DOUBLE_EQ(samples[1].sum, 0.5);
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("parallel.increments");
  Gauge* gauge = registry.GetGauge("parallel.adds");
  Histogram* histogram =
      registry.GetHistogram("parallel.observations", {100.0, 1000.0});

  constexpr size_t kItems = 10000;
  ThreadPool pool(4);
  pool.ParallelFor(kItems, /*grain=*/64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
      gauge->Add(1.0);
      histogram->Observe(static_cast<double>(i % 200));
    }
  });

  EXPECT_EQ(counter->Value(), kItems);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kItems));
  EXPECT_EQ(histogram->TotalCount(), kItems);
  // i % 200 spends half its time in [0, 100] (0..100 inclusive = 101 of
  // 200 residues, kItems/200 hits each).
  EXPECT_EQ(histogram->CumulativeCount(0), kItems / 200 * 101);
  EXPECT_EQ(histogram->CumulativeCount(1), kItems);
}

TEST(MetricsRegistryTest, SnapshotDuringObserveStaysConsistent) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("racy.latency", {1.0, 2.0, 4.0, 8.0});
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200000; ++i) {
      histogram->Observe(static_cast<double>(i % 10));  // overflow too
    }
    done.store(true);
  });
  size_t snapshots = 0;
  while (!done.load() || snapshots == 0) {
    for (const MetricSample& sample : registry.Snapshot()) {
      uint64_t previous = 0;
      for (const auto& [le, cumulative] : sample.buckets) {
        ASSERT_GE(cumulative, previous) << "le=" << le;
        previous = cumulative;
      }
      // The +Inf bucket is `count`: no finite bucket may exceed it.
      ASSERT_LE(previous, sample.count);
    }
    ++snapshots;
  }
  writer.join();
  EXPECT_EQ(histogram->TotalCount(), 200000u);
}

TEST(MetricsRegistryDeathTest, KindMismatchIsFatal) {
  MetricsRegistry registry;
  registry.GetCounter("name");
  EXPECT_DEATH(registry.GetGauge("name"), "registered as a different kind");
}

}  // namespace
}  // namespace nidc::obs
