// Self-tests of the benchmark's own statistics and of its metric
// catalogue against BENCHMARK.json.
//
//   nidcbench_selftest PATH/TO/BENCHMARK.json
//
// Prints each failed check and exits 1 when any failed.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "nidc/obs/json_util.h"
#include "stats.h"

namespace nidcbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(Near(Percentile(v, 0.5), 50.0), "nearest-rank p50 of 1..100 is 50");
  Check(Near(Percentile(v, 0.9), 90.0), "nearest-rank p90 of 1..100 is 90");
  Check(Near(Percentile(v, 0.99), 99.0), "nearest-rank p99 of 1..100 is 99");
  Check(Near(Percentile({7.0}, 0.99), 7.0), "p99 of one sample is it");
  Check(SamplesBeyond(100, 0.9) == 10, "10 of 100 samples lie beyond p90");
  Check(SupportsPercentile(100, 0.9), "p90 needs 100 samples");
  Check(!SupportsPercentile(99, 0.9), "p90 of 99 samples is unsupported");
  Check(SupportsPercentile(1000, 0.99), "p99 needs 1000 samples");
  Check(!SupportsPercentile(999, 0.99), "p99 of 999 samples is unsupported");
  Check(SupportsPercentile(178, 0.9), "p90 of a 178-step pass is supported");
  Check(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "even-count median");
}

void TestQuartiles() {
  // Expected values from Python's statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3.5, 1.25, 9, 7}, 1.8125, 5.25, 8.5},
      {{5, 1}, 0.0, 3.0, 6.0},
      {{2, 2, 2}, 2.0, 2.0, 2.0},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1000}, 30.0, 60.0, 90.0},
  };
  for (const Case& c : cases) {
    const Quartiles q = ComputeQuartiles(c.data);
    Check(Near(q.q1, c.q1) && Near(q.q2, c.q2) && Near(q.q3, c.q3),
          "quartiles match statistics.quantiles for a " +
              std::to_string(c.data.size()) + "-sample case");
  }
  const Quartiles q = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Check(Near(q.SpreadShare(), (8.25 - 2.75) / 5.5), "IQR share of 1..10");
}

void TestSelfTimes() {
  // root [0,10] with children [1,4] and [3,6] (overlapping, 5 covered)
  // and one child [8,12] sticking out (2 covered); grandchild [2,3].
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1}, {"a", 1.0, 4.0, 0}, {"b", 3.0, 6.0, 0},
      {"c", 8.0, 12.0, 0},     {"a1", 2.0, 3.0, 1},
  };
  const std::vector<double> self = SelfTimes(spans);
  Check(Near(self[0], 10.0 - 5.0 - 2.0), "root self time subtracts the "
                                          "union of its children");
  Check(Near(self[1], 3.0 - 1.0), "child self time subtracts grandchild");
  Check(Near(self[2], 3.0), "leaf self time is its duration");
  Check(Near(self[3], 4.0), "a child outside its parent keeps its duration");
}

void TestSchedule() {
  const std::vector<double> due = MakeSchedule({5, 3, 0, 2}, 10.0);
  Check(due.size() == 4, "one due time per request");
  Check(Near(due[0], 0.0) && Near(due[1], 0.5) && Near(due[2], 0.8) &&
            Near(due[3], 0.8),
        "due time = documents before / rate");
  for (size_t i = 1; i < due.size(); ++i) {
    Check(due[i] >= due[i - 1], "schedule is non-decreasing");
  }
  // Offered rate over the schedule: all but the last request's documents
  // are sent before its due time.
  Check(Near((5 + 3 + 0) / due[3], 10.0), "offered rate is exact");
}

void TestBacklogDetector() {
  BacklogInput flat;
  BacklogInput growing;
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.01;
    const double noise = (i % 7) * 0.3;
    flat.sched_s.push_back(t);
    flat.apply_ms.push_back(5.0 + noise);
    flat.send_sched_s.push_back(t);
    flat.late_ms.push_back(0.2);
    flat.depth_t_s.push_back(t);
    flat.depth.push_back(static_cast<double>(i % 3));
    growing.sched_s.push_back(t);
    growing.apply_ms.push_back(5.0 + 40.0 * t);  // +80 ms over the rung
    growing.send_sched_s.push_back(t);
    growing.late_ms.push_back(0.2);
    growing.depth_t_s.push_back(t);
    growing.depth.push_back(static_cast<double>(i / 10));
  }
  flat.duration_s = growing.duration_s = 2.0;
  Check(!DetectBacklog(flat).growing, "a flat rung has no backlog");
  const BacklogVerdict v = DetectBacklog(growing);
  Check(v.growing, "a climbing rung has a backlog");
  Check(Near(v.apply_growth_ms, 80.0), "apply growth = slope x duration");
  BacklogInput late = flat;
  for (size_t i = 0; i < late.late_ms.size(); ++i) {
    late.late_ms[i] = 30.0 * late.send_sched_s[i];
  }
  Check(DetectBacklog(late).growing, "a generator falling behind counts");
}

void TestMedianPathSplit() {
  // Ten samples of total 10 * (i + 1): a timed part of 80% and an untimed
  // remainder; the band (ranks 4 and 5) has totals 50 and 60.
  std::vector<double> totals;
  std::vector<std::map<std::string, double>> parts;
  for (int i = 9; i >= 0; --i) {
    totals.push_back(10.0 * (i + 1));
    parts.push_back({{"timed", 8.0 * (i + 1)}});
  }
  const MedianPathSplit split = SplitMedianPath(totals, parts);
  Check(Near(split.p50, 50.0), "path p50 is the nearest-rank median");
  Check(Near(split.band_total, 55.0), "band mean of ranks 40-60%");
  Check(Near(split.components.at("timed"), 44.0), "component band mean");
  Check(Near(split.gap_pct, 20.0), "gap is the untimed share of the band");
  // Consecutive intervals of each total (one may be negative) leave no
  // gap at all.
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i] = {{"a", totals[i] + 3.0}, {"b", -3.0}};
  }
  Check(Near(SplitMedianPath(totals, parts).gap_pct, 0.0),
        "intervals of the total add up to it");
}

void TestCatalogue(const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = nidc::obs::ParseJson(text.str());
  Check(parsed.ok(), "BENCHMARK.json parses");
  if (!parsed.ok()) return;
  const auto names_of = [](const nidc::obs::JsonValue* list) {
    std::vector<std::pair<std::string, std::string>> out;
    if (list == nullptr) return out;
    for (const auto& m : list->array) {
      const auto* name = m.Find("name");
      const auto* unit = m.Find("unit");
      out.emplace_back(name ? name->string_value : "",
                       unit ? unit->string_value : "");
    }
    return out;
  };
  const auto check_list = [&](const char* key,
                              const std::vector<MetricSpec>& specs) {
    const auto declared = names_of(parsed->Find(key));
    Check(declared.size() == specs.size(),
          std::string(key) + ": same number of metrics as the catalogue");
    for (size_t i = 0; i < specs.size() && i < declared.size(); ++i) {
      Check(declared[i].first == specs[i].name &&
                declared[i].second == specs[i].unit,
            std::string(key) + " entry " + std::to_string(i) + " is " +
                specs[i].name + " [" + specs[i].unit + "]");
    }
  };
  check_list("end_to_end", EndToEndMetrics());
  check_list("per_layer", PerLayerMetrics());
  std::set<std::string> workloads;
  if (const auto* list = parsed->Find("workloads")) {
    for (const auto& w : list->array) {
      if (const auto* name = w.Find("name")) workloads.insert(name->string_value);
    }
  }
  Check(workloads == std::set<std::string>(WorkloadNames().begin(),
                                           WorkloadNames().end()),
        "BENCHMARK.json names the runner's workloads");
}

}  // namespace
}  // namespace nidcbench

int main(int argc, char** argv) {
  using namespace nidcbench;
  TestPercentileRule();
  TestQuartiles();
  TestSelfTimes();
  TestSchedule();
  TestBacklogDetector();
  TestMedianPathSplit();
  if (argc > 1) {
    TestCatalogue(argv[1]);
  } else {
    Check(false, "usage: nidcbench_selftest PATH/TO/BENCHMARK.json");
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test checks failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "self-tests passed\n");
  return 0;
}
