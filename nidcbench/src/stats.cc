#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nidcbench {

namespace {

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool SupportsPercentile(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Quartiles::SpreadShare() const {
  return q2 != 0.0 ? (q3 - q1) / q2 : 0.0;
}

Quartiles ComputeQuartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  if (ld == 1) {
    out.q1 = out.q2 = out.q3 = samples[0];
    return out;
  }
  // statistics.quantiles, method="exclusive", n=4: m = len + 1, then for
  // i in 1..3: j = i*m // 4 clamped to [1, len-1], delta = i*m - 4*j,
  // value = (data[j-1] * (4 - delta) + data[j] * delta) / 4.
  const long n = 4;
  const long m = ld + 1;
  double values[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    values[i - 1] = (samples[j - 1] * static_cast<double>(n - delta) +
                     samples[j] * static_cast<double>(delta)) /
                    static_cast<double>(n);
  }
  out.q1 = values[0];
  out.q2 = values[1];
  out.q3 = values[2];
  return out;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[span.parent];
    const double a = std::max(span.start, parent.start);
    const double b = std::min(span.end, parent.end);
    if (b > a) children[span.parent].emplace_back(a, b);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) union_length += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) union_length += run_end - run_start;
    self[i] = spans[i].Duration() - union_length;
  }
  return self;
}

MedianPathSplit SplitMedianPath(
    const std::vector<double>& totals,
    const std::vector<std::map<std::string, double>>& components) {
  MedianPathSplit out;
  const size_t n = std::min(totals.size(), components.size());
  if (n == 0) return out;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return totals[a] < totals[b]; });
  out.p50 = Percentile(totals, 0.5);
  const size_t lo = n * 2 / 5;
  const size_t hi = std::min(n, std::max(lo + 1, n * 3 / 5));
  const double width = static_cast<double>(hi - lo);
  for (size_t r = lo; r < hi; ++r) {
    out.band_total += totals[order[r]] / width;
    for (const auto& [name, value] : components[order[r]]) {
      out.components[name] += value / width;
    }
  }
  for (const auto& [name, value] : out.components) out.covered += value;
  out.gap_pct = out.band_total != 0.0
                    ? (out.band_total - out.covered) / out.band_total * 100.0
                    : 0.0;
  return out;
}

std::vector<double> MakeSchedule(const std::vector<size_t>& docs_per_request,
                                 double docs_per_second) {
  std::vector<double> due;
  due.reserve(docs_per_request.size());
  size_t docs_before = 0;
  for (size_t docs : docs_per_request) {
    due.push_back(static_cast<double>(docs_before) / docs_per_second);
    docs_before += docs;
  }
  return due;
}

double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

// Thresholds of the backlog detector. A sustainable rate keeps latency,
// lateness and queue depth flat; past capacity each climbs for as long as
// the rung lasts, so the fitted growth over the rung is compared with a
// fixed allowance.
constexpr double kApplyGrowthLimitMs = 20.0;
constexpr double kLateGrowthLimitMs = 20.0;
constexpr double kDepthGrowthLimit = 8.0;

BacklogVerdict DetectBacklog(const BacklogInput& input) {
  BacklogVerdict verdict;
  verdict.apply_growth_ms =
      Slope(input.sched_s, input.apply_ms) * input.duration_s;
  verdict.late_growth_ms =
      Slope(input.send_sched_s, input.late_ms) * input.duration_s;
  verdict.depth_growth =
      Slope(input.depth_t_s, input.depth) * input.duration_s;
  if (verdict.apply_growth_ms > kApplyGrowthLimitMs) {
    verdict.reason = "apply latency grows";
  } else if (verdict.late_growth_ms > kLateGrowthLimitMs) {
    verdict.reason = "generator falls behind";
  } else if (verdict.depth_growth > kDepthGrowthLimit) {
    verdict.reason = "queue depth grows";
  }
  verdict.growing = !verdict.reason.empty();
  return verdict;
}

}  // namespace nidcbench
