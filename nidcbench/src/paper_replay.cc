// paper_replay: the paper-scale TDT2-like stream (7,578 documents, 178
// daily steps) driven through IncrementalClusterer::Step with the
// Experiment-2 parameters (K = 24, beta = 7 days, gamma = 30 days) and
// every other library default. K-means does nearly all the work; HTTP,
// shard, store and repl are bypassed, so a change there should not move
// these numbers.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/json_util.h"

namespace nidcbench {
namespace {

using nidc::obs::JsonObjectBuilder;

struct Window {
  std::vector<nidc::DocId> docs;
  nidc::DayTime end = 0.0;
};

// Per-step phase split of one traced step, seconds.
struct StepPhases {
  double wall = 0.0;
  double stats = 0.0;
  double seed = 0.0;
  double score = 0.0;
  double maintenance = 0.0;
  double refresh = 0.0;
  double context = 0.0;
};

struct PassOutcome {
  std::vector<double> step_seconds;
  std::vector<double> g;
  std::string state;
  size_t docs = 0;
  uint64_t failed_steps = 0;
  double total_seconds = 0.0;
  /// Process CPU seconds (every K-means thread) over the pass.
  double cpu_seconds = 0.0;
  // Traced passes only.
  std::vector<StepPhases> phases;
  double stats_s = 0.0;
  double cluster_s = 0.0;
  nidc::KMeansProfile totals;
  uint64_t sweeps = 0;
};

nidc::IncrementalOptions Experiment2Options() {
  nidc::IncrementalOptions options;
  options.kmeans.k = 24;
  options.kmeans.seed = 7;
  return options;
}

nidc::ForgettingParams Experiment2Params() {
  nidc::ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 30.0;
  return params;
}

std::string GFingerprint(const std::vector<double>& g) {
  std::string bytes;
  char buf[40];
  for (double v : g) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    bytes += buf;
  }
  return Fingerprint(bytes);
}

PassOutcome RunPass(const nidc::Corpus& corpus,
                    const std::vector<Window>& windows,
                    nidc::IncrementalOptions options, SpanRecorder* spans,
                    bool traced) {
  PassOutcome out;
  nidc::KMeansProfile profile;
  if (traced) options.kmeans.profile = &profile;
  nidc::IncrementalClusterer clusterer(&corpus, Experiment2Params(), options);
  const int pass_span = traced ? spans->Begin("bench.replay_pass") : -1;
  const double cpu_start = ProcessCpuNow();
  for (const Window& window : windows) {
    profile = nidc::KMeansProfile();
    const int span = traced ? spans->Begin("core.step", pass_span) : -1;
    const double start = Now();
    auto result = clusterer.Step(window.docs, window.end);
    const double end = Now();
    spans->End(span);
    out.total_seconds += end - start;
    if (!result.ok()) {
      ++out.failed_steps;
      continue;
    }
    out.step_seconds.push_back(end - start);
    out.g.push_back(result->final_g);
    out.docs += window.docs.size();
    if (!traced) continue;
    // The library times its phases itself (StepResult, KMeansProfile);
    // they become child spans laid out inside the measured step.
    StepPhases p;
    p.wall = end - start;
    p.stats = result->stats_update_seconds;
    p.seed = profile.seed_seconds;
    p.score = profile.score_seconds();
    p.maintenance = profile.maintenance_seconds;
    p.refresh = profile.refresh_seconds;
    p.context = result->clustering_seconds -
                (p.seed + profile.sweep_seconds + p.refresh);
    out.phases.push_back(p);
    const double cluster_start = end - result->clustering_seconds;
    spans->Add("forgetting.stats_update", start, start + p.stats, span);
    const int cluster = spans->Add("core.cluster", cluster_start, end, span);
    double t = cluster_start;
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"core.kmeans.context", p.context},
          {"core.kmeans.seed", p.seed},
          {"core.kmeans.score", p.score},
          {"core.kmeans.maintenance", p.maintenance},
          {"core.kmeans.refresh", p.refresh}}) {
      spans->Add(name, t, t + seconds, cluster);
      t += seconds;
    }
    out.stats_s += p.stats;
    out.cluster_s += result->clustering_seconds;
    out.sweeps += static_cast<uint64_t>(result->iterations);
    out.totals.seed_seconds += p.seed;
    out.totals.sweep_seconds += profile.sweep_seconds;
    out.totals.maintenance_seconds += p.maintenance;
    out.totals.refresh_seconds += p.refresh;
    out.totals.docs_scored += profile.docs_scored;
    out.totals.entries_scanned += profile.entries_scanned;
    out.totals.score_bytes += profile.score_bytes;
    out.totals.delta_fallbacks += profile.delta_fallbacks;
    out.totals.quantized_docs += profile.quantized_docs;
    out.totals.quantized_fallbacks += profile.quantized_fallbacks;
  }
  out.cpu_seconds = ProcessCpuNow() - cpu_start;
  spans->End(pass_span);
  out.state = StateOf(clusterer);
  return out;
}

// Stored expectations: "seed state_fingerprint g_fingerprint steps docs".
bool LookupExpected(const std::string& path, uint64_t seed,
                    std::string* line_out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t s = 0;
    if (fields >> s && s == seed) {
      *line_out = line;
      return true;
    }
  }
  return false;
}

// The reference for a seed without a stored expectation: the exact
// (unquantized) scalar sweep on one thread — the path every faster
// configuration is proven bit-identical to.
PassOutcome ReferencePass(const nidc::Corpus& corpus,
                          const std::vector<Window>& windows) {
  nidc::IncrementalOptions options = Experiment2Options();
  options.kmeans.quantized_scoring = false;
  options.kmeans.num_threads = 1;
  const nidc::kernels::Kind active = nidc::kernels::Active().kind;
  nidc::kernels::Select(nidc::kernels::Kind::kScalar);
  SpanRecorder off(false);
  PassOutcome out = RunPass(corpus, windows, options, &off, false);
  nidc::kernels::Select(active);
  return out;
}

}  // namespace

RunResult RunPaperReplay(const RunOptions& options, SpanRecorder* spans) {
  RunResult result;
  std::vector<nidc::RawDocument> raw;
  std::unique_ptr<nidc::Corpus> corpus;
  std::vector<double> analyze_seconds;
  const double setup = MedianSetupSeconds(kSetupRepetitions, [&] {
    ScopedSpan span(spans, "bench.setup");
    raw = GenerateStream(options.seed);
    const int analyze = spans->Begin("text.analyze", span.id());
    const double start = Now();
    corpus = AnalyzeStream(raw);
    analyze_seconds.push_back(Now() - start);
    spans->End(analyze);
  });
  result.Set("setup_s", setup, kSetupRepetitions);
  result.Set("text.analyze_us_per_doc",
             Median(analyze_seconds) / static_cast<double>(raw.size()) * 1e6,
             analyze_seconds.size());

  std::vector<Window> windows;
  nidc::DocumentStream stream(corpus.get(), std::floor(corpus->MinTime()),
                              corpus->MaxTime() + 1e-6, 1.0);
  while (auto batch = stream.Next()) {
    windows.push_back(Window{batch->docs, batch->end});
  }

  // Untraced runs repeat passes for the measuring time; traced runs
  // alternate untraced and traced passes so the tracing overhead is
  // measured under the same conditions.
  const nidc::IncrementalOptions base = Experiment2Options();
  std::vector<PassOutcome> plain;
  std::vector<PassOutcome> traced;
  const double deadline = Now() + options.seconds;
  while (true) {
    plain.push_back(RunPass(*corpus, windows, base, spans, false));
    if (options.trace) {
      traced.push_back(RunPass(*corpus, windows, base, spans, true));
    }
    const size_t passes = plain.size() + traced.size();
    if (passes >= 2 && Now() >= deadline) break;
  }

  // Output checks (outside every timed region).
  std::vector<const PassOutcome*> all;
  for (const auto& p : plain) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);
  const PassOutcome& first = *all.front();
  for (const PassOutcome* p : all) {
    result.attempted += p->step_seconds.size() + p->failed_steps;
    result.failed += p->failed_steps;
    if (p->state != first.state || p->g != first.g) {
      result.Fail("paper_replay: passes disagree on the final state or the "
                  "G trajectory");
    }
  }
  if (first.failed_steps > 0) {
    result.Fail("paper_replay: " + std::to_string(first.failed_steps) +
                " steps failed");
  }
  const std::string measured_line =
      std::to_string(options.seed) + "\t" + Fingerprint(first.state) + "\t" +
      GFingerprint(first.g) + "\t" + std::to_string(first.step_seconds.size()) +
      "\t" + std::to_string(first.docs);
  std::string expected_line;
  std::string source;
  if (LookupExpected(options.data_dir + "/paper_replay.tsv", options.seed,
                     &expected_line)) {
    source = "stored";
  } else {
    const PassOutcome reference = ReferencePass(*corpus, windows);
    expected_line = std::to_string(options.seed) + "\t" +
                    Fingerprint(reference.state) + "\t" +
                    GFingerprint(reference.g) + "\t" +
                    std::to_string(reference.step_seconds.size()) + "\t" +
                    std::to_string(reference.docs);
    source = "reference_pass";
  }
  if (expected_line != measured_line) {
    result.Fail("paper_replay: result differs from the " + source +
                " expectation: got [" + measured_line + "] want [" +
                expected_line + "]");
  }
  JsonObjectBuilder check;
  check.Add("expected_from", source).Add("line", measured_line);
  result.Detail("check", check.Render());

  // End-to-end metrics from the untraced passes.
  std::vector<double> step_ms;
  std::vector<double> pass_seconds;
  std::vector<double> pass_rates;
  std::vector<double> pass_p50;
  std::vector<double> pass_cpu_us;
  for (const PassOutcome& p : plain) {
    pass_cpu_us.push_back(p.cpu_seconds / static_cast<double>(p.docs) * 1e6);
    double seconds = 0.0;
    std::vector<double> ms;
    for (double s : p.step_seconds) {
      ms.push_back(s * 1e3);
      seconds += s;
    }
    pass_p50.push_back(Percentile(ms, 0.50));
    step_ms.insert(step_ms.end(), ms.begin(), ms.end());
    pass_seconds.push_back(p.total_seconds);
    pass_rates.push_back(static_cast<double>(p.docs) / seconds);
  }
  // Medians over passes: one disturbed pass does not move them.
  result.Set("replay_docs_per_s", Median(pass_rates), plain.size());
  result.Set("step_ms_p50", Median(pass_p50), step_ms.size());
  result.Set("cpu_us_per_doc", Median(pass_cpu_us), plain.size());
  if (!SupportsPercentile(step_ms.size(), 0.90)) {
    result.Fail("step_ms_p90: fewer than 10 samples beyond it");
  }
  result.Set("step_ms_p90", Percentile(step_ms, 0.90), step_ms.size());
  const Quartiles pass_q = ComputeQuartiles(pass_seconds);
  JsonObjectBuilder passes;
  passes.Add("passes", static_cast<uint64_t>(plain.size()))
      .Add("pass_seconds_median", pass_q.q2)
      .Add("pass_seconds_spread", pass_q.SpreadShare());
  result.Detail("untraced_passes", passes.Render());
  if (!options.trace) return result;

  // Per-layer metrics from the traced passes (medians over passes).
  const auto median_of = [&](auto pick) {
    std::vector<double> values;
    for (const PassOutcome& p : traced) values.push_back(pick(p));
    return Median(values);
  };
  result.Set("forgetting.stats_update_s",
             median_of([](const PassOutcome& p) { return p.stats_s; }),
             traced.size());
  result.Set("core.cluster_s",
             median_of([](const PassOutcome& p) { return p.cluster_s; }),
             traced.size());
  result.Set("core.kmeans.seed_s", median_of([](const PassOutcome& p) {
               return p.totals.seed_seconds;
             }), traced.size());
  result.Set("core.kmeans.score_s", median_of([](const PassOutcome& p) {
               return p.totals.score_seconds();
             }), traced.size());
  result.Set("core.kmeans.maintenance_s", median_of([](const PassOutcome& p) {
               return p.totals.maintenance_seconds;
             }), traced.size());
  result.Set("core.kmeans.refresh_s", median_of([](const PassOutcome& p) {
               return p.totals.refresh_seconds;
             }), traced.size());
  result.Set("core.kmeans.context_s", median_of([](const PassOutcome& p) {
               return p.cluster_s - p.totals.seed_seconds -
                      p.totals.sweep_seconds - p.totals.refresh_seconds;
             }), traced.size());
  // Counts repeat exactly from pass to pass; the first traced pass's.
  const PassOutcome& t0 = traced.front();
  result.Set("core.kmeans.sweeps", static_cast<double>(t0.sweeps));
  result.Set("core.kmeans.docs_scored",
             static_cast<double>(t0.totals.docs_scored));
  result.Set("core.kmeans.entries_scanned",
             static_cast<double>(t0.totals.entries_scanned));
  result.Set("core.kmeans.score_bytes",
             static_cast<double>(t0.totals.score_bytes));
  result.Set("core.kmeans.delta_fallbacks",
             static_cast<double>(t0.totals.delta_fallbacks));
  result.Set("core.kmeans.quantized_docs",
             static_cast<double>(t0.totals.quantized_docs));
  const double quantized = static_cast<double>(t0.totals.quantized_docs);
  result.Set("core.kmeans.quant_certified_ratio",
             quantized > 0.0
                 ? (quantized -
                    static_cast<double>(t0.totals.quantized_fallbacks)) /
                       quantized
                 : 0.0);

  // Tracing overhead: median traced pass vs median untraced pass.
  std::vector<double> traced_seconds;
  for (const PassOutcome& p : traced) traced_seconds.push_back(p.total_seconds);
  result.Set("obs.trace_overhead_pct",
             (Median(traced_seconds) / Median(pass_seconds) - 1.0) * 100.0,
             traced.size());

  // Blocking path of the median step: the library's phases must cover it.
  std::vector<double> totals;
  std::vector<std::map<std::string, double>> components;
  for (const PassOutcome& p : traced) {
    for (const StepPhases& s : p.phases) {
      totals.push_back(s.wall * 1e3);
      components.push_back({{"forgetting.stats_update", s.stats * 1e3},
                            {"core.kmeans.context", s.context * 1e3},
                            {"core.kmeans.seed", s.seed * 1e3},
                            {"core.kmeans.score", s.score * 1e3},
                            {"core.kmeans.maintenance", s.maintenance * 1e3},
                            {"core.kmeans.refresh", s.refresh * 1e3}});
    }
  }
  ReportBlockingPath("step_ms_p50", totals, components, &result);
  return result;
}

}  // namespace nidcbench
