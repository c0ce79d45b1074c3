// Hot-path benchmark for the extended K-means sweep: serial merge scoring
// (the reference) vs the slotted move-only sweep (flat CSR index +
// algebraic detachment) across scoring kernels.
//
// Configurations running the same clustering problem:
//   merge            use_rep_index=false  (the reference path)
//   slotted-scalar   slotted sweep, scalar kernel, quantization off
//   slotted          slotted sweep, best SIMD kernel, quantization off
//                    (the default path)
//   slotted+quant    slotted sweep, best SIMD kernel, opt-in fp16
//                    quantized pass
//   slotted+parallel same as slotted with a full thread pool — only
//                    emitted when the pool actually resolves to > 1 thread
//                    (a 1-thread "parallel" row is meaningless and the
//                    bench refuses to report one)
// All configurations must produce identical clusterings (same memberships,
// same outliers, same G trajectory) — the bench verifies this on every run
// and exits non-zero on a mismatch. Every configuration runs once per
// round, for an odd number of rounds; the table reports each
// configuration's median-cluster-time round, and the speedups are medians
// of per-round ratios (the speedup gates' estimator). Per-phase timings
// (seed / score / index maintenance / refresh) are collected through
// KMeansProfile, which also carries the kernel telemetry (bytes streamed,
// achieved GB/s, quantized fast-path vs exact re-check splits). An
// incremental stream replay emits a BENCH_sweep_hotpath.json trajectory.
//
// It also measures the observability overhead: the same clustering run
// with the full telemetry stack attached (MetricsRegistry, EventLog,
// PhaseProfiler — the one sink of every NIDC_SPAN — ProvenanceLog,
// TimeSeriesStore, RequestTracer, SloEngine) vs the default null registry
// (median of paired back-to-back repetitions).
//
// Env knobs:
//   NIDC_SWEEP_SCALE   corpus scale (1.0 = paper-scale 7,578 docs)
//   NIDC_SWEEP_K       number of clusters (default 32)
//   NIDC_REQUIRE_SPEEDUP  if set to a positive value, exit non-zero unless
//                         the fastest slotted configuration achieves that
//                         total-time speedup over merge
//   NIDC_REQUIRE_KERNEL_SPEEDUP  if set to a positive value, exit non-zero
//                         unless the best SIMD kernel's exact sweep achieves
//                         that scoring-pass speedup (sweep time minus
//                         kernel-independent move maintenance) over the
//                         scalar-kernel exact sweep, as the median of
//                         paired rounds (skipped with a note when no SIMD
//                         kernel is available on this host)
//   NIDC_MAX_INSTRUMENTED_OVERHEAD  if set to a positive value, exit
//                         non-zero when the instrumented run is more than
//                         that many percent slower than the null-registry
//                         run (the guard CI runs with 3)
//   NIDC_BENCH_JSON_DIR   output directory for the JSON file (default ".")

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/provenance.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/obs/timeseries.h"
#include "nidc/util/thread_pool.h"

namespace nidc::bench {
namespace {

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

struct Config {
  const char* name;
  bool use_rep_index;
  size_t num_threads;  // requested; 0 = hardware concurrency
  kernels::Kind kernel = kernels::Kind::kScalar;
  bool quantized = false;
};

struct Timing {
  double context_seconds = 0.0;
  double cluster_seconds = 0.0;
  KMeansProfile profile;
  double total() const { return context_seconds + cluster_seconds; }
};

struct BatchRun {
  Timing timing;
  ClusteringResult result;
};

/// The best SIMD kernel this host can run (scalar when there is none).
kernels::Kind BestKind() {
  if (kernels::Available(kernels::Kind::kAvx512)) {
    return kernels::Kind::kAvx512;
  }
  if (kernels::Available(kernels::Kind::kAvx2)) {
    return kernels::Kind::kAvx2;
  }
  return kernels::Kind::kScalar;
}

void ApplyConfig(const Config& config, ExtendedKMeansOptions* kmeans) {
  kmeans->use_rep_index = config.use_rep_index;
  kmeans->num_threads = config.num_threads;
  kmeans->quantized_scoring = config.quantized;
  kernels::Select(config.kernel);
}

// Instrumented-vs-null overhead of the *full* observability stack on the
// fast configuration: a registry, event log, phase profiler, provenance
// log, time-series store, request tracer and SLO engine all
// attached (with a post-run ObserveStep and a per-step request trace +
// SLO evaluation, as the stream driver issues), against everything null.
// The telemetry objects are constructed once and live across all
// repetitions, exactly like a long-running stream: the gate measures the
// steady-state per-step cost, not the one-time ring/series allocations a
// real deployment pays once over thousands of steps.
//
// The estimator is the median of *paired* differences: each repetition
// times one null and one instrumented run back-to-back (alternating which
// goes first) and keeps their delta. Pairing cancels the slow drift —
// frequency scaling, pool scheduling luck — that made independent
// min-of-N sides diverge by several percent on a multi-core run whose
// true overhead is well under one percent; the median then discards the
// occasional rep a descheduling spike lands on. `reps` <= 0 sizes the
// pair count to a fixed wall budget from the measured warm-up pair.
// Returns the overhead in percent (negative = within noise, faster).
double MeasureInstrumentationOverhead(const ForgettingModel& model,
                                      const std::vector<DocId>& docs,
                                      ExtendedKMeansOptions kmeans,
                                      int reps) {
  kmeans.use_rep_index = true;
  kmeans.num_threads = 0;
  kmeans.quantized_scoring = false;
  kernels::Select(BestKind());
  // The context build is telemetry-independent and runs on the thread
  // pool — keeping it outside the timed section removes its scheduling
  // noise from the overhead ratio.
  SimilarityContext ctx(model, ThreadPool::Resolve(0));
  obs::MetricsRegistry registry;
  obs::EventLog events(4096, &registry);
  obs::PhaseProfiler::Options profiler_options;
  profiler_options.metrics = &registry;
  obs::PhaseProfiler profiler(profiler_options);
  obs::ProvenanceLog provenance(4096, &registry);
  obs::TimeSeriesStore::Options ts_options;
  ts_options.metrics = &registry;
  ts_options.events = &events;
  obs::TimeSeriesStore timeseries(ts_options);
  obs::SloEngine::Options slo_options;
  slo_options.metrics = &registry;
  slo_options.events = &events;
  obs::SloEngine slo(slo_options);
  obs::RequestTracer::Options reqtrace_options;
  reqtrace_options.metrics = &registry;
  reqtrace_options.on_complete = [&slo](const std::string& tenant,
                                        double e2e_seconds,
                                        double now_seconds) {
    slo.ObserveLatency(tenant, e2e_seconds, now_seconds);
  };
  obs::RequestTracer reqtracer(reqtrace_options);
  uint64_t step = 0;
  const auto run_once = [&](bool instrumented) {
    ExtendedKMeansOptions options = kmeans;
    options.metrics = instrumented ? &registry : nullptr;
    options.events = instrumented ? &events : nullptr;
    options.provenance = instrumented ? &provenance : nullptr;
    obs::ScopedProfilerInstall install_profiler(instrumented ? &profiler
                                                             : nullptr);
    if (instrumented) profiler.SetStep(step);
    Stopwatch timer;
    // Per-step request trace, stamped exactly like the stream driver's:
    // mint + begin + ingest/window-close, scope the step, complete it.
    obs::TraceContext req_trace;
    if (instrumented) {
      req_trace = reqtracer.Mint();
      reqtracer.Begin(req_trace, "bench");
      reqtracer.RecordStage(req_trace, obs::Stage::kIngest);
      reqtracer.RecordStage(req_trace, obs::Stage::kWindowClose);
    }
    Result<ClusteringResult> result = [&] {
      obs::RequestTracer::StepScope scope(
          instrumented ? &reqtracer : nullptr,
          instrumented ? std::vector<obs::TraceContext>{req_trace}
                       : std::vector<obs::TraceContext>{});
      return RunExtendedKMeans(ctx, docs, options);
    }();
    if (instrumented) {
      reqtracer.RecordStage(req_trace, obs::Stage::kStep);
      timeseries.ObserveStep(step);
      slo.Evaluate(obs::RequestTracer::NowSeconds());
      ++step;
    }
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "overhead run failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return seconds;
  };
  // Warm-up, untimed — both sides, so the instrumented side's first-touch
  // allocations stay out of the gate. The pair also calibrates the
  // repetition count: the median's spread shrinks as 1/sqrt(reps), so
  // small (CI-scale) runs buy precision with more pairs while paper-scale
  // runs stay inside a fixed wall budget.
  Stopwatch pair_timer;
  run_once(false);
  run_once(true);
  const double pair_seconds = pair_timer.ElapsedSeconds();
  if (reps <= 0) {
    constexpr double kBudgetSeconds = 8.0;
    const double fit = kBudgetSeconds / std::max(pair_seconds, 1e-6);
    reps = static_cast<int>(std::min(201.0, std::max(9.0, fit)));
    reps |= 1;  // odd count: the median is a single middle element
  }
  std::vector<double> deltas;
  std::vector<double> null_times;
  deltas.reserve(static_cast<size_t>(reps));
  null_times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    double null_s;
    double instr_s;
    if (r % 2 == 0) {
      null_s = run_once(false);
      instr_s = run_once(true);
    } else {
      instr_s = run_once(true);
      null_s = run_once(false);
    }
    deltas.push_back(instr_s - null_s);
    null_times.push_back(null_s);
  }
  const double delta = Median(deltas);
  const double base = Median(null_times);
  return delta / std::max(base, 1e-12) * 100.0;
}

// One timed run of `config`: builds the similarity context, then clusters.
BatchRun RunOnce(const ForgettingModel& model, const std::vector<DocId>& docs,
                 const Config& config, ExtendedKMeansOptions kmeans) {
  ApplyConfig(config, &kmeans);
  BatchRun run;
  Stopwatch ctx_timer;
  SimilarityContext ctx(model, ThreadPool::Resolve(config.num_threads));
  run.timing.context_seconds = ctx_timer.ElapsedSeconds();
  kmeans.profile = &run.timing.profile;
  Stopwatch cluster_timer;
  auto result = RunExtendedKMeans(ctx, docs, kmeans);
  run.timing.cluster_seconds = cluster_timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "[%s] clustering failed: %s\n", config.name,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run.result = std::move(result).value();
  return run;
}

// Median over rounds of the paired ratio metric(num[r]) / metric(den[r]).
template <typename Metric>
double MedianPairedRatio(const std::vector<Timing>& num,
                         const std::vector<Timing>& den, Metric metric) {
  std::vector<double> ratios;
  for (size_t r = 0; r < num.size(); ++r) {
    ratios.push_back(metric(num[r]) / std::max(metric(den[r]), 1e-12));
  }
  return Median(std::move(ratios));
}

// The round whose cluster time is the median — a real run, so its phase
// split adds up.
const Timing& MedianRun(const std::vector<Timing>& runs) {
  std::vector<size_t> order(runs.size());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  const size_t mid = order.size() / 2;
  std::nth_element(order.begin(), order.begin() + mid, order.end(),
                   [&](size_t a, size_t b) {
                     return runs[a].cluster_seconds < runs[b].cluster_seconds;
                   });
  return runs[order[mid]];
}

bool SameClustering(const ClusteringResult& a, const ClusteringResult& b,
                    const char* name) {
  bool ok = true;
  if (a.clusters != b.clusters) {
    std::fprintf(stderr, "MISMATCH [%s]: memberships differ\n", name);
    ok = false;
  }
  if (a.outliers != b.outliers) {
    std::fprintf(stderr, "MISMATCH [%s]: outlier lists differ\n", name);
    ok = false;
  }
  if (a.g_history.size() != b.g_history.size()) {
    std::fprintf(stderr, "MISMATCH [%s]: G history lengths differ\n", name);
    ok = false;
  } else {
    for (size_t i = 0; i < a.g_history.size(); ++i) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(a.g_history[i]));
      if (std::fabs(a.g_history[i] - b.g_history[i]) > tol) {
        std::fprintf(stderr, "MISMATCH [%s]: G[%zu] %.17g vs %.17g\n", name,
                     i, a.g_history[i], b.g_history[i]);
        ok = false;
      }
    }
  }
  return ok;
}

// One stream step's timings for the trajectory file.
struct StepTrace {
  int step = 0;
  size_t active = 0;
  double merge_seconds = 0.0;
  double fast_seconds = 0.0;
};

void WriteJson(const std::string& path, double scale, size_t k,
               size_t active_docs, size_t hw_threads,
               const char* fast_config,
               const std::vector<std::pair<Config, Timing>>& batch,
               const std::vector<StepTrace>& trajectory, int rounds,
               double speedup_fast_vs_merge,
               double speedup_kernel_vs_scalar) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sweep_hotpath\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"k\": %zu,\n", k);
  std::fprintf(f, "  \"active_docs\": %zu,\n", active_docs);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw_threads);
  std::fprintf(f, "  \"fast_config\": \"%s\",\n", fast_config);
  std::fprintf(f, "  \"rounds\": %d,\n", rounds);
  std::fprintf(f, "  \"speedup_fast_vs_merge\": %.4f,\n",
               speedup_fast_vs_merge);
  std::fprintf(f, "  \"speedup_kernel_vs_scalar\": %.4f,\n",
               speedup_kernel_vs_scalar);
  std::fprintf(f, "  \"batch\": [\n");
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto& [config, timing] = batch[i];
    const KMeansProfile& prof = timing.profile;
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"threads\": %zu, "
                 "\"kernel\": \"%s\", \"quantized\": %s, "
                 "\"context_seconds\": %.6f, "
                 "\"cluster_seconds\": %.6f, \"total_seconds\": %.6f, "
                 "\"seed_seconds\": %.6f, \"score_seconds\": %.6f, "
                 "\"maintenance_seconds\": %.6f, "
                 "\"refresh_seconds\": %.6f, \"score_gbps\": %.3f}%s\n",
                 config.name, ThreadPool::Resolve(config.num_threads),
                 config.use_rep_index ? kernels::KindName(config.kernel)
                                      : "none",
                 config.quantized ? "true" : "false",
                 timing.context_seconds, timing.cluster_seconds,
                 timing.total(), prof.seed_seconds, prof.score_seconds(),
                 prof.maintenance_seconds, prof.refresh_seconds,
                 prof.score_gbps(), i + 1 < batch.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"trajectory\": [\n");
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const StepTrace& t = trajectory[i];
    std::fprintf(f,
                 "    {\"step\": %d, \"active_docs\": %zu, "
                 "\"merge_seconds\": %.6f, "
                 "\"fast_seconds\": %.6f}%s\n",
                 t.step, t.active, t.merge_seconds, t.fast_seconds,
                 i + 1 < trajectory.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("(trajectory written to %s)\n", path.c_str());
}

// Replays the stream incrementally day by day with the given config and
// returns the per-step clustering times (stats update excluded — the sweep
// is what this bench isolates).
std::vector<double> RunStream(const BenchCorpus& bc, size_t k,
                              const Config& config,
                              std::vector<size_t>* active_out) {
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 30.0;
  IncrementalOptions options;
  options.kmeans.k = k;
  options.kmeans.seed = 7;
  ApplyConfig(config, &options.kmeans);
  IncrementalClusterer clusterer(bc.corpus.get(), params, options);

  const DayTime begin = bc.corpus->MinTime();
  const DayTime end = std::min(begin + 6.0, bc.corpus->MaxTime());
  std::vector<double> seconds;
  if (active_out != nullptr) active_out->clear();
  for (DayTime day = begin; day <= end; day += 1.0) {
    const auto new_docs =
        bc.corpus->DocsInRange(day, std::min(day + 1.0, end + 1.0));
    if (new_docs.empty()) continue;
    auto step = clusterer.Step(new_docs, std::min(day + 1.0, end + 1.0));
    if (!step.ok()) {
      std::fprintf(stderr, "[%s] stream step failed: %s\n", config.name,
                   step.status().ToString().c_str());
      std::exit(1);
    }
    seconds.push_back(step->clustering_seconds);
    if (active_out != nullptr) active_out->push_back(step->num_active);
  }
  return seconds;
}

int Main() {
  PrintHeader("Sweep hot path: merge vs slotted move-only",
              "Table 1 setting (§6.2.1) — scoring-path + kernel ablation");

  const double scale = EnvScale("NIDC_SWEEP_SCALE", 1.0);
  const size_t k = static_cast<size_t>(EnvScale("NIDC_SWEEP_K", 32.0));
  const size_t hw = ThreadPool::Resolve(0);
  const kernels::Kind best = BestKind();
  const bool have_simd = best != kernels::Kind::kScalar;
  BenchCorpus bc = MakeCorpus(scale);

  // Batch comparison: every document of the corpus active at once, so the
  // sweep runs at the full advertised size (≥ 5k docs at scale 1).
  ForgettingParams params;
  params.half_life_days = 30.0;
  params.life_span_days = 10000.0;  // keep everything active
  ForgettingModel model(bc.corpus.get(), params);
  model.AdvanceTo(bc.corpus->MaxTime());
  std::vector<DocId> docs(bc.corpus->size());
  for (DocId d = 0; d < static_cast<DocId>(docs.size()); ++d) docs[d] = d;
  model.AddDocuments(docs);

  ExtendedKMeansOptions kmeans;
  kmeans.k = k;
  kmeans.seed = 7;

  std::vector<Config> configs = {
      {"merge", false, 1, best, false},
      {"slotted-scalar", true, 1, kernels::Kind::kScalar, false},
      {"slotted", true, 1, best, false},
      {"slotted+quant", true, 1, best, true},
  };
  constexpr size_t kMerge = 0, kSlottedScalar = 1, kSlotted = 2;
  constexpr size_t kQuant = 3;
  size_t fast = kSlotted;
  if (hw > 1) {
    configs.push_back({"slotted+parallel", true, 0, best, false});
    fast = configs.size() - 1;
  } else {
    std::printf(
        "note: thread pool resolves to 1 thread on this host — "
        "omitting the slotted+parallel row\n");
  }

  std::printf("corpus: %zu docs, K = %zu, hardware threads = %zu, "
              "best kernel = %s\n",
              docs.size(), k, hw, kernels::KindName(best));

  // Every configuration runs once per round, rounds alternating forward and
  // reverse configuration order, so each gate's two sides are paired within
  // a round and neither side always runs first. The gates then read the
  // median of the per-round ratios — the overhead gate's paired-median
  // estimator, which single-shot ratios of 10 ms runs are too noisy for. An
  // untimed warm-up round sizes the odd round count to a wall budget: the
  // median's spread shrinks as 1/sqrt(rounds).
  Stopwatch warmup_timer;
  const ClusteringResult reference =
      RunOnce(model, docs, configs[kMerge], kmeans).result;
  bool identical = true;
  const auto run_checked = [&](size_t i) {
    BatchRun run = RunOnce(model, docs, configs[i], kmeans);
    const std::string label = std::string("merge vs ") + configs[i].name;
    identical &= SameClustering(reference, run.result, label.c_str());
    return run;
  };
  for (size_t i = 1; i < configs.size(); ++i) run_checked(i);
  const double round_seconds = warmup_timer.ElapsedSeconds();
  constexpr double kRoundBudgetSeconds = 20.0;
  const double fit = kRoundBudgetSeconds / std::max(round_seconds, 1e-6);
  const int rounds = static_cast<int>(std::min(51.0, std::max(5.0, fit))) | 1;

  std::vector<std::vector<Timing>> timings(configs.size());
  for (int r = 0; r < rounds; ++r) {
    for (size_t j = 0; j < configs.size(); ++j) {
      const size_t i = r % 2 == 0 ? j : configs.size() - 1 - j;
      timings[i].push_back(run_checked(i).timing);
    }
  }

  std::printf("%d rounds; each row is the configuration's median-cluster-time "
              "round, speedups are medians of per-round ratios\n\n",
              rounds);
  const auto total = [](const Timing& t) { return t.total(); };
  const auto score = [](const Timing& t) { return t.profile.score_seconds(); };
  TablePrinter table({"config", "thr", "kernel", "context s", "cluster s",
                      "score s", "maint s", "refresh s", "GB/s", "total s",
                      "speedup", "iters"});
  std::vector<std::pair<Config, Timing>> batch;
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    const Timing& t = MedianRun(timings[i]);
    batch.emplace_back(config, t);
    table.AddRow(
        {config.name, std::to_string(ThreadPool::Resolve(config.num_threads)),
         config.use_rep_index ? kernels::KindName(config.kernel) : "-",
         Fmt(t.context_seconds, 3), Fmt(t.cluster_seconds, 3),
         Fmt(t.profile.score_seconds(), 3),
         Fmt(t.profile.maintenance_seconds, 3),
         Fmt(t.profile.refresh_seconds, 3),
         config.use_rep_index ? Fmt(t.profile.score_gbps(), 2) : "-",
         Fmt(t.total(), 3),
         Fmt(MedianPairedRatio(timings[kMerge], timings[i], total), 2) + "x",
         std::to_string(reference.iterations)});
  }
  table.Print(std::cout);

  std::printf("\nclustering outputs identical across configs: %s\n",
              identical ? "YES" : "NO");
  const double speedup =
      MedianPairedRatio(timings[kMerge], timings[fast], total);
  // The kernel gate compares the scoring pass (sweep minus move
  // maintenance) of the scalar-kernel exact sweep against the best
  // kernel's exact sweep — the default path, same sweep structure, only
  // the kernels differ. Maintenance (posting and cache updates for moves)
  // is kernel-independent bit-identity-mandated work, so it is excluded:
  // it would otherwise dilute the ratio by a constant both sides share.
  const double kernel_speedup =
      MedianPairedRatio(timings[kSlottedScalar], timings[kSlotted], score);
  const KMeansProfile& quant_profile = MedianRun(timings[kQuant]).profile;
  std::printf("%s speedup over merge (total): %.2fx\n", configs[fast].name,
              speedup);
  std::printf("kernel speedup, exact %s vs exact scalar (scoring time): "
              "%.2fx\n",
              kernels::KindName(best), kernel_speedup);
  std::printf("quantized docs: %llu certified, %llu exact re-checks, "
              "%llu overlay fallbacks\n",
              static_cast<unsigned long long>(quant_profile.quantized_docs),
              static_cast<unsigned long long>(
                  quant_profile.quantized_fallbacks),
              static_cast<unsigned long long>(quant_profile.delta_fallbacks));

  const double overhead_pct =
      MeasureInstrumentationOverhead(model, docs, kmeans,
                                     /*reps=*/0);  // 0 = fit a wall budget
  std::printf(
      "observability overhead (full telemetry stack vs null): %+.2f%%\n",
      overhead_pct);

  // Incremental-stream trajectory (first week of the corpus): merge vs the
  // fastest slotted configuration, per-step clustering time.
  std::vector<size_t> active;
  const std::vector<double> merge_steps =
      RunStream(bc, k, configs[kMerge], &active);
  const std::vector<double> fast_steps =
      RunStream(bc, k, configs[fast], nullptr);
  std::vector<StepTrace> trajectory;
  for (size_t i = 0; i < merge_steps.size() && i < fast_steps.size(); ++i) {
    StepTrace t;
    t.step = static_cast<int>(i);
    t.active = i < active.size() ? active[i] : 0;
    t.merge_seconds = merge_steps[i];
    t.fast_seconds = fast_steps[i];
    trajectory.push_back(t);
  }

  const char* dir = std::getenv("NIDC_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
      "/BENCH_sweep_hotpath.json";
  WriteJson(path, scale, k, docs.size(), hw, configs[fast].name, batch,
            trajectory, rounds, speedup, kernel_speedup);

  if (!identical) {
    std::fprintf(stderr, "FAILED: configurations disagree on the output\n");
    return 1;
  }
  const double required = EnvScale("NIDC_REQUIRE_SPEEDUP", 0.0);
  if (required > 0.0 && speedup < required) {
    std::fprintf(stderr, "FAILED: speedup %.2fx below required %.2fx\n",
                 speedup, required);
    return 1;
  }
  const double required_kernel = EnvScale("NIDC_REQUIRE_KERNEL_SPEEDUP", 0.0);
  if (required_kernel > 0.0) {
    if (!have_simd) {
      std::printf(
          "note: no SIMD kernel available on this host — kernel speedup "
          "gate skipped\n");
    } else if (kernel_speedup < required_kernel) {
      std::fprintf(stderr,
                   "FAILED: kernel-vs-scalar scoring speedup %.2fx below "
                   "required %.2fx\n",
                   kernel_speedup, required_kernel);
      return 1;
    }
  }
  const double max_overhead = EnvScale("NIDC_MAX_INSTRUMENTED_OVERHEAD", 0.0);
  if (max_overhead > 0.0 && overhead_pct > max_overhead) {
    std::fprintf(stderr,
                 "FAILED: observability overhead %.2f%% exceeds the "
                 "%.2f%% budget\n",
                 overhead_pct, max_overhead);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nidc::bench

int main() { return nidc::bench::Main(); }
