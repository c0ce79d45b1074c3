#include "common.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "nidc/core/kernels/kernels.h"
#include "nidc/core/state_io.h"
#include "nidc/obs/json_util.h"
#include "nidc/synth/tdt2_like_generator.h"

namespace nidcbench {

using nidc::obs::JsonObjectBuilder;

void RunResult::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void RunResult::Set(const std::string& name, double value, size_t samples) {
  const MetricSpec* spec = FindMetric(name);
  const std::string unit = spec != nullptr ? spec->unit : "";
  for (MetricValue& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  }
  metrics.push_back(MetricValue{name, value, unit, samples});
}

void RunResult::Detail(const std::string& key, const std::string& raw_json) {
  details.emplace_back(key, raw_json);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_replay", "ingest_openloop", "replicated_stream"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  // Every workload measures each of these on its own path (METRICS.md).
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"cpu_us_per_doc", "us"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // Workload figures measured in every run (and in the report) but
      // too sensitive to a shared host's noise to carry a regression
      // bound: wall-clock latency and throughput, the tail percentiles,
      // the failure share and the recovery time.
      {"step_ms_p50", "ms"},
      {"apply_ms_p50", "ms"},
      {"follower_lag_ms_p50", "ms"},
      {"replay_docs_per_s", "docs/s"},
      {"durable_docs_per_s", "docs/s"},
      {"ack_ms_p50", "ms"},
      {"step_ms_p90", "ms"},
      {"ack_ms_p99", "ms"},
      {"apply_ms_p99", "ms"},
      {"follower_lag_ms_p90", "ms"},
      {"ingest_fail_ratio", "ratio"},
      {"recover_s", "s"},
      {"text.analyze_us_per_doc", "us"},
      {"forgetting.stats_update_s", "s"},
      {"core.cluster_s", "s"},
      {"core.kmeans.seed_s", "s"},
      {"core.kmeans.score_s", "s"},
      {"core.kmeans.maintenance_s", "s"},
      {"core.kmeans.refresh_s", "s"},
      {"core.kmeans.context_s", "s"},
      {"core.kmeans.sweeps", "count"},
      {"core.kmeans.docs_scored", "count"},
      {"core.kmeans.entries_scanned", "count"},
      {"core.kmeans.score_bytes", "bytes"},
      {"core.kmeans.delta_fallbacks", "count"},
      {"core.kmeans.quant_certified_ratio", "ratio"},
      {"core.kmeans.quantized_docs", "count"},
      {"shard.codec.parse_us_per_doc", "us"},
      {"serve.requests", "count"},
      {"serve.keepalive_reuses", "count"},
      {"serve.connections_shed", "count"},
      {"shard.enqueue_wait_ms_p50", "ms"},
      {"shard.enqueue_wait_ms_p99", "ms"},
      {"shard.queue_depth_max", "count"},
      {"shard.rejected_429", "count"},
      {"shard.busy_ratio_max", "ratio"},
      {"shard.tenant.ingest_ms_p50", "ms"},
      {"shard.tenant.ingest_ms_p99", "ms"},
      {"store.wal_commit_ms_p50", "ms"},
      {"store.wal_commit_ms_p99", "ms"},
      {"store.checkpoint_ms_p50", "ms"},
      {"store.checkpoint_ms_p99", "ms"},
      {"store.snapshot_bytes", "bytes"},
      {"store.wal_bytes", "bytes"},
      {"store.recover_replay_records", "count"},
      {"repl.ship_ms_p50", "ms"},
      {"repl.ship_ms_p90", "ms"},
      {"repl.apply_ms_p50", "ms"},
      {"repl.apply_ms_p90", "ms"},
      {"repl.records_shipped", "count"},
      {"repl.queue_dropped_records", "count"},
      {"repl.snapshots_shipped", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.blocking_path_gap_pct", "%"},
      {"loadgen.late_ms_p99", "ms"},
  };
  return specs;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

std::vector<nidc::RawDocument> GenerateStream(uint64_t seed) {
  nidc::GeneratorOptions options;
  options.scale = 1.0;
  options.seed = seed;
  nidc::Tdt2LikeGenerator generator(options);
  auto raw = generator.GenerateRaw();
  if (!raw.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 raw.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<nidc::RawDocument> docs = std::move(raw).value();
  std::stable_sort(docs.begin(), docs.end(),
                   [](const nidc::RawDocument& a, const nidc::RawDocument& b) {
                     return a.time < b.time;
                   });
  return docs;
}

std::unique_ptr<nidc::Corpus> AnalyzeStream(
    const std::vector<nidc::RawDocument>& raw) {
  auto corpus = std::make_unique<nidc::Corpus>();
  for (const nidc::RawDocument& doc : raw) {
    corpus->AddText(doc.text, doc.time, doc.topic, doc.source);
  }
  return corpus;
}

std::string StateOf(const nidc::IncrementalClusterer& clusterer) {
  return nidc::SerializeState(nidc::CaptureState(clusterer));
}

std::string Fingerprint(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

CpuTimes ReadCpuTimes() {
  CpuTimes out;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

std::string HostJson(const RunOptions& options, const CpuTimes& since) {
  const CpuTimes now = ReadCpuTimes();
  const uint64_t elapsed = now.total - since.total;
  struct utsname uts;
  const std::string kernel =
      ::uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                         : "unknown";
  JsonObjectBuilder host;
  host.Add("nproc", static_cast<uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  host.Add("cpu_model", CpuModel());
  host.Add("kernel", kernel);
  host.Add("scoring_kernel", nidc::kernels::Active().name);
  host.Add("build_type", NIDCBENCH_BUILD_TYPE);
  host.Add("workload", options.workload);
  host.Add("seed", options.seed);
  host.Add("seconds", options.seconds);
  host.Add("trace", options.trace);
  host.Add("cpu_steal_pct",
           elapsed > 0 ? 100.0 * static_cast<double>(now.steal - since.steal) /
                             static_cast<double>(elapsed)
                       : 0.0);
  return host.Render();
}

void ReportBlockingPath(
    const std::string& metric, const std::vector<double>& totals,
    const std::vector<std::map<std::string, double>>& components,
    RunResult* result) {
  const MedianPathSplit split = SplitMedianPath(totals, components);
  result->Set("obs.blocking_path_gap_pct", split.gap_pct, totals.size());
  JsonObjectBuilder parts;
  for (const auto& [name, ms] : split.components) parts.Add(name, ms);
  JsonObjectBuilder path;
  path.Add("end_to_end", metric)
      .Add("traced_p50_ms", split.p50)
      .Add("band_mean_ms", split.band_total)
      .Add("components_sum_ms", split.covered)
      .AddRaw("components_ms", parts.Render())
      .Add("gap_pct", split.gap_pct)
      .Add("tolerance_pct", kBlockingPathTolerancePct);
  result->Detail("blocking_path", path.Render());
  if (totals.empty() ||
      std::fabs(split.gap_pct) > kBlockingPathTolerancePct) {
    result->Fail("layer components do not add up to " + metric +
                 " within " + std::to_string(kBlockingPathTolerancePct) +
                 "%");
  }
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace nidcbench
