// nidcbench: the repository benchmark program (see ../METRICS.md).
//
//   nidcbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --data-dir DIR --report-dir DIR
//
// Runs one workload, checks its outputs, writes the full report (and, in
// a traced run, the spans) under --report-dir, and prints as its last
// stdout line {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric untraced, every per-layer metric traced.
// Exits 1 when any output check failed, 2 on a usage or set-up error.
//
//   nidcbench loadgen ...   the open-loop load generator child process
//                           (spawned by the ingest_openloop workload)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "nidc/obs/json_util.h"

namespace nidcbench {
namespace {

using nidc::obs::JsonNumber;
using nidc::obs::JsonObjectBuilder;

int Usage(const char* message) {
  std::fprintf(stderr,
               "nidcbench: %s\nusage: nidcbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --data-dir DIR "
               "--report-dir DIR\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options,
               std::string* report_dir) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else if (key == "--data-dir") {
      options->data_dir = value;
    } else if (key == "--report-dir") {
      *report_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

// The metric set a run prints: every end-to-end metric untraced (each
// workload measures all of them), every per-layer metric traced (0 for a
// layer the workload does not exercise).
std::vector<MetricValue> Published(const RunOptions& options,
                                   RunResult* result) {
  std::vector<MetricValue> out;
  const auto find = [&](const char* name) -> const MetricValue* {
    for (const MetricValue& m : result->metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (!options.trace) {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      const MetricValue* m = find(spec.name);
      if (m == nullptr || !std::isfinite(m->value)) {
        result->Fail(std::string("metric not measured: ") + spec.name);
        out.push_back(MetricValue{spec.name, 0.0, spec.unit, 0});
      } else {
        out.push_back(*m);
      }
    }
    return out;
  }
  for (const MetricSpec& spec : PerLayerMetrics()) {
    const MetricValue* m = find(spec.name);
    if (m != nullptr && std::isfinite(m->value)) {
      out.push_back(*m);
    } else {
      out.push_back(MetricValue{spec.name, 0.0, spec.unit, 0});
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "loadgen") == 0) {
    return LoadGenMain(argc - 1, argv + 1);
  }
  RunOptions options;
  std::string report_dir;
  if (!ParseArgs(argc, argv, &options, &report_dir)) {
    return Usage("bad arguments");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == options.workload;
  if (!known) return Usage("unknown workload");
  if (options.seconds <= 0.0 || options.work_dir.empty() ||
      options.data_dir.empty() || report_dir.empty()) {
    return Usage("missing --seconds/--work-dir/--data-dir/--report-dir");
  }
  options.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  RemoveTree(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(report_dir);

  const CpuTimes cpu_at_start = ReadCpuTimes();
  SpanRecorder spans(options.trace);
  RunResult result;
  if (options.workload == "paper_replay") {
    result = RunPaperReplay(options, &spans);
  } else if (options.workload == "ingest_openloop") {
    result = RunIngestOpenLoop(options, &spans);
  } else {
    result = RunReplicatedStream(options, &spans);
  }
  RemoveTree(options.work_dir);

  const std::vector<MetricValue> published = Published(options, &result);
  const std::string stem = report_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  if (options.trace) {
    if (!spans.WriteChromeTrace(stem + ".spans.json")) {
      result.Fail("cannot write " + stem + ".spans.json");
    }
    // Self time per span name: where the traced run's time went, layer by
    // layer, with each span's children taken out.
    const std::vector<Span> recorded = spans.Snapshot();
    const std::vector<double> self = SelfTimes(recorded);
    std::map<std::string, std::pair<double, uint64_t>> by_name;
    for (size_t i = 0; i < recorded.size(); ++i) {
      by_name[recorded[i].name].first += self[i];
      ++by_name[recorded[i].name].second;
    }
    JsonObjectBuilder table;
    for (const auto& [name, total] : by_name) {
      JsonObjectBuilder row;
      row.Add("self_s", total.first).Add("spans", total.second);
      table.AddRaw(name, row.Render());
    }
    result.Detail("span_self_time", table.Render());
  }

  // The full report: host, every measured value with its sample count,
  // workload details and check failures.
  JsonObjectBuilder measured;
  for (const MetricValue& m : result.metrics) {
    JsonObjectBuilder row;
    row.Add("value", m.value).Add("unit", m.unit).Add(
        "samples", static_cast<uint64_t>(m.samples));
    measured.AddRaw(m.name, row.Render());
  }
  JsonObjectBuilder details;
  for (const auto& [key, raw] : result.details) details.AddRaw(key, raw);
  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += '"';
    errors += nidc::obs::JsonEscape(result.errors[i]);
    errors += '"';
  }
  errors += "]";
  JsonObjectBuilder report;
  report.AddRaw("host", HostJson(options, cpu_at_start));
  report.Add("correct", result.correct);
  report.AddRaw("errors", errors);
  report.AddRaw("measured", measured.Render());
  report.AddRaw("details", details.Render());
  const std::string report_json = report.Render();
  if (FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", report_json.c_str());
    std::fclose(f);
  }

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const MetricValue& m : published) {
    std::printf("%-36s %14.6g %-7s (%zu samples)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("report %s\n", report_json.c_str());

  std::string metrics = "{";
  for (size_t i = 0; i < published.size(); ++i) {
    const MetricValue& m = published[i];
    if (i > 0) metrics += ", ";
    metrics += '"';
    metrics += m.name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace nidcbench

int main(int argc, char** argv) { return nidcbench::Main(argc, argv); }
