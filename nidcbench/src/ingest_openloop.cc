// ingest_openloop: eight tenants behind the RegisterShardHandlers front
// door that `nidc_cli serve` uses, with production durability (WAL fsync
// on every record, a checkpoint every 16 steps). A separate generator
// process offers keep-alive loopback POST /ingest requests, one
// tenant-day of documents each, on an open-loop schedule at a fixed
// document rate below the service's capacity. Per-tenant active sets are
// small, so HTTP, the JSONL codec, queue wait, corpus.tsv/WAL fsync and
// checkpoints dominate; K-means changes barely show here.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common.h"
#include "loadgen.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/serve/http_server.h"
#include "nidc/shard/http.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/service.h"
#include "nidc/shard/tenant.h"

namespace nidcbench {
namespace {

using nidc::obs::JsonObjectBuilder;

constexpr size_t kTenants = 8;
/// Offered document rate of every rung. It sits clearly below the
/// service's capacity: on a 4-vCPU host the service saturates anywhere
/// between about 1,500 and 5,500 docs/s depending on what else the machine
/// runs. No rung runs past capacity: rejected (429) requests can leave a
/// tenant's feed so sparse that its closing flush fails (see METRICS.md).
constexpr double kReferenceRate = 1000.0;
/// Untraced runs repeat the reference rung while measuring time remains,
/// and at least this often, so its metrics are medians over rungs.
constexpr size_t kMinReferenceRungs = 3;
/// A rung is sustainable (a reported verdict, not a check) when
/// apply_ms_p99 stays under this limit (the default latency objective of
/// `nidc_cli serve --slo-latency-ms`), at most this share of requests
/// fails, and no backlog builds up.
constexpr double kApplyLimitMs = 1000.0;
constexpr double kMaxFailShare = 0.001;
/// Generator lateness p99 above this makes a rung count as unsustainable:
/// the offered load was not the scheduled one.
constexpr double kLateBoundMs = 50.0;

struct Workload {
  std::vector<IngestRequest> requests;  // (day, tenant) order
  /// Parsed documents of each request (what the server will see).
  std::vector<std::vector<nidc::RawDocument>> parsed;
  std::vector<int64_t> day;
  nidc::shard::TenantConfig config;
  nidc::DayTime flush_until = 0.0;
  size_t docs = 0;
};

Workload BuildWorkload(uint64_t seed) {
  Workload w;
  std::vector<nidc::RawDocument> raw = GenerateStream(seed);
  w.config.params.half_life_days = 7.0;
  w.config.params.life_span_days = 30.0;
  w.config.k = 8;
  w.config.step_days = 1.0;
  w.config.start_time = std::floor(raw.front().time);
  w.flush_until = raw.back().time + w.config.step_days;
  // Round-robin over tenants in time order, then one request per
  // (day, tenant) with documents.
  std::map<std::pair<int64_t, size_t>, std::vector<nidc::RawDocument>> days;
  for (size_t i = 0; i < raw.size(); ++i) {
    const int64_t day = static_cast<int64_t>(
        std::floor(raw[i].time - w.config.start_time));
    days[{day, i % kTenants}].push_back(std::move(raw[i]));
  }
  for (auto& [key, docs] : days) {
    IngestRequest r;
    r.tenant = key.second;
    r.docs = docs.size();
    r.body = nidc::shard::FormatIngestJsonl(docs);
    auto parsed = nidc::shard::ParseIngestJsonl(r.body);
    if (!parsed.ok()) {
      std::fprintf(stderr, "codec round trip failed: %s\n",
                   parsed.status().ToString().c_str());
      std::exit(2);
    }
    w.parsed.push_back(std::move(parsed).value());
    w.day.push_back(key.first);
    w.docs += r.docs;
    w.requests.push_back(std::move(r));
  }
  return w;
}

// Standalone replay of each tenant through the Tenant class (no service,
// queues or HTTP): the digests every rung must reproduce, and the
// tenant's step count after each request (which requests close a window).
struct Reference {
  std::vector<std::string> digests;
  std::vector<uint64_t> steps_after;  // per request
  std::vector<uint64_t> final_steps;  // per tenant, before the flush
};

Reference ReplayReference(const Workload& w, const std::string& root,
                          RunResult* result) {
  Reference ref;
  ref.digests.resize(kTenants);
  ref.steps_after.resize(w.requests.size());
  ref.final_steps.resize(kTenants);
  std::vector<std::string> errors(kTenants);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string dir = root + "/" + TenantName(t);
      nidc::Env::Default()->CreateDir(dir);
      nidc::shard::TenantRuntime runtime;
      runtime.wal_sync = nidc::WalSyncMode::kNone;
      auto tenant =
          nidc::shard::Tenant::Create(TenantName(t), dir, w.config, runtime);
      if (!tenant.ok()) {
        errors[t] = tenant.status().ToString();
        return;
      }
      for (size_t i = 0; i < w.requests.size(); ++i) {
        if (w.requests[i].tenant != t) continue;
        if (auto s = (*tenant)->Ingest(w.parsed[i]); !s.ok()) {
          errors[t] = s.ToString();
          return;
        }
        ref.steps_after[i] = (*tenant)->steps_applied();
      }
      ref.final_steps[t] = (*tenant)->steps_applied();
      if (auto s = (*tenant)->FlushUntil(w.flush_until); !s.ok()) {
        errors[t] = s.ToString();
        return;
      }
      ref.digests[t] = (*tenant)->StateDigest();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kTenants; ++t) {
    if (!errors[t].empty()) {
      result->Fail("reference replay of " + TenantName(t) + ": " + errors[t]);
    }
  }
  return ref;
}

// What one rung measured.
struct RungOutcome {
  bool traced = false;
  double setup_seconds = 0.0;
  double duration_s = 0.0;
  size_t attempted = 0;
  size_t ok = 0;
  size_t rejected_429 = 0;
  std::vector<double> ack_ms;
  std::vector<double> apply_ms;
  std::vector<double> apply_sched_s;
  std::vector<double> late_ms;
  std::vector<double> late_sched_s;
  std::vector<double> depth_t_s;
  std::vector<double> depth;
  double achieved_docs_per_s = 0.0;
  /// CPU seconds the service's threads used over the rung.
  double service_cpu_s = 0.0;
  bool digests_checked = false;
  bool digests_match = true;
  bool sustainable = false;
  BacklogVerdict backlog;
  std::string error;
  // Server-side counters and traced stage intervals.
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> stages_ms;
  std::vector<double> busy_s_per_shard;
  /// Blocking path of each traced closing request: its apply latency
  /// and the components it splits into, ms.
  std::vector<double> path_totals;
  std::vector<std::map<std::string, double>> paths;
};

double Stamp(const nidc::obs::TraceRecord* rec, nidc::obs::Stage stage) {
  return rec == nullptr ? -1.0 : rec->StageSeconds(stage);
}

RungOutcome RunRung(const Workload& w, const Reference& ref,
                    const RunOptions& options, uint32_t rung, bool traced,
                    SpanRecorder* spans, const std::string& requests_path) {
  RungOutcome out;
  out.traced = traced;
  const std::string root = options.work_dir + "/rung" + std::to_string(rung);

  // Declared before the service and server so both are gone before the
  // tracer is.
  nidc::obs::RequestTracer::Options trace_options;
  trace_options.max_records = 1 << 15;
  trace_options.ring_capacity = 1 << 16;
  trace_options.max_doc_bindings = 1 << 15;
  nidc::obs::RequestTracer tracer(trace_options);
  nidc::obs::RequestTracer* wired = traced ? &tracer : nullptr;
  nidc::obs::MetricsRegistry registry;

  const double setup_start = Now();
  const int setup_span = spans->Begin("bench.rung_setup");
  nidc::shard::ShardServiceOptions service_options;
  service_options.root = root;
  service_options.metrics = &registry;
  service_options.tracer = wired;
  auto service = nidc::shard::ShardService::Start(std::move(service_options));
  if (!service.ok()) {
    out.error = "service start: " + service.status().ToString();
    return out;
  }
  nidc::serve::HttpServer server(nidc::serve::HttpServerOptions(), &registry);
  nidc::shard::RegisterShardHandlers(&server, service->get(), w.config,
                                     wired, nullptr);
  if (auto s = server.Start(0); !s.ok()) {
    out.error = "server start: " + s.ToString();
    return out;
  }
  for (size_t t = 0; t < kTenants; ++t) {
    if (auto s = (*service)->CreateTenant(TenantName(t), w.config); !s.ok()) {
      out.error = "create tenant: " + s.ToString();
      return out;
    }
  }
  spans->End(setup_span);
  out.setup_seconds = Now() - setup_start;

  // Apply observation: poll ShardService::Tenants() for step counts (the
  // /tenantz source) and the total queue depth.
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::pair<double, uint64_t>>> step_events(kTenants);
  std::vector<std::pair<double, double>> depth_samples;
  // The service's CPU time over the rung: the whole process less this
  // thread and the poller (the generator is a separate process).
  const double cpu_start = ProcessCpuNow();
  const double main_cpu_start = ThreadCpuNow();
  double poller_cpu = 0.0;
  std::thread poller([&] {
    const double poller_cpu_start = ThreadCpuNow();
    std::vector<uint64_t> last(kTenants, 0);
    double next_depth = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      const double now = Now();
      for (const nidc::shard::TenantInfo& info : (*service)->Tenants()) {
        const size_t t = static_cast<size_t>(
            std::atoi(info.name.c_str() + 4));  // "feedN"
        if (t < kTenants && info.steps_applied != last[t]) {
          last[t] = info.steps_applied;
          step_events[t].emplace_back(now, info.steps_applied);
        }
      }
      if (now >= next_depth) {
        depth_samples.emplace_back(
            now, static_cast<double>((*service)->TotalQueueDepth()));
        next_depth = now + 0.002;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    poller_cpu = ThreadCpuNow() - poller_cpu_start;
  });

  LoadGenRun run;
  run.self_exe = options.self_exe;
  run.port = server.port();
  run.requests_path = requests_path;
  run.outcomes_path = root + ".outcomes";
  run.docs_per_second = kReferenceRate;
  run.start = Now() + 0.3;
  run.connections = std::min<size_t>(
      kTenants, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  run.rung = rung;
  std::string error;
  const int load_span = spans->Begin("loadgen.rung");
  const bool generated = RunLoadGen(run, &error);
  spans->End(load_span);
  // Let the last windows apply before the poller stops: until every
  // tenant reaches its reference step count or, when rejected requests
  // leave some short of it, until the queues are empty and no step count
  // has moved for a second.
  const double settle_deadline = Now() + 10.0;
  uint64_t last_total = 0;
  double last_progress = Now();
  while (Now() < settle_deadline) {
    bool done = true;
    uint64_t total = 0;
    for (const nidc::shard::TenantInfo& info : (*service)->Tenants()) {
      const size_t t = static_cast<size_t>(std::atoi(info.name.c_str() + 4));
      total += info.steps_applied;
      if (t < kTenants && info.steps_applied < ref.final_steps[t]) {
        done = false;
      }
    }
    if (total != last_total) {
      last_total = total;
      last_progress = Now();
    }
    if (done || ((*service)->TotalQueueDepth() == 0 &&
                 Now() - last_progress > 1.0)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  out.service_cpu_s = ProcessCpuNow() - cpu_start - poller_cpu -
                      (ThreadCpuNow() - main_cpu_start);

  std::vector<RequestOutcome> outcomes;
  if (!generated || !ReadOutcomes(run.outcomes_path, w.requests.size(),
                                  &outcomes)) {
    out.error = "load generator: " + (generated ? "no outcome file" : error);
    return out;
  }

  // Per-request latencies, from the scheduled send.
  std::vector<size_t> docs;
  for (const IngestRequest& r : w.requests) docs.push_back(r.docs);
  const std::vector<double> due = MakeSchedule(docs, kReferenceRate);
  out.duration_s = due.back();
  std::vector<size_t> previous(w.requests.size(), SIZE_MAX);
  std::vector<size_t> last_of(kTenants, SIZE_MAX);
  std::vector<double> apply_at(w.requests.size(), -1.0);
  double last_apply = run.start;
  size_t applied_docs = 0;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const RequestOutcome& o = outcomes[i];
    const double sched = run.start + due[i];
    const size_t t = w.requests[i].tenant;
    previous[i] = last_of[t];
    last_of[t] = i;
    ++out.attempted;
    if (o.status == 429) ++out.rejected_429;
    if (o.sent > 0.0) {
      out.late_ms.push_back(Ms(sched, o.sent));
      out.late_sched_s.push_back(due[i]);
    }
    if (o.status != 202) continue;
    ++out.ok;
    out.ack_ms.push_back(Ms(sched, o.answered));
    const uint64_t before = previous[i] == SIZE_MAX
                                ? 0
                                : ref.steps_after[previous[i]];
    if (previous[i] == SIZE_MAX || ref.steps_after[i] <= before) {
      continue;  // closed no window
    }
    for (const auto& [when, steps] : step_events[t]) {
      if (steps >= ref.steps_after[i]) {
        apply_at[i] = when;
        break;
      }
    }
    if (apply_at[i] < 0.0) continue;  // never applied: a failure below
    out.apply_ms.push_back(Ms(sched, apply_at[i]));
    out.apply_sched_s.push_back(due[i]);
    last_apply = std::max(last_apply, apply_at[i]);
    applied_docs += w.requests[previous[i]].docs;
  }
  out.achieved_docs_per_s =
      static_cast<double>(applied_docs) / std::max(1e-9, last_apply - run.start);
  for (const auto& [t, d] : depth_samples) {
    if (t < run.start) continue;
    out.depth_t_s.push_back(t - run.start);
    out.depth.push_back(d);
  }

  // Outputs: flush every tenant and compare /digestz with the reference.
  for (size_t t = 0; t < kTenants; ++t) {
    if (auto s = (*service)->Flush(TenantName(t), w.flush_until); !s.ok()) {
      out.error = "flush of " + TenantName(t) + ": " + s.ToString();
    }
  }
  (*service)->Drain();
  // A rejected batch is missing from its tenant by design, so only a
  // rung where every request was accepted can be held to the reference.
  out.digests_checked = out.ok == out.attempted;
  for (size_t t = 0; t < kTenants && out.digests_checked; ++t) {
    std::string digest;
    const int status =
        HttpGet(server.port(), "/digestz?tenant=" + TenantName(t), &digest);
    if (status != 200 || digest != ref.digests[t]) {
      out.digests_match = false;
    }
  }
  for (const char* name :
       {"serve.requests", "serve.keepalive_reuses", "serve.connections_shed"}) {
    out.counters[name] =
        static_cast<double>(registry.GetCounter(name)->Value());
  }
  double cluster_s = 0.0;
  double stats_s = 0.0;
  for (size_t t = 0; t < kTenants; ++t) {
    auto tenant = (*service)->GetTenant(TenantName(t));
    if (tenant == nullptr) continue;
    cluster_s += tenant->metrics()
                     .GetHistogram("step.clustering_seconds", {1.0})
                     ->Sum();
    stats_s +=
        tenant->metrics().GetHistogram("step.stats_seconds", {1.0})->Sum();
  }
  out.counters["core.cluster_s"] = cluster_s;
  out.counters["forgetting.stats_update_s"] = stats_s;

  if (traced) {
    // Stage intervals from the tracer's records. Request i's trace covers
    // its own ingest/enqueue/dequeue; the window it closes holds the
    // documents of the tenant's previous request, whose trace carries
    // window_close/wal_commit/step/checkpoint.
    std::map<std::string, nidc::obs::TraceRecord> records;
    for (nidc::obs::TraceRecord& rec :
         tracer.Completed(trace_options.max_records)) {
      records.emplace(rec.id.ToHex(), std::move(rec));
    }
    const auto record_of = [&](size_t i) -> const nidc::obs::TraceRecord* {
      const std::string hex = TraceparentFor(rung, i).substr(3, 32);
      auto it = records.find(hex);
      return it == records.end() ? nullptr : &it->second;
    };
    using nidc::obs::Stage;
    out.busy_s_per_shard.assign((*service)->num_shards(), 0.0);
    const int root_span = spans->Begin("bench.rung_traces");
    for (size_t i = 0; i < w.requests.size(); ++i) {
      const nidc::obs::TraceRecord* own = record_of(i);
      const double sched = run.start + due[i];
      const double enqueue = Stamp(own, Stage::kEnqueue);
      const double dequeue = Stamp(own, Stage::kDequeue);
      if (enqueue >= 0.0 && dequeue >= enqueue) {
        out.stages_ms["shard.enqueue_wait"].push_back(Ms(enqueue, dequeue));
      }
      if (apply_at[i] < 0.0 || previous[i] == SIZE_MAX) continue;
      const size_t j = previous[i];
      if (ref.steps_after[i] - ref.steps_after[j] != 1 ||
          w.day[j] + 1 != w.day[i]) {
        continue;  // closed more than one window: no single chain
      }
      const nidc::obs::TraceRecord* window = record_of(j);
      const double ingest = Stamp(own, Stage::kIngest);
      const double close = Stamp(window, Stage::kWindowClose);
      const double wal = Stamp(window, Stage::kWalCommit);
      const double step = Stamp(window, Stage::kStep);
      const double checkpoint = Stamp(window, Stage::kCheckpoint);
      if (ingest < 0.0 || enqueue < 0.0 || dequeue < 0.0 || close < 0.0 ||
          wal < 0.0 || step < 0.0) {
        continue;
      }
      out.stages_ms["shard.tenant.ingest"].push_back(Ms(dequeue, close));
      out.stages_ms["store.wal_commit"].push_back(Ms(close, wal));
      if (checkpoint >= step) {
        out.stages_ms["store.checkpoint"].push_back(Ms(step, checkpoint));
      }
      const size_t shard = (*service)->ShardOf(TenantName(w.requests[i].tenant));
      out.busy_s_per_shard[shard] +=
          (std::max(step, checkpoint) - dequeue);
      const RequestOutcome& o = outcomes[i];
      std::map<std::string, double> path;
      path["loadgen.late"] = Ms(sched, o.sent);
      path["serve.http_and_codec"] = Ms(o.sent, ingest);
      path["shard.enqueue"] = Ms(ingest, enqueue);
      path["shard.enqueue_wait"] = Ms(enqueue, dequeue);
      path["shard.tenant.ingest"] = Ms(dequeue, close);
      path["store.wal_commit"] = Ms(close, wal);
      path["core.step"] = Ms(wal, step);
      path["bench.observe"] = Ms(step, apply_at[i]);
      out.path_totals.push_back(Ms(sched, apply_at[i]));
      out.paths.push_back(std::move(path));
      // The request's chain as spans under one root per request.
      const int req = spans->Add("bench.request", sched, apply_at[i], root_span);
      spans->Add("loadgen.late", sched, o.sent, req);
      spans->Add("serve.http_and_codec", o.sent, ingest, req);
      spans->Add("shard.enqueue", ingest, enqueue, req);
      spans->Add("shard.enqueue_wait", enqueue, dequeue, req);
      spans->Add("shard.tenant.ingest", dequeue, close, req);
      spans->Add("store.wal_commit", close, wal, req);
      spans->Add("core.step", wal, step, req);
      if (checkpoint >= step) {
        spans->Add("store.checkpoint", step, checkpoint, req);
      }
    }
    spans->End(root_span);
  }

  server.Stop();
  (*service)->Stop();
  RemoveTree(root);
  RemoveTree(run.outcomes_path);

  const double fail_share =
      1.0 - static_cast<double>(out.ok) / static_cast<double>(out.attempted);
  BacklogInput backlog;
  backlog.sched_s = out.apply_sched_s;
  backlog.apply_ms = out.apply_ms;
  backlog.send_sched_s = out.late_sched_s;
  backlog.late_ms = out.late_ms;
  backlog.depth_t_s = out.depth_t_s;
  backlog.depth = out.depth;
  backlog.duration_s = out.duration_s;
  out.backlog = DetectBacklog(backlog);
  out.sustainable = out.digests_match && fail_share <= kMaxFailShare &&
                    Percentile(out.apply_ms, 0.99) <= kApplyLimitMs &&
                    Percentile(out.late_ms, 0.99) <= kLateBoundMs &&
                    !out.backlog.growing;
  return out;
}

std::string RungJson(const RungOutcome& r) {
  JsonObjectBuilder b;
  b.Add("traced", r.traced)
      .Add("duration_s", r.duration_s)
      .Add("attempted", static_cast<uint64_t>(r.attempted))
      .Add("ok", static_cast<uint64_t>(r.ok))
      .Add("rejected_429", static_cast<uint64_t>(r.rejected_429))
      .Add("ack_ms_p50", Percentile(r.ack_ms, 0.5))
      .Add("ack_ms_p99", Percentile(r.ack_ms, 0.99))
      .Add("apply_ms_p50", Percentile(r.apply_ms, 0.5))
      .Add("apply_ms_p99", Percentile(r.apply_ms, 0.99))
      .Add("apply_samples", static_cast<uint64_t>(r.apply_ms.size()))
      .Add("late_ms_p99", Percentile(r.late_ms, 0.99))
      .Add("queue_depth_max",
           r.depth.empty() ? 0.0
                           : *std::max_element(r.depth.begin(), r.depth.end()))
      .Add("achieved_docs_per_s", r.achieved_docs_per_s)
      .Add("apply_growth_ms", r.backlog.apply_growth_ms)
      .Add("late_growth_ms", r.backlog.late_growth_ms)
      .Add("depth_growth", r.backlog.depth_growth)
      .Add("backlog", r.backlog.reason)
      .Add("digests_checked", r.digests_checked)
      .Add("digests_match", r.digests_match)
      .Add("sustainable", r.sustainable);
  if (!r.error.empty()) b.Add("error", r.error);
  return b.Render();
}

}  // namespace

RunResult RunIngestOpenLoop(const RunOptions& options, SpanRecorder* spans) {
  RunResult result;
  Workload w;
  const double prepare = MedianSetupSeconds(kSetupRepetitions, [&] {
    ScopedSpan span(spans, "bench.build_requests");
    w = BuildWorkload(options.seed);
  });
  const std::string requests_path = options.work_dir + "/requests.bin";
  if (!WriteRequests(requests_path, w.requests)) {
    result.Fail("cannot write the request file");
    return result;
  }
  nidc::Env::Default()->CreateDir(options.work_dir + "/reference");
  const Reference ref =
      ReplayReference(w, options.work_dir + "/reference", &result);
  RemoveTree(options.work_dir + "/reference");
  if (!result.correct) return result;

  // Untraced: the reference rate while measuring time remains. Traced:
  // the reference rate untraced, then traced, for the overhead and the
  // per-layer split.
  std::vector<RungOutcome> rungs;
  if (!options.trace) {
    // A further rung starts only when it can end before the deadline,
    // judged by the one before it.
    const double deadline = Now() + options.seconds;
    uint32_t rung = 0;
    double last = 0.0;
    while (rungs.size() < kMinReferenceRungs || Now() + last < deadline) {
      const double start = Now();
      rungs.push_back(
          RunRung(w, ref, options, rung++, false, spans, requests_path));
      last = Now() - start;
    }
  } else {
    rungs.push_back(RunRung(w, ref, options, 0, false, spans, requests_path));
    rungs.push_back(RunRung(w, ref, options, 1, true, spans, requests_path));
  }
  std::string rung_json = "[";
  std::vector<double> startup;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) rung_json += ",";
    rung_json += RungJson(rungs[i]);
    startup.push_back(rungs[i].setup_seconds);
    if (!rungs[i].error.empty()) {
      result.Fail("rung " + std::to_string(i) + ": " + rungs[i].error);
    }
    if (!rungs[i].digests_match) {
      result.Fail("rung " + std::to_string(i) +
                  ": a tenant's /digestz differs from its standalone replay");
    }
  }
  result.Detail("rungs", rung_json + "]");
  JsonObjectBuilder limits;
  limits.Add("apply_limit_ms", kApplyLimitMs)
      .Add("max_fail_share", kMaxFailShare)
      .Add("late_bound_ms", kLateBoundMs)
      .Add("offered_docs_per_s", kReferenceRate)
      .Add("requests", static_cast<uint64_t>(w.requests.size()))
      .Add("docs", static_cast<uint64_t>(w.docs));
  result.Detail("workload", limits.Render());
  result.Set("setup_s", prepare + Median(startup),
             kSetupRepetitions + startup.size());

  // Every untraced rung: medians are taken per rung and then over rungs,
  // so one disturbed rung does not move them; the tails are read from the
  // pooled samples.
  RungOutcome reference;
  std::vector<double> ack_p50;
  std::vector<double> apply_p50;
  std::vector<double> cpu_us;
  for (const RungOutcome& r : rungs) {
    if (r.traced) continue;
    cpu_us.push_back(r.service_cpu_s / static_cast<double>(w.docs) * 1e6);
    reference.attempted += r.attempted;
    reference.ok += r.ok;
    reference.ack_ms.insert(reference.ack_ms.end(), r.ack_ms.begin(),
                            r.ack_ms.end());
    reference.apply_ms.insert(reference.apply_ms.end(), r.apply_ms.begin(),
                              r.apply_ms.end());
    ack_p50.push_back(Percentile(r.ack_ms, 0.5));
    apply_p50.push_back(Percentile(r.apply_ms, 0.5));
  }
  result.attempted = reference.attempted;
  result.failed = reference.attempted - reference.ok;
  if (reference.ack_ms.size() < 1000) {
    result.Fail("fewer than 1000 answered requests at the reference rate");
  }
  if (!SupportsPercentile(reference.ack_ms.size(), 0.99) ||
      !SupportsPercentile(reference.apply_ms.size(), 0.99)) {
    result.Fail("p99 at the reference rate has fewer than 10 samples beyond");
  }
  result.Set("ack_ms_p50", Median(ack_p50), reference.ack_ms.size());
  result.Set("ack_ms_p99", Percentile(reference.ack_ms, 0.99),
             reference.ack_ms.size());
  result.Set("apply_ms_p50", Median(apply_p50), reference.apply_ms.size());
  result.Set("cpu_us_per_doc", Median(cpu_us), cpu_us.size());
  result.Set("apply_ms_p99", Percentile(reference.apply_ms, 0.99),
             reference.apply_ms.size());
  result.Set("ingest_fail_ratio",
             static_cast<double>(reference.attempted - reference.ok) /
                 static_cast<double>(reference.attempted),
             reference.attempted);
  if (!options.trace) return result;

  // Per-layer metrics from the traced rung.
  const RungOutcome& traced = rungs[1];
  {
    const double start = Now();
    size_t docs = 0;
    for (const IngestRequest& r : w.requests) {
      auto parsed = nidc::shard::ParseIngestJsonl(r.body);
      docs += parsed.ok() ? parsed->size() : 0;
    }
    result.Set("shard.codec.parse_us_per_doc",
               (Now() - start) / static_cast<double>(docs) * 1e6, docs);
    std::vector<nidc::RawDocument> raw = GenerateStream(options.seed);
    const double analyze_start = Now();
    const auto corpus = AnalyzeStream(raw);
    result.Set("text.analyze_us_per_doc",
               (Now() - analyze_start) / static_cast<double>(raw.size()) * 1e6,
               raw.size());
  }
  for (const auto& [name, value] : traced.counters) result.Set(name, value);
  const auto stage = [&](const std::string& name, const char* p50,
                         const char* p99) {
    auto it = traced.stages_ms.find(name);
    const std::vector<double> empty;
    const std::vector<double>& v = it == traced.stages_ms.end() ? empty
                                                                 : it->second;
    result.Set(p50, Percentile(v, 0.5), v.size());
    result.Set(p99, Percentile(v, 0.99), v.size());
  };
  stage("shard.enqueue_wait", "shard.enqueue_wait_ms_p50",
        "shard.enqueue_wait_ms_p99");
  stage("shard.tenant.ingest", "shard.tenant.ingest_ms_p50",
        "shard.tenant.ingest_ms_p99");
  stage("store.wal_commit", "store.wal_commit_ms_p50",
        "store.wal_commit_ms_p99");
  stage("store.checkpoint", "store.checkpoint_ms_p50",
        "store.checkpoint_ms_p99");
  result.Set("shard.queue_depth_max",
             traced.depth.empty()
                 ? 0.0
                 : *std::max_element(traced.depth.begin(), traced.depth.end()),
             traced.depth.size());
  result.Set("shard.rejected_429", static_cast<double>(traced.rejected_429));
  const double wall = traced.duration_s;
  double busiest = 0.0;
  for (double busy : traced.busy_s_per_shard) busiest = std::max(busiest, busy);
  result.Set("shard.busy_ratio_max", wall > 0.0 ? busiest / wall : 0.0,
             traced.busy_s_per_shard.size());
  result.Set("loadgen.late_ms_p99", Percentile(traced.late_ms, 0.99),
             traced.late_ms.size());
  result.Set("obs.trace_overhead_pct",
             (Percentile(traced.apply_ms, 0.5) /
                  Percentile(rungs[0].apply_ms, 0.5) -
              1.0) *
                 100.0,
             traced.apply_ms.size());

  ReportBlockingPath("apply_ms_p50", traced.path_totals, traced.paths,
                     &result);
  return result;
}

}  // namespace nidcbench
