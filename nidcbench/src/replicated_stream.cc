// replicated_stream: one DurableClusterer leader wired to a WalShipper,
// and over loopback TCP (ReplListener / TcpReplClient) to a
// ReplicaClusterer follower — the wiring of `nidc_cli stream --ship-port`
// plus `nidc_cli follow`, in one process. The leader steps half-day
// windows, one every 8 ms (kStepIntervalS), with WAL fsync on every
// record, a tight checkpoint cadence and a short life span, so K-means is
// a minority of each step. A back-to-back leader outruns its follower,
// and the lag then measures a growing follower backlog rather than
// replication; the pacing keeps the follower able to keep up. After each
// pass DurableClusterer::Open recovers a copy of the leader directory
// taken while it had a WAL tail. This is the only workload that exercises
// repl, and it uses store for writes (WAL, rotation) and reads
// (recovery).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "common.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/repl/replica.h"
#include "nidc/repl/shipper.h"
#include "nidc/repl/tcp.h"
#include "nidc/store/durable_clusterer.h"

namespace nidcbench {
namespace {

using nidc::obs::JsonObjectBuilder;

constexpr double kWindowDays = 0.5;
constexpr uint64_t kCheckpointEvery = 4;
/// The leader starts a step every kStepIntervalS (or at once when it runs
/// late), an offered load the follower can keep up with, so lag measures
/// replication rather than an ever-growing follower backlog.
constexpr double kStepIntervalS = 0.008;
constexpr size_t kRecoveriesPerPass = 8;

nidc::ForgettingParams StreamParams() {
  nidc::ForgettingParams params;
  params.half_life_days = 0.5;
  params.life_span_days = 1.0;
  return params;
}

nidc::IncrementalOptions StreamOptions() {
  nidc::IncrementalOptions options;
  options.kmeans.k = 4;
  options.kmeans.seed = 7;
  // Leader and follower step concurrently on one host; one K-means
  // thread each keeps them from contending for the same cores.
  options.kmeans.num_threads = 1;
  return options;
}

struct Window {
  std::vector<nidc::DocId> docs;
  nidc::DayTime end = 0.0;
};

struct PassOutcome {
  std::string error;
  double setup_seconds = 0.0;
  std::vector<double> step_seconds;
  size_t docs = 0;
  uint64_t failed_steps = 0;
  std::vector<double> lag_ms;
  std::vector<double> recover_seconds;
  uint64_t replayed_records = 0;
  bool follower_matches = false;
  bool recovered_matches = true;
  double stats_s = 0.0;
  double cluster_s = 0.0;
  /// CPU seconds leader, shipper and follower used over the pass.
  double cpu_s = 0.0;
  // Traced passes only.
  std::map<std::string, std::vector<double>> stages_ms;
  std::vector<double> path_totals;
  std::vector<std::map<std::string, double>> paths;
  nidc::repl::ShipperStats ship;
  double snapshot_bytes = 0.0;
  double wal_bytes = 0.0;
};

double FileBytes(const std::string& dir, const std::string& prefix) {
  double newest = 0.0;
  std::error_code ec;
  std::filesystem::file_time_type newest_time;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const auto when = entry.last_write_time(ec);
    if (newest == 0.0 || when > newest_time) {
      newest_time = when;
      newest = static_cast<double>(entry.file_size(ec));
    }
  }
  return newest;
}

PassOutcome RunPass(const nidc::Corpus& corpus,
                    const std::vector<Window>& windows,
                    const RunOptions& options, int pass, bool traced,
                    SpanRecorder* spans) {
  PassOutcome out;
  const std::string base = options.work_dir + "/pass" + std::to_string(pass);
  const std::string leader_dir = base + "/leader";
  const std::string follower_dir = base + "/follower";
  std::filesystem::create_directories(base);

  // Declared first so every layer holding it is destroyed before it.
  nidc::obs::RequestTracer::Options trace_options;
  trace_options.max_records = 1 << 12;
  trace_options.ring_capacity = 1 << 14;
  nidc::obs::RequestTracer tracer(trace_options);
  nidc::obs::RequestTracer* wired = traced ? &tracer : nullptr;
  nidc::obs::MetricsRegistry leader_metrics;

  const double setup_start = Now();
  const int setup_span = spans->Begin("bench.stream_setup");
  nidc::repl::ShipperOptions ship_options;
  ship_options.dir = leader_dir;
  ship_options.tracer = wired;
  nidc::repl::WalShipper shipper(ship_options);
  nidc::DurableOptions durable_options;
  durable_options.dir = leader_dir;
  durable_options.checkpoint_every = kCheckpointEvery;
  durable_options.wal_sync = nidc::WalSyncMode::kEveryRecord;
  durable_options.metrics = &leader_metrics;
  durable_options.sink = &shipper;
  durable_options.tracer = wired;
  auto leader = nidc::DurableClusterer::Open(&corpus, StreamParams(),
                                             StreamOptions(), durable_options);
  if (!leader.ok()) {
    out.error = "leader open: " + leader.status().ToString();
    return out;
  }
  nidc::repl::ReplListener listener(&shipper);
  if (auto s = listener.Start(0); !s.ok()) {
    out.error = "listener: " + s.ToString();
    return out;
  }
  nidc::repl::ReplicaOptions replica_options;
  replica_options.dir = follower_dir;
  replica_options.tracer = wired;
  auto replica = nidc::repl::ReplicaClusterer::Open(
      &corpus, StreamParams(), StreamOptions(), replica_options);
  if (!replica.ok()) {
    out.error = "replica open: " + replica.status().ToString();
    return out;
  }
  nidc::repl::TcpReplClientOptions client_options;
  client_options.port = listener.port();
  nidc::repl::TcpReplClient client(replica->get(), client_options);
  if (auto s = client.Start(); !s.ok()) {
    out.error = "client: " + s.ToString();
    return out;
  }
  // Start-up ends once the follower holds the leader's base snapshot.
  const double ready_deadline = Now() + 10.0;
  while ((*replica)->stats().generation < (*leader)->generation()) {
    if (Now() > ready_deadline) {
      out.error = "follower never caught up with the base snapshot";
      return out;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  spans->End(setup_span);
  out.setup_seconds = Now() - setup_start;

  // Follower progress, polled from ReplicaClusterer::stats().
  std::atomic<bool> stop{false};
  std::vector<std::pair<double, uint64_t>> applied_events;
  double poller_cpu = 0.0;
  std::thread poller([&] {
    const double poller_cpu_start = ThreadCpuNow();
    uint64_t last = (*replica)->stats().applied_steps;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t applied = (*replica)->stats().applied_steps;
      if (applied != last) {
        last = applied;
        applied_events.emplace_back(Now(), applied);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    poller_cpu = ThreadCpuNow() - poller_cpu_start;
  });

  // The copy for the recovery check is taken after the last step that
  // leaves the longest WAL tail (kCheckpointEvery - 1 records).
  size_t copy_after = windows.size();
  while (copy_after > 0 && copy_after % kCheckpointEvery != kCheckpointEvery - 1) {
    --copy_after;
  }
  std::string state_at_copy;
  std::vector<std::pair<uint64_t, double>> returned;  // (steps, time)
  std::vector<nidc::obs::TraceContext> step_traces;
  const int pass_span = spans->Begin("bench.stream_pass");
  const double pass_start = Now();
  // Process CPU over the pass, less the poller and the copies below.
  const double cpu_start = ProcessCpuNow();
  double copy_cpu = 0.0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    const double due = pass_start + static_cast<double>(i) * kStepIntervalS;
    while (Now() < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - Now()));
    }
    nidc::obs::TraceContext trace;
    if (traced) {
      trace = tracer.Mint();
      tracer.Begin(trace, "stream");
      tracer.RecordStage(trace, nidc::obs::Stage::kIngest);
      tracer.RecordStage(trace, nidc::obs::Stage::kWindowClose);
    }
    nidc::obs::RequestTracer::StepScope scope(
        traced ? &tracer : nullptr,
        traced ? std::vector<nidc::obs::TraceContext>{trace}
               : std::vector<nidc::obs::TraceContext>{});
    const int span = spans->Begin("store.durable_step", pass_span);
    const uint64_t before = (*leader)->applied_steps();
    const double start = Now();
    auto result = (*leader)->Step(w.docs, w.end);
    const double end = Now();
    spans->End(span);
    if (!result.ok()) {
      ++out.failed_steps;
      continue;
    }
    out.step_seconds.push_back(end - start);
    out.docs += w.docs.size();
    out.stats_s += result->stats_update_seconds;
    out.cluster_s += result->clustering_seconds;
    if ((*leader)->applied_steps() > before) {
      returned.emplace_back((*leader)->applied_steps(), end);
      step_traces.push_back(trace);
    }
    if (i + 1 == copy_after) {
      const double copy_start = ThreadCpuNow();
      state_at_copy = StateOf((*leader)->clusterer());
      for (size_t c = 0; c < kRecoveriesPerPass; ++c) {
        std::filesystem::copy(leader_dir, base + "/copy" + std::to_string(c),
                              std::filesystem::copy_options::recursive);
      }
      copy_cpu = ThreadCpuNow() - copy_start;
    }
  }
  spans->End(pass_span);

  const std::string leader_state = StateOf((*leader)->clusterer());
  const uint64_t leader_steps = (*leader)->applied_steps();
  const double catch_up_deadline = Now() + 10.0;
  while ((*replica)->stats().applied_steps < leader_steps &&
         Now() < catch_up_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  out.cpu_s = ProcessCpuNow() - cpu_start - poller_cpu - copy_cpu;
  client.Stop();
  out.follower_matches = StateOf(*(*replica)->clusterer()) == leader_state;
  out.ship = shipper.stats();
  out.wal_bytes = static_cast<double>(
      leader_metrics.GetCounter("store.wal_bytes")->Value());
  out.snapshot_bytes = FileBytes(leader_dir, "snapshot");

  // Lag of every step: leader Step return -> follower covers the step.
  std::vector<double> applied_at(returned.size(), -1.0);
  size_t e = 0;
  for (size_t k = 0; k < returned.size(); ++k) {
    while (e < applied_events.size() &&
           applied_events[e].second < returned[k].first) {
      ++e;
    }
    if (e == applied_events.size()) break;
    applied_at[k] = applied_events[e].first;
    out.lag_ms.push_back(Ms(returned[k].second, applied_at[k]));
  }

  if (traced) {
    using nidc::obs::Stage;
    for (size_t k = 0; k < returned.size(); ++k) {
      nidc::obs::TraceRecord rec;
      if (!tracer.Lookup(step_traces[k], &rec)) continue;
      const double close = rec.StageSeconds(Stage::kWindowClose);
      const double wal = rec.StageSeconds(Stage::kWalCommit);
      const double ship = rec.StageSeconds(Stage::kShip);
      const double step = rec.StageSeconds(Stage::kStep);
      const double checkpoint = rec.StageSeconds(Stage::kCheckpoint);
      const double apply = rec.StageSeconds(Stage::kApply);
      if (close >= 0.0 && wal >= close) {
        out.stages_ms["store.wal_commit"].push_back(Ms(close, wal));
      }
      if (step >= 0.0 && checkpoint >= step) {
        out.stages_ms["store.checkpoint"].push_back(Ms(step, checkpoint));
      }
      if (wal >= 0.0 && ship >= wal) {
        out.stages_ms["repl.ship"].push_back(Ms(wal, ship));
      }
      if (ship >= 0.0 && apply >= ship) {
        out.stages_ms["repl.apply"].push_back(Ms(ship, apply));
      }
      if (ship >= 0.0 && apply >= ship && applied_at[k] >= 0.0) {
        // Blocking path after the leader returns. The record left at the
        // ship stamp, so the follower's transit, WAL append and re-step
        // (ship -> apply) ran while the leader finished its own step
        // (ship -> return); the lag is what the first leaves beyond the
        // second, then the poll that observes the follower's step count.
        const double leader_return = returned[k].second;
        out.path_totals.push_back(Ms(leader_return, applied_at[k]));
        out.paths.push_back(
            {{"repl.apply", Ms(ship, apply)},
             {"store.leader_step_after_ship", -Ms(ship, leader_return)},
             {"bench.observe", Ms(apply, applied_at[k])}});
        const int req =
            spans->Add("bench.follower_lag", leader_return, applied_at[k]);
        spans->Add("repl.apply", ship, apply, req);
      }
    }
  }

  listener.Stop();
  if (auto s = (*replica)->Close(); !s.ok()) {
    out.error = "replica close: " + s.ToString();
  }
  if (auto s = (*leader)->Close(); !s.ok()) {
    out.error = "leader close: " + s.ToString();
  }

  // Recovery of the copies: snapshot + WAL-tail replay.
  for (size_t c = 0; c < kRecoveriesPerPass && !state_at_copy.empty(); ++c) {
    nidc::DurableOptions recover_options;
    recover_options.dir = base + "/copy" + std::to_string(c);
    recover_options.checkpoint_every = kCheckpointEvery;
    const int span = spans->Begin("store.recover");
    const double start = Now();
    auto recovered = nidc::DurableClusterer::Open(
        &corpus, StreamParams(), StreamOptions(), recover_options);
    const double end = Now();
    spans->End(span);
    if (!recovered.ok()) {
      out.error = "recover: " + recovered.status().ToString();
      out.recovered_matches = false;
      continue;
    }
    out.recover_seconds.push_back(end - start);
    out.replayed_records = (*recovered)->recovery().replayed_records;
    if (StateOf((*recovered)->clusterer()) != state_at_copy ||
        out.replayed_records == 0) {
      out.recovered_matches = false;
    }
  }
  RemoveTree(base);
  return out;
}

}  // namespace

RunResult RunReplicatedStream(const RunOptions& options, SpanRecorder* spans) {
  RunResult result;
  std::vector<nidc::RawDocument> raw;
  std::unique_ptr<nidc::Corpus> corpus;
  std::vector<double> analyze_seconds;
  const double prepare = MedianSetupSeconds(kSetupRepetitions, [&] {
    ScopedSpan span(spans, "bench.setup");
    raw = GenerateStream(options.seed);
    const double start = Now();
    corpus = AnalyzeStream(raw);
    analyze_seconds.push_back(Now() - start);
  });
  std::vector<Window> windows;
  nidc::DocumentStream stream(corpus.get(), std::floor(corpus->MinTime()),
                              corpus->MaxTime() + 1e-6, kWindowDays);
  while (auto batch = stream.Next()) {
    windows.push_back(Window{batch->docs, batch->end});
  }

  std::vector<PassOutcome> plain;
  std::vector<PassOutcome> traced;
  int pass = 0;
  // One unmeasured pass first: the file system settles (writeback of
  // earlier work, directory creation) before anything is timed.
  const PassOutcome warmup =
      RunPass(*corpus, windows, options, pass++, false, spans);
  const double deadline = Now() + options.seconds;
  while (true) {
    plain.push_back(RunPass(*corpus, windows, options, pass++, false, spans));
    if (options.trace) {
      traced.push_back(RunPass(*corpus, windows, options, pass++, true, spans));
    }
    if (plain.size() + traced.size() >= 2 && Now() >= deadline) break;
  }

  std::vector<double> startup;
  std::vector<double> step_seconds;
  std::vector<double> lag_ms;
  std::vector<double> recover_s;
  std::vector<const PassOutcome*> all = {&warmup};
  for (const auto& p : plain) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);
  for (const PassOutcome* p : all) {
    result.attempted += p->step_seconds.size() + p->failed_steps;
    result.failed += p->failed_steps;
    if (!p->error.empty()) result.Fail("replicated_stream: " + p->error);
    if (!p->follower_matches) {
      result.Fail("replicated_stream: follower state differs from the "
                  "leader's");
    }
    if (!p->recovered_matches || p->recover_seconds.empty()) {
      result.Fail("replicated_stream: recovered state differs from the "
                  "leader's at the copy point");
    }
    startup.push_back(p->setup_seconds);
  }
  std::vector<double> lag_p50;
  for (const PassOutcome& p : plain) {
    lag_p50.push_back(Percentile(p.lag_ms, 0.5));
    step_seconds.insert(step_seconds.end(), p.step_seconds.begin(),
                        p.step_seconds.end());
    lag_ms.insert(lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    recover_s.insert(recover_s.end(), p.recover_seconds.begin(),
                     p.recover_seconds.end());
  }
  std::vector<double> pass_rates;
  std::vector<double> pass_cpu_us;
  for (const PassOutcome& p : plain) {
    pass_cpu_us.push_back(p.cpu_s / static_cast<double>(p.docs) * 1e6);
    double seconds = 0.0;
    for (double s : p.step_seconds) seconds += s;
    pass_rates.push_back(static_cast<double>(p.docs) / seconds);
  }
  result.Set("setup_s", prepare + Median(startup),
             kSetupRepetitions + startup.size());
  result.Set("durable_docs_per_s", Median(pass_rates), pass_rates.size());
  if (!SupportsPercentile(lag_ms.size(), 0.90)) {
    result.Fail("follower_lag_ms_p90: fewer than 10 samples beyond it");
  }
  // Median over passes of each pass's median: one disturbed pass does
  // not move it.
  result.Set("follower_lag_ms_p50", Median(lag_p50), lag_ms.size());
  result.Set("cpu_us_per_doc", Median(pass_cpu_us), pass_cpu_us.size());
  result.Set("follower_lag_ms_p90", Percentile(lag_ms, 0.9), lag_ms.size());
  result.Set("recover_s", Median(recover_s), recover_s.size());
  JsonObjectBuilder shape;
  shape.Add("windows", static_cast<uint64_t>(windows.size()))
      .Add("window_days", kWindowDays)
      .Add("checkpoint_every", kCheckpointEvery)
      .Add("passes", static_cast<uint64_t>(plain.size()))
      .Add("leader_step_ms_p50", Percentile(step_seconds, 0.5) * 1e3)
      .Add("leader_cluster_s", plain.front().cluster_s)
      .Add("leader_stats_s", plain.front().stats_s)
      .Add("lag_ms_p50_first_half",
           Percentile({plain.front().lag_ms.begin(),
                       plain.front().lag_ms.begin() +
                           plain.front().lag_ms.size() / 2},
                      0.5))
      .Add("lag_ms_p50_second_half",
           Percentile({plain.front().lag_ms.begin() +
                           plain.front().lag_ms.size() / 2,
                       plain.front().lag_ms.end()},
                      0.5));
  result.Detail("stream", shape.Render());
  if (!options.trace) return result;

  result.Set("text.analyze_us_per_doc",
             Median(analyze_seconds) / static_cast<double>(raw.size()) * 1e6,
             analyze_seconds.size());
  const auto median_of = [&](auto pick) {
    std::vector<double> values;
    for (const PassOutcome& p : traced) values.push_back(pick(p));
    return Median(values);
  };
  result.Set("core.cluster_s",
             median_of([](const PassOutcome& p) { return p.cluster_s; }),
             traced.size());
  result.Set("forgetting.stats_update_s",
             median_of([](const PassOutcome& p) { return p.stats_s; }),
             traced.size());
  std::map<std::string, std::vector<double>> stages;
  for (const PassOutcome& p : traced) {
    for (const auto& [name, v] : p.stages_ms) {
      stages[name].insert(stages[name].end(), v.begin(), v.end());
    }
  }
  const auto stage = [&](const std::string& name, const std::string& metric,
                         double q1, double q2, const char* s1,
                         const char* s2) {
    const std::vector<double>& v = stages[name];
    result.Set(metric + s1, Percentile(v, q1), v.size());
    result.Set(metric + s2, Percentile(v, q2), v.size());
  };
  stage("store.wal_commit", "store.wal_commit_ms", 0.5, 0.99, "_p50", "_p99");
  stage("store.checkpoint", "store.checkpoint_ms", 0.5, 0.99, "_p50", "_p99");
  stage("repl.ship", "repl.ship_ms", 0.5, 0.9, "_p50", "_p90");
  stage("repl.apply", "repl.apply_ms", 0.5, 0.9, "_p50", "_p90");
  const PassOutcome& t0 = traced.front();
  result.Set("repl.records_shipped",
             static_cast<double>(t0.ship.records_shipped));
  result.Set("repl.queue_dropped_records",
             static_cast<double>(t0.ship.queue_dropped_records));
  result.Set("repl.snapshots_shipped",
             static_cast<double>(t0.ship.snapshots_shipped));
  result.Set("store.snapshot_bytes", t0.snapshot_bytes);
  result.Set("store.wal_bytes", t0.wal_bytes);
  result.Set("store.recover_replay_records",
             static_cast<double>(t0.replayed_records));
  std::vector<double> traced_lag;
  for (const PassOutcome& p : traced) {
    traced_lag.insert(traced_lag.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  result.Set("obs.trace_overhead_pct",
             (Percentile(traced_lag, 0.5) / Percentile(lag_ms, 0.5) - 1.0) *
                 100.0,
             traced_lag.size());

  // Blocking path after the leader returns: the follower's apply less
  // the leader's own work it overlapped, then the poll that observes it.
  std::vector<double> totals;
  std::vector<std::map<std::string, double>> paths;
  for (const PassOutcome& p : traced) {
    totals.insert(totals.end(), p.path_totals.begin(), p.path_totals.end());
    paths.insert(paths.end(), p.paths.begin(), p.paths.end());
  }
  ReportBlockingPath("follower_lag_ms_p50", totals, paths, &result);
  return result;
}

}  // namespace nidcbench
