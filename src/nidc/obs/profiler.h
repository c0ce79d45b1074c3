// Scoped phase spans (NIDC_SPAN) and the continuous self-profiler that is
// their one sink: an always-on per-step phase profile with wall *and* CPU
// time plus thread-pool-task attribution, cheap enough to leave running in
// production (the bench_sweep_hotpath overhead guard covers it).
//
//   obs::ScopedProfilerInstall install(&profiler);  // thread-local ambient
//   { NIDC_SPAN("kmeans.sweep"); ... }              // anywhere downstream
//
// Spans are *ambient*: the profiler installed on the calling thread
// decides whether anything is recorded, so the library is instrumented
// without plumbing a handle through every signature. With none installed
// a span costs one thread-local load and a branch (the "no registry = zero
// overhead" contract); on threads without one (thread-pool workers) spans
// are no-ops — phase structure is single-threaded, parallelism lives
// *inside* spans. Spans aggregate by their full collapsed path
// ("kmeans.run;kmeans.sweep"), and each closed span captures:
//   * wall seconds (steady clock),
//   * CPU seconds of the *installing* thread (CLOCK_THREAD_CPUTIME_ID —
//     pool workers burn CPU the thread clock cannot see, which is what
//     the next field is for),
//   * thread-pool tasks executed while the span was open (the delta of
//     ThreadPool::GlobalStats().tasks_executed), attributing parallel
//     fan-out to the phase that caused it.
//
// Exports:
//   * RenderCollapsed — collapsed-stack text ("path self_us" per line),
//     the input format of flamegraph.pl / speedscope;
//   * RenderJson — phase table (totals + last completed step), the
//     /profilez?format=json document;
//   * RenderStepTreeJson — the current step's spans as a nested tree,
//     the `trace` field of `nidc_cli stream --trace` records;
//   * RenderChromeTrace — trace-event JSON for chrome://tracing /
//     Perfetto, built from a bounded ring of raw span events.

#ifndef NIDC_OBS_PROFILER_H_
#define NIDC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/obs/metrics.h"

namespace nidc::obs {

class PhaseProfiler {
 public:
  struct Options {
    /// Hard cap on distinct collapsed paths; paths past the cap are
    /// dropped (bounded memory regardless of instrumentation growth).
    size_t max_phases = 256;
    /// Raw span events retained for the Chrome trace export (ring;
    /// oldest overwritten).
    size_t trace_capacity = 8192;
    /// Publishes profile.spans / profile.phases / profile.trace_dropped
    /// when non-null.
    MetricsRegistry* metrics = nullptr;
  };

  /// Aggregated statistics of one collapsed span path.
  struct PhaseStats {
    std::string path;  // "kmeans.run;kmeans.sweep"
    uint64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    uint64_t pool_tasks = 0;
  };

  PhaseProfiler() : PhaseProfiler(Options{}) {}
  explicit PhaseProfiler(Options options);

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Called by ScopedSpan when a span closes. `path` is the full
  /// collapsed path, `name` the leaf (a string literal with static
  /// storage), `start_seconds` the span's start offset from the
  /// profiler's epoch.
  void RecordSpan(const std::string& path, const char* name,
                  double start_seconds, double wall_seconds,
                  double cpu_seconds, uint64_t pool_tasks, uint32_t tid);

  /// Rolls the current step's aggregation into the "last step" slot and
  /// starts aggregating under `step` (the drivers call this at the start
  /// of each pipeline step, mirroring EventLog::SetStep).
  void SetStep(uint64_t step);

  /// Cumulative per-path totals since construction, heaviest wall first.
  std::vector<PhaseStats> Snapshot() const;
  /// The last *completed* step's per-path profile, heaviest wall first.
  std::vector<PhaseStats> LastStep() const;

  uint64_t spans_recorded() const;
  uint64_t step() const;

  /// Collapsed-stack flamegraph lines: "a;b;c <self-µs>\n" per path,
  /// where self time excludes the wall time of recorded child paths.
  std::string RenderCollapsed() const;

  /// `{"step":..,"spans":..,"totals":[{"path":..,"count":..,
  /// "wall_us":..,"cpu_us":..,"pool_tasks":..},...],"last_step":[...]}`.
  std::string RenderJson() const;

  /// The current (not yet rolled) step's spans as nested JSON:
  /// `{"name":"(root)","count":0,"seconds":0,"children":[{"name":..,
  /// "count":..,"seconds":..,"children":[...]},...]}`, `seconds` being
  /// wall time and children in path order. A path whose parent path was
  /// not recorded this step (cut by `max_phases`) is left out.
  std::string RenderStepTreeJson() const;

  /// Chrome trace-event JSON (`{"traceEvents":[...]}`; complete "X"
  /// events) over the retained raw span ring.
  std::string RenderChromeTrace() const;

 private:
  struct PhaseAccum {
    uint64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    uint64_t pool_tasks = 0;
  };

  struct SpanEvent {
    const char* name = "";  // static storage (NIDC_SPAN literals)
    double start_seconds = 0.0;
    double wall_seconds = 0.0;
    uint32_t tid = 0;
  };

  static std::vector<PhaseStats> Flatten(
      const std::map<std::string, PhaseAccum>& phases);
  /// JSON array of the tree nodes one segment below `prefix`.
  static std::string RenderTreeLevel(
      const std::map<std::string, PhaseAccum>& phases,
      const std::string& prefix);

  const Options options_;
  Counter* spans_counter_ = nullptr;
  Gauge* phases_gauge_ = nullptr;
  Counter* trace_dropped_counter_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, PhaseAccum> totals_;
  std::map<std::string, PhaseAccum> current_step_;
  std::map<std::string, PhaseAccum> last_step_;
  uint64_t step_ = 0;
  uint64_t spans_ = 0;
  std::vector<SpanEvent> trace_ring_;
  uint64_t trace_next_ = 0;  // total events ever pushed
};

/// RAII installation of `profiler` as the calling thread's ambient
/// profiler; restores the previous one on destruction. Null uninstalls
/// for the scope.
class ScopedProfilerInstall {
 public:
  explicit ScopedProfilerInstall(PhaseProfiler* profiler);
  ~ScopedProfilerInstall();

  ScopedProfilerInstall(const ScopedProfilerInstall&) = delete;
  ScopedProfilerInstall& operator=(const ScopedProfilerInstall&) = delete;

  /// The profiler installed on this thread, or nullptr.
  static PhaseProfiler* Current();

 private:
  PhaseProfiler* previous_;
};

/// RAII span: opens a frame under the innermost open span of the thread's
/// profiler (no-op when none is installed); closes it and records its
/// wall/CPU time and pool tasks on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;  // a profiler frame is open for this span
};

}  // namespace nidc::obs

#define NIDC_SPAN_CONCAT_INNER(a, b) a##b
#define NIDC_SPAN_CONCAT(a, b) NIDC_SPAN_CONCAT_INNER(a, b)

/// Opens a scoped span covering the rest of the enclosing block:
///   NIDC_SPAN("kmeans.sweep");
#define NIDC_SPAN(name) \
  ::nidc::obs::ScopedSpan NIDC_SPAN_CONCAT(nidc_span_, __LINE__)(name)

#endif  // NIDC_OBS_PROFILER_H_
