// Span recording for the traced run. Spans are taken in the benchmark's
// own code around each call it makes into a layer's public function;
// stages inside the server come from obs::RequestTracer records and are
// added with Add(). Everything stays in memory until WriteChromeTrace at
// the end of the run.

#ifndef NIDCBENCH_SPANS_H_
#define NIDCBENCH_SPANS_H_

#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace nidcbench {

/// Monotonic seconds on the clock obs::RequestTracer stamps with
/// (std::chrono::steady_clock), so bench spans and tracer stages line up.
double Now();

/// CPU seconds (user + system) used so far by every thread of this
/// process, and by the calling thread alone.
double ProcessCpuNow();
double ThreadCpuNow();

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per call.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1);
  /// Closes span `id` now (no-op for -1).
  void End(int id);
  /// Records a finished span with known bounds; returns its id.
  int Add(const std::string& name, double start, double end, int parent = -1);

  std::vector<Span> Snapshot() const;

  /// Writes every span in the Chrome trace-event format (load it in
  /// chrome://tracing or Perfetto). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent = -1)
      : recorder_(recorder), id_(recorder->Begin(name, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace nidcbench

#endif  // NIDCBENCH_SPANS_H_
