#include "spans.h"

#include <time.h>

#include <chrono>
#include <cstdio>

#include "nidc/obs/json_util.h"

namespace nidcbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuClock(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuNow() { return CpuClock(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuNow() { return CpuClock(CLOCK_THREAD_CPUTIME_ID); }

int SpanRecorder::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, start, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = end;
}

int SpanRecorder::Add(const std::string& name, double start, double end,
                      int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // The layer (text before the first dot) becomes the track, so each
    // layer reads as one row.
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                 nidc::obs::JsonEscape(s.name).c_str(),
                 nidc::obs::JsonEscape(layer).c_str(),
                 nidc::obs::JsonEscape(layer).c_str(),
                 (s.start - origin) * 1e6, s.Duration() * 1e6, i, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace nidcbench
