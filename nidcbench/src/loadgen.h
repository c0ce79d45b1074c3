// The open-loop load generator of the ingest_openloop workload. It runs
// as a child process (`nidcbench loadgen ...`) so the system under test
// never shares a process with its load. One thread drives every
// connection from a poll loop: each request is written when it is due,
// whether or not earlier ones were answered (HTTP/1.1 pipelining on
// keep-alive connections), so a slow server cannot slow the offered
// load — it only makes requests wait, which their latency, timed from
// the due time, shows.

#ifndef NIDCBENCH_LOADGEN_H_
#define NIDCBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace nidcbench {

/// One POST /ingest of the workload.
struct IngestRequest {
  size_t tenant = 0;
  size_t docs = 0;
  std::string body;  // JSONL
};

/// What the generator observed for one request. Times are steady-clock
/// seconds; status 0 = no answer (connection lost or timed out).
struct RequestOutcome {
  int status = 0;
  double sent = 0.0;
  double answered = 0.0;
};

std::string TenantName(size_t tenant);

/// The W3C trace id the generator sends with request `index` of rung
/// `rung`, so the benchmark can find the request's trace record.
std::string TraceparentFor(uint32_t rung, size_t index);

bool WriteRequests(const std::string& path,
                   const std::vector<IngestRequest>& requests);
bool ReadRequests(const std::string& path,
                  std::vector<IngestRequest>* requests);
bool ReadOutcomes(const std::string& path, size_t count,
                  std::vector<RequestOutcome>* outcomes);

struct LoadGenRun {
  std::string self_exe;
  uint16_t port = 0;
  std::string requests_path;
  std::string outcomes_path;
  double docs_per_second = 0.0;
  /// Steady-clock second the schedule starts at.
  double start = 0.0;
  size_t connections = 1;
  uint32_t rung = 0;
};

/// Spawns the generator process and waits for it to exit. Returns false
/// when it could not be started or did not exit cleanly.
bool RunLoadGen(const LoadGenRun& run, std::string* error);

/// Blocking GET on 127.0.0.1:port; returns the status (0 on a transport
/// error) and fills `body`.
int HttpGet(uint16_t port, const std::string& target, std::string* body);

}  // namespace nidcbench

#endif  // NIDCBENCH_LOADGEN_H_
