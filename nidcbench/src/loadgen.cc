#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>

#include "common.h"
#include "stats.h"

extern char** environ;

namespace nidcbench {

std::string TenantName(size_t tenant) {
  return "feed" + std::to_string(tenant);
}

std::string TraceparentFor(uint32_t rung, size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "00-6e696463%08x%016llx-%016llx-01", rung,
                static_cast<unsigned long long>(index + 1),
                static_cast<unsigned long long>(index + 1));
  return buf;
}

bool WriteRequests(const std::string& path,
                   const std::vector<IngestRequest>& requests) {
  std::ofstream out(path, std::ios::binary);
  for (const IngestRequest& r : requests) {
    out << r.tenant << ' ' << r.docs << ' ' << r.body.size() << '\n'
        << r.body;
  }
  return static_cast<bool>(out);
}

bool ReadRequests(const std::string& path,
                  std::vector<IngestRequest>* requests) {
  std::ifstream in(path, std::ios::binary);
  IngestRequest r;
  size_t length = 0;
  while (in >> r.tenant >> r.docs >> length) {
    in.get();  // the newline after the header
    r.body.assign(length, '\0');
    if (!in.read(r.body.data(), static_cast<std::streamsize>(length))) {
      return false;
    }
    requests->push_back(r);
  }
  return in.eof();
}

bool ReadOutcomes(const std::string& path, size_t count,
                  std::vector<RequestOutcome>* outcomes) {
  std::ifstream in(path);
  outcomes->assign(count, RequestOutcome());
  size_t index = 0;
  RequestOutcome o;
  size_t seen = 0;
  while (in >> index >> o.status >> o.sent >> o.answered) {
    if (index >= count) return false;
    (*outcomes)[index] = o;
    ++seen;
  }
  return seen == count;
}

namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Length of the first complete response in `buf` (0 while incomplete);
// its status code goes to *status.
size_t CompleteResponse(const std::string& buf, int* status) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  const size_t space = buf.find(' ');
  *status = space < head_end ? std::atoi(buf.c_str() + space + 1) : 0;
  std::string head = buf.substr(0, head_end);
  std::transform(head.begin(), head.end(), head.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  size_t length = 0;
  const size_t at = head.find("content-length:");
  if (at != std::string::npos) {
    length = std::strtoul(head.c_str() + at + 15, nullptr, 10);
  }
  const size_t total = head_end + 4 + length;
  return buf.size() >= total ? total : 0;
}

struct Connection {
  int fd = -1;
  std::string inbox;
  std::deque<size_t> waiting;  // request indices, in send order
};

std::string Arg(int argc, char** argv, const char* key) {
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  }
  return "";
}

}  // namespace

int LoadGenMain(int argc, char** argv) {
  const uint16_t port =
      static_cast<uint16_t>(std::atoi(Arg(argc, argv, "--port").c_str()));
  const double rate = std::atof(Arg(argc, argv, "--rate").c_str());
  const double start = std::atof(Arg(argc, argv, "--start").c_str());
  const size_t num_connections = std::max(
      1, std::atoi(Arg(argc, argv, "--connections").c_str()));
  const uint32_t rung =
      static_cast<uint32_t>(std::atoi(Arg(argc, argv, "--rung").c_str()));
  std::vector<IngestRequest> requests;
  if (port == 0 || rate <= 0.0 ||
      !ReadRequests(Arg(argc, argv, "--requests"), &requests) ||
      requests.empty()) {
    std::fprintf(stderr, "loadgen: bad arguments or request file\n");
    return 2;
  }
  std::vector<size_t> docs;
  for (const IngestRequest& r : requests) docs.push_back(r.docs);
  const std::vector<double> due = MakeSchedule(docs, rate);

  // Everything is rendered before the clock starts.
  std::vector<std::string> wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    wire.push_back("POST /ingest?tenant=" + TenantName(requests[i].tenant) +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Content-Type: application/x-ndjson\r\ntraceparent: " +
                   TraceparentFor(rung, i) + "\r\nContent-Length: " +
                   std::to_string(requests[i].body.size()) + "\r\n\r\n" +
                   requests[i].body);
  }
  std::vector<Connection> conns(num_connections);
  for (Connection& c : conns) c.fd = Connect(port);

  std::vector<RequestOutcome> outcomes(requests.size());
  size_t next = 0;
  size_t settled = 0;
  const double deadline = start + due.back() + 30.0;
  const auto fail_waiting = [&](Connection& c) {
    for (size_t i : c.waiting) outcomes[i].status = 0;
    settled += c.waiting.size();
    c.waiting.clear();
    c.inbox.clear();
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  };
  std::vector<pollfd> fds(num_connections);
  char buf[1 << 16];
  while (settled < requests.size()) {
    double now = Now();
    if (now > deadline) break;
    // Open loop: send everything that is due, answered or not.
    while (next < requests.size() && start + due[next] <= now) {
      Connection& c = conns[requests[next].tenant % num_connections];
      if (c.fd < 0) c.fd = Connect(port);
      outcomes[next].sent = Now();
      if (c.fd < 0 || !WriteAll(c.fd, wire[next])) {
        outcomes[next].status = 0;
        ++settled;
        if (c.fd >= 0) fail_waiting(c);
      } else {
        c.waiting.push_back(next);
      }
      ++next;
      now = Now();
    }
    const double wait = next < requests.size()
                            ? std::max(0.0, start + due[next] - now)
                            : 0.05;
    for (size_t i = 0; i < num_connections; ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
    }
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < num_connections; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      Connection& c = conns[i];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        fail_waiting(c);
        continue;
      }
      const double answered = Now();
      c.inbox.append(buf, static_cast<size_t>(n));
      int status = 0;
      while (size_t used = CompleteResponse(c.inbox, &status)) {
        c.inbox.erase(0, used);
        if (c.waiting.empty()) break;
        RequestOutcome& o = outcomes[c.waiting.front()];
        c.waiting.pop_front();
        o.status = status;
        o.answered = answered;
        ++settled;
      }
    }
  }
  for (Connection& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  FILE* f = std::fopen(Arg(argc, argv, "--outcomes").c_str(), "w");
  if (f == nullptr) return 2;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::fprintf(f, "%zu %d %.9f %.9f\n", i, outcomes[i].status,
                 outcomes[i].sent, outcomes[i].answered);
  }
  return std::fclose(f) == 0 ? 0 : 2;
}

bool RunLoadGen(const LoadGenRun& run, std::string* error) {
  char start[64];
  std::snprintf(start, sizeof(start), "%.9f", run.start);
  std::vector<std::string> args = {
      run.self_exe,         "loadgen",
      "--port",             std::to_string(run.port),
      "--requests",         run.requests_path,
      "--outcomes",         run.outcomes_path,
      "--rate",             std::to_string(run.docs_per_second),
      "--start",            start,
      "--connections",      std::to_string(run.connections),
      "--rung",             std::to_string(run.rung)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (const int rc = ::posix_spawn(&pid, run.self_exe.c_str(), nullptr,
                                   nullptr, argv.data(), environ);
      rc != 0) {
    *error = std::string("posix_spawn: ") + std::strerror(rc);
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      *error = std::string("waitpid: ") + std::strerror(errno);
      return false;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "load generator exited abnormally";
    return false;
  }
  return true;
}

int HttpGet(uint16_t port, const std::string& target, std::string* body) {
  const int fd = Connect(port);
  if (fd < 0) return 0;
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::string inbox;
  int status = 0;
  if (WriteAll(fd, request)) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      inbox.append(buf, static_cast<size_t>(n));
      if (CompleteResponse(inbox, &status) != 0) break;
    }
  }
  ::close(fd);
  const size_t used = CompleteResponse(inbox, &status);
  if (used == 0) return 0;
  *body = inbox.substr(inbox.find("\r\n\r\n") + 4,
                       used - (inbox.find("\r\n\r\n") + 4));
  return status;
}

}  // namespace nidcbench
