// Open-loop HTTP load: requests are due on a seeded arrival schedule and
// are sent from a fixed set of keep-alive connections whether or not
// earlier ones have finished. Latency is timed from each request's due
// time, so a stall also charges the requests queued behind it.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/measure.h"

namespace perfbench {

struct Request {
  uint64_t due_ns = 0;  // offset from the rung's start
  size_t op = 0;        // index into the run's operation table
  bool analyze = false;  // POST /analyze instead of POST /query
  bool fresh = false;    // a never-seen query text
  std::string body;
};

struct Response {
  size_t request = 0;
  int status = 0;  // HTTP status; 0 = transport error
  uint64_t doc_version = 0;
  std::optional<Answer> answer;  // POST /query 200s that parsed
  std::string verdict;           // POST /analyze 200s
};

struct RungResult {
  double rate = 0;
  double seconds = 0;
  size_t attempted = 0;
  size_t failed = 0;    // transport errors and non-2xx answers
  size_t rejected = 0;  // 429 and 503, a subset of failed
  std::vector<double> latency_us;  // completed requests, from due time
  std::vector<double> late_us;     // send lateness of on-time pickups
  double backlog_growth = 0;  // due-but-unsent, last quarter minus first
  double achieved_rps = 0;
  // The rung is cut into up to ten windows in due order. The machine is
  // shared and outside load only ever adds time, so p50 and p99 pool the
  // quietest windows (least mean latency), as few as hold 1000 requests:
  // quiet_samples of them.
  double p50_us = 0;
  double p99_us = 0;
  size_t quiet_samples = 0;
  bool saturated = false;  // the backlog grew: arrivals outran completions
  bool passed = false;
  std::vector<Response> responses;
};

/// Runs one rung: `connections` threads with one keep-alive client each
/// send `requests` (sorted by due time) against the server on `port`.
/// A rung passes when nothing failed, p99 meets `latency_limit_us` and
/// it did not saturate: the backlog grew by at most one request per
/// connection.
RungResult RunRung(int port, int connections, const std::vector<Request>& requests,
                   double rate, double seconds, double latency_limit_us);

/// The highest rate the ladder sustained: the achieved completion rate
/// of its highest passing rung (0 when none passed).
double MaxSustainedRate(const std::vector<RungResult>& rungs);

/// One connection PUTs the given bodies in turn to one document name at
/// a fixed cadence until stopped, recording each round trip.
class Writer {
 public:
  Writer(int port, std::string target, std::vector<const std::string*> bodies,
         double period_s);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop();  // joins the writer thread

  struct Put {
    size_t body = 0;  // index into `bodies`
    int status = 0;
    uint64_t version = 0;
    double latency_ms = 0;
  };
  /// Valid after Stop().
  const std::vector<Put>& puts() const { return puts_; }

 private:
  void Loop();

  const int port_;
  const std::string target_;
  const std::vector<const std::string*> bodies_;
  const double period_s_;
  std::atomic<bool> stop_{false};
  std::vector<Put> puts_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Reads "version" out of a PUT /documents response body (0 if absent).
uint64_t ParsePutVersion(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
