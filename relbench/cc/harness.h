// Shared pieces of the relserve benchmark: arguments, the span tracer,
// per-phase counter capture from the program's public stats structs,
// percentiles, and the result report every workload prints.
#ifndef RELBENCH_HARNESS_H_
#define RELBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/model.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"

namespace relserve {
namespace net {
class NetServer;
}
}  // namespace relserve

namespace relbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // scratch files (spill file, WAL) live here
  std::string trace_out;  // where a traced run writes spans + counters
};

// Spans are kept in memory and written once, at the end of a traced
// run. Ids are handed out before a span ends so children (which end
// first) can name their parent. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed)
                    : 0;
  }
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t id = 0, uint64_t parent = 0, uint64_t request = 0);
  // A named counter (already a per-phase delta or a static fact).
  void Counter(const std::string& name, double value);
  void Counters(const std::string& prefix,
                const std::map<std::string, double>& values);
  // Header line of JSON (workload, counters, the traced run's
  // end-to-end and client metrics), then one line per span:
  // "name start end id parent request".
  relserve::Status WriteTo(const std::string& path,
                           const std::string& workload,
                           const std::string& e2e_json,
                           const std::string& client_json) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns, end_ns;
    uint64_t id, parent, request;
  };
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// What a workload holds that the counter capture reads.
struct Probes {
  relserve::ServingSession* session = nullptr;
  relserve::RequestScheduler* scheduler = nullptr;
  relserve::net::NetServer* server = nullptr;
  std::vector<std::string> models;  // deployed models to read stages of
  std::vector<std::string> cached_models;  // models with cache tiers
};

// Raw counters of every public stats struct the workload touches.
using Snapshot = std::map<std::string, double>;
Snapshot Capture(const Probes& probes);
Snapshot Delta(const Snapshot& before, const Snapshot& after);

// Static plan facts: relational stage count and weight bytes per model.
void RecordPlanFacts(const Probes& probes, Tracer* tracer);

// Quantile by linear interpolation (numpy's default); sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// CPU time consumed so far by this process / by the calling thread.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB();

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  using Metrics =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  Metrics metrics;  // the end-to-end metrics BENCHMARK.json bounds
  Metrics client;   // latency and rate as the client saw them (unbound)
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value,
              const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Client(const std::string& name, double value,
              const std::string& unit) {
    client.push_back({name, {value, unit}});
  }
  // A correctness failure: recorded (first few printed) and fatal.
  void Mismatch(const std::string& what);
  static std::string Json(const Metrics& m);
  std::string ResultJson() const;
};

// The end-to-end metrics every workload prints: set-up time, peak
// memory and CPU per row scored. Latency percentiles
// and rates are computed per window of `window_ns` and the median over
// windows is reported: a burst of host steal that spoils a few windows
// does not move the run's figure.
struct EndToEnd {
  std::vector<double> setup_s;  // one per set-up repetition
  // (start ns, latency ms) of every prediction request timed.
  std::vector<std::pair<int64_t, double>> latency;
  // Completions in the saturation phase, [saturated_start_ns,
  // saturated_end_ns), binned per window: requests, and rows scored.
  int64_t saturated_start_ns = 0;
  int64_t saturated_end_ns = 0;
  std::vector<double> window_requests, window_rows;
  int64_t window_ns = 1'000'000'000;
  // CPU time the program spent on a fixed amount of work (a load
  // generator's own thread excluded) and the rows it scored there.
  int64_t cpu_ns = 0;
  double cpu_rows = 0;

  void StartSaturation(int64_t start_ns, int64_t end_ns);
  // Thread-safe; completions outside the phase are ignored.
  void Complete(int64_t t_ns, double requests, double rows);

 private:
  std::mutex mu_;
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

// Workload entry points. Each fills `report` and, when tracing,
// `tracer`; a non-OK status is an operational error (exit non-zero).
relserve::Status RunPointNet(const Args& args, Tracer* tracer,
                             Report* report);
relserve::Status RunTableSpill(const Args& args, Tracer* tracer,
                               Report* report);
relserve::Status RunIngestServe(const Args& args, Tracer* tracer,
                                Report* report);
int RunSelfTest(const std::string& workdir);

}  // namespace relbench

#endif  // RELBENCH_HARNESS_H_
