#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <ctime>

#include "engine/physical_plan.h"
#include "net/server.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace relbench {

using relserve::Status;

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t id, uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
}

void Tracer::Counter(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

void Tracer::Counters(const std::string& prefix,
                      const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) Counter(prefix + name, value);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Status Tracer::WriteTo(const std::string& path,
                       const std::string& workload,
                       const std::string& e2e_json,
                       const std::string& client_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"workload\": " << JsonString(workload)
      << ", \"e2e\": " << e2e_json << ", \"client\": " << client_json
      << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << JsonString(name) << ": "
        << JsonNumber(value);
    first = false;
  }
  out << "}}\n";
  for (const Span& s : spans_) {
    out << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.id
        << ' ' << s.parent << ' ' << s.request << '\n';
  }
  out.flush();
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

namespace {

bool IsMatMul(relserve::StageKind kind) {
  return kind == relserve::StageKind::kMatMul ||
         kind == relserve::StageKind::kMatMulTopK ||
         kind == relserve::StageKind::kBlockMatMul;
}

// FLOPs of one row through a matmul stage, from the model's weight
// shape [out, in].
double MatMulFlopsPerRow(const relserve::PhysicalPlan& plan,
                         const relserve::PhysicalStage& stage) {
  if (stage.node_id < 0) return 0;
  const relserve::Node& node = plan.model().node(stage.node_id);
  auto weight = plan.model().GetWeight(node.weight_name);
  if (!weight.ok() || (*weight)->shape().ndim() != 2) return 0;
  return 2.0 * static_cast<double>((*weight)->shape().dim(0)) *
         static_cast<double>((*weight)->shape().dim(1));
}

}  // namespace

Snapshot Capture(const Probes& p) {
  Snapshot s;
  if (p.scheduler != nullptr) {
    const relserve::SchedulerStats st = p.scheduler->stats();
    s["sched.submitted"] = st.submitted.load();
    s["sched.shed"] = st.shed_queue_full.load() + st.shed_deadline.load() +
                      st.shed_breaker.load();
    s["sched.retries"] = st.retries.load();
    s["sched.batches"] = st.batches.load();
    s["sched.rows"] = st.total_rows.load();
  }
  if (p.server != nullptr) {
    const relserve::net::NetServerStats st = p.server->stats();
    s["net.frames_in"] = st.frames_in.load();
    s["net.frames_out"] = st.frames_out.load();
    s["net.bytes"] = st.bytes_in.load() + st.bytes_out.load();
    s["net.protocol_errors"] = st.protocol_errors.load();
  }
  relserve::ServingSession* session = p.session;
  if (session == nullptr) return s;
  relserve::BufferPool* pool = session->catalog()->pool();
  if (pool != nullptr) {
    const relserve::BufferPoolStats st = pool->stats();
    s["pool.hits"] = st.hits;
    s["pool.misses"] = st.misses;
    s["pool.evictions"] = st.evictions;
    s["disk.reads"] = pool->disk()->num_reads();
    s["disk.writes"] = pool->disk()->num_writes();
  }
  const relserve::ExecStats& ex = session->exec_context()->stats;
  s["exec.blocks_read"] = ex.blocks_read.load();
  s["exec.prefetch_issued"] = ex.prefetch_issued.load();
  s["exec.prefetch_useful"] = ex.prefetch_useful.load();
  s["exec.repr_fallbacks"] = ex.repr_fallbacks.load();
  s["exec.stage_nanos"] = ex.stage_nanos.load();
  s["exec.rows_scanned"] = ex.rows_scanned.load();
  for (const std::string& model : p.models) {
    auto plan = session->DeployedPhysicalPlan(model);
    if (!plan.ok()) continue;
    double nanos = 0, mm_nanos = 0, mm_flops = 0, fallbacks = 0;
    double input_rows = -1;
    for (const auto& stage : (*plan)->stages()) {
      const relserve::StageStats& st = stage->stats;
      nanos += st.nanos.load();
      fallbacks += st.fallbacks.load();
      if (input_rows < 0) input_rows = st.rows.load();
      if (IsMatMul(stage->kind)) {
        mm_nanos += st.nanos.load();
        mm_flops += st.rows.load() * MatMulFlopsPerRow(**plan, *stage);
      }
    }
    const std::string key = "plan." + model + ".";
    s[key + "nanos"] = nanos;
    s[key + "rows"] = std::max(0.0, input_rows);
    s[key + "mm_nanos"] = mm_nanos;
    s[key + "mm_flops"] = mm_flops;
    s[key + "fallbacks"] = fallbacks;
  }
  for (const std::string& model : p.cached_models) {
    const std::string key = "cache." + model + ".";
    auto exact = session->GetExactCache(model);
    if (exact.ok()) {
      const relserve::CacheStats& st = (*exact)->stats();
      s[key + "exact_lookups"] = st.lookups.load();
      s[key + "exact_hits"] = st.hits.load();
      s[key + "exact_invalidations"] = st.invalidations.load();
    }
    auto approx = session->GetApproxCache(model);
    if (approx.ok()) {
      const relserve::CacheStats& st = (*approx)->stats();
      s[key + "approx_lookups"] = st.lookups.load();
      s[key + "approx_hits"] = st.hits.load();
      s[key + "approx_invalidations"] = st.invalidations.load();
      s[key + "approx_nodes"] = (*approx)->size();
    }
  }
  if (session->wal() != nullptr) {
    s["wal.bytes"] = session->wal()->size_bytes();
  }
  s["mem.peak_bytes"] = session->working_memory()->peak_bytes();
  return s;
}

Snapshot Delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    // Gauges (peaks, sizes) are reported as their end value.
    const bool gauge = name.find("peak") != std::string::npos ||
                       name.find("approx_nodes") != std::string::npos;
    d[name] = gauge || it == before.end() ? value : value - it->second;
  }
  return d;
}

void RecordPlanFacts(const Probes& p, Tracer* tracer) {
  if (!tracer->enabled() || p.session == nullptr) return;
  for (const std::string& model : p.models) {
    auto plan = p.session->DeployedPhysicalPlan(model);
    if (!plan.ok()) continue;
    int relational = 0;
    for (const auto& stage : (*plan)->stages()) {
      if (stage->repr == relserve::Repr::kRelational) ++relational;
    }
    tracer->Counter("plan." + model + ".relational_stages", relational);
    tracer->Counter("plan." + model + ".weight_bytes",
                    static_cast<double>(
                        (*plan)->model().TotalWeightBytes()));
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

int64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

std::string Report::Json(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].first) + ": {\"value\": " +
           JsonNumber(metrics[i].second.first) +
           ", \"unit\": " + JsonString(metrics[i].second.second) + "}";
  }
  return out + "}";
}

std::string Report::ResultJson() const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + Json(metrics) + "}";
}

namespace {

// Median over windows of a per-window statistic of the samples whose
// time falls in [start + k*window, start + (k+1)*window); only full
// windows count.
template <typename Stat>
double WindowMedian(std::vector<std::pair<int64_t, double>> samples,
                    int64_t start, int64_t end, int64_t window,
                    Stat stat) {
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(std::max<int64_t>(1, (end - start) / window)));
  for (const auto& [t, v] : samples) {
    const int64_t k = (t - start) / window;
    if (t >= start && k < static_cast<int64_t>(windows.size())) {
      windows[k].push_back(v);
    }
  }
  std::vector<double> stats;
  for (std::vector<double>& w : windows) stats.push_back(stat(w));
  return Median(std::move(stats));
}

}  // namespace

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Metric("setup_s", Median(e2e.setup_s), "s");
  report->Metric("peak_rss_mib", PeakRssMiB(), "MiB");
  report->Metric("cpu_us_per_row",
                 static_cast<double>(e2e.cpu_ns) * 1e-3 /
                     std::max(1.0, e2e.cpu_rows),
                 "us");
  int64_t lat_start = INT64_MAX, lat_end = 0;
  for (const auto& [t, ms] : e2e.latency) {
    lat_start = std::min(lat_start, t);
    lat_end = std::max(lat_end, t + 1);
  }
  const int64_t w = e2e.window_ns;
  report->Client("predict_p50_ms",
                 WindowMedian(e2e.latency, lat_start, lat_end, w,
                              [](const std::vector<double>& v) {
                                return Quantile(v, 0.50);
                              }),
                 "ms");
  report->Client("predict_p99_ms",
                 WindowMedian(e2e.latency, lat_start, lat_end, w,
                              [](const std::vector<double>& v) {
                                return Quantile(v, 0.99);
                              }),
                 "ms");
  const double window_s = static_cast<double>(w) * 1e-9;
  report->Client("predict_rps", Median(e2e.window_requests) / window_s,
                 "1/s");
  report->Client("rows_per_s", Median(e2e.window_rows) / window_s, "1/s");
}

void EndToEnd::StartSaturation(int64_t start_ns, int64_t end_ns) {
  saturated_start_ns = start_ns;
  saturated_end_ns = end_ns;
  const size_t n = static_cast<size_t>(
      std::max<int64_t>(1, (end_ns - start_ns) / window_ns));
  window_requests.assign(n, 0.0);
  window_rows.assign(n, 0.0);
}

void EndToEnd::Complete(int64_t t_ns, double requests, double rows) {
  if (t_ns < saturated_start_ns) return;
  const size_t k = static_cast<size_t>((t_ns - saturated_start_ns) / window_ns);
  std::lock_guard<std::mutex> lock(mu_);
  if (k >= window_requests.size()) return;
  window_requests[k] += requests;
  window_rows[k] += rows;
}

}  // namespace relbench
