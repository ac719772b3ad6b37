// table-spill: relation-centric inference over a stored row table,
// with a model whose blocked weights are several times the buffer
// pool. One client runs back-to-back whole-table Predict calls; the
// working-memory arena is too small for whole-tensor execution, so the
// adaptive optimizer must lower the big matmul to blocks that spill
// through the pool. Every query's output is checked row by row against
// the oracle (which covers the sampled-rows and full-query checks).
#include <memory>
#include <random>

#include "graph/model_zoo.h"
#include "harness.h"
#include "oracle.h"
#include "workloads/datasets.h"

namespace relbench {

using relserve::Result;
using relserve::Status;
using relserve::Tensor;

namespace {

constexpr int kSetupReps = 9;
// About 25 queries per window: p99 per window is close to its maximum.
constexpr int64_t kWindowNs = 2'000'000'000;
// Amazon-14k-FC at 1% of the paper's widths: 5975 -> 1024 -> 146,
// 24 MiB of fp32 weights against a 6 MiB pool and a 16 MiB arena.
constexpr double kModelScale = 0.01;
constexpr int64_t kPoolPages = 96;
constexpr int64_t kArenaBytes = 16LL << 20;
constexpr int64_t kThresholdBytes = 8LL << 20;
constexpr int64_t kRows = 256;
// Single-threaded GEMM: the 4-thread intra-op path runs 45 or 100 ms
// per query from run to run on a shared host (README, "Settings").
constexpr int kSessionThreads = 1;
const char* const kTable = "items";

struct State {
  std::unique_ptr<relserve::ServingSession> session;
  std::string model;
};

Result<double> SetUp(const Args& args, const std::vector<float>& features,
                     int64_t width, Tracer* tracer, State* st) {
  std::vector<relserve::Row> rows;
  for (int64_t r = 0; r < kRows; ++r) {
    rows.emplace_back(std::vector<relserve::Value>{
        relserve::Value(r),
        relserve::Value(std::vector<float>(
            features.begin() + r * width,
            features.begin() + (r + 1) * width))});
  }
  // Generating the weights from the seed stands in for loading them.
  const int64_t t0 = NowNs();
  const relserve::zoo::FcSpec spec =
      relserve::zoo::Table1FcSpecs(kModelScale)[3];
  RELSERVE_ASSIGN_OR_RETURN(relserve::Model model,
                            relserve::zoo::BuildFromSpec(spec, args.seed));
  st->model = spec.name;
  relserve::ServingConfig config;
  config.spill_path = args.workdir + "/spill.db";
  config.buffer_pool_pages = kPoolPages;
  config.working_memory_bytes = kArenaBytes;
  config.memory_threshold_bytes = kThresholdBytes;
  config.num_threads = kSessionThreads;
  st->session = std::make_unique<relserve::ServingSession>(config);
  RELSERVE_RETURN_NOT_OK(st->session->status());
  RELSERVE_RETURN_NOT_OK(
      st->session
          ->CreateTable(kTable, relserve::workloads::FeatureTableSchema())
          .status());
  RELSERVE_RETURN_NOT_OK(st->session->IngestRows(kTable, rows));
  RELSERVE_RETURN_NOT_OK(st->session->RegisterModel(std::move(model)));
  const int64_t d0 = NowNs();
  RELSERVE_RETURN_NOT_OK(
      st->session->Deploy(st->model, relserve::ServingMode::kAdaptive, kRows)
          .status());
  tracer->Record("optimizer.deploy", d0, NowNs());
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

}  // namespace

Status RunTableSpill(const Args& args, Tracer* tracer, Report* report) {
  const relserve::zoo::FcSpec spec =
      relserve::zoo::Table1FcSpecs(kModelScale)[3];
  const int64_t width = spec.dims[0];
  std::mt19937_64 rng(args.seed * 104729 + 3);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<float> features(kRows * width);
  for (float& f : features) f = u(rng);

  EndToEnd e2e;
  e2e.window_ns = kWindowNs;
  auto st = std::make_unique<State>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st = std::make_unique<State>();
    RELSERVE_ASSIGN_OR_RETURN(double secs,
                              SetUp(args, features, width, tracer, st.get()));
    e2e.setup_s.push_back(secs);
  }
  relserve::ServingSession* session = st->session.get();
  RELSERVE_ASSIGN_OR_RETURN(const relserve::Model* model,
                            session->GetModel(st->model));
  RELSERVE_ASSIGN_OR_RETURN(OracleNet oracle, OracleNet::FromModel(*model));
  const std::vector<std::vector<double>> want =
      oracle.ForwardRows(features.data(), kRows, 4);

  Probes probes;
  probes.session = session;
  probes.models = {st->model};
  RecordPlanFacts(probes, tracer);

  int64_t queries = 0;
  auto run_query = [&](bool record) -> Status {
    const uint64_t id = tracer->NewId();
    const int64_t q0 = NowNs();
    Result<relserve::ExecOutput> out = session->Predict(st->model, kTable);
    Result<Tensor> scores =
        out.ok() ? out->ToTensor(session->exec_context())
                 : Result<Tensor>(out.status());
    const int64_t q1 = NowNs();
    ++report->attempted;
    if (!scores.ok()) {
      ++report->failed;
      return Status::OK();
    }
    if (record) {
      e2e.latency.push_back({q0, static_cast<double>(q1 - q0) * 1e-6});
      e2e.Complete(q1, 1.0, static_cast<double>(kRows));
      e2e.cpu_rows += static_cast<double>(kRows);
      ++queries;
      tracer->Record("client.query", q0, q1, id);
    }
    const int64_t classes = oracle.out_dim();
    if (scores->NumElements() != kRows * classes) {
      report->Mismatch("query returned " +
                       std::to_string(scores->NumElements()) + " values");
      return Status::OK();
    }
    for (int64_t r = 0; r < kRows; ++r) {
      if (!Close(scores->data() + r * classes, want[r], classes)) {
        report->Mismatch("row " + std::to_string(r) +
                         " differs from the oracle");
        break;
      }
    }
    return Status::OK();
  };

  // One unrecorded query lets lazy set-up (first spill writes, thread
  // pool start) finish before timing.
  RELSERVE_RETURN_NOT_OK(run_query(false));
  const Snapshot s0 = Capture(probes);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  e2e.StartSaturation(start, end);
  while (NowNs() < end) RELSERVE_RETURN_NOT_OK(run_query(true));
  e2e.cpu_ns = ProcessCpuNs() - cpu0;
  tracer->Counters("run.", Delta(s0, Capture(probes)));
  tracer->Counter("run.seconds", static_cast<double>(NowNs() - start) * 1e-9);
  tracer->Counter("run.queries", static_cast<double>(queries));
  tracer->Counter("run.rows", static_cast<double>(queries * kRows));
  ReportEndToEnd(e2e, report);
  return Status::OK();
}

}  // namespace relbench
