// ingest-serve: reads beside durable writes, with a storage working
// set that fits the pool. A session backed by a group-commit WAL holds
// a preloaded feature table. One writer commits IngestRows
// transactions at a fixed pace plus occasional SQL UPDATEs of a
// non-feature column; one reader runs SQL PREDICT_CLASS range queries
// over recent rows; a second reader sends skewed, repeating point
// requests through RequestScheduler::SubmitCached with the exact and
// HNSW cache tiers bound to the table, so every commit fences them.
//
// Checks: every SQL class and every cached reply against the oracle,
// snapshot visibility of every SELECT, and, after the run, that a
// session reopened on the WAL recovers exactly the acknowledged rows
// and updates.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "harness.h"
#include "oracle.h"
#include "sql/query_executor.h"

namespace relbench {

using relserve::Result;
using relserve::Status;
using relserve::Tensor;
using relserve::Value;

namespace {

constexpr int kSetupReps = 9;
constexpr int kSessionThreads = 1;  // as in point-net and table-spill
constexpr int64_t kDim = 32;
constexpr int64_t kPreloadRows = 20000;
constexpr int64_t kPreloadTxnRows = 2000;
// Writer pace: one transaction every kTickUs; every kUpdateEvery-th
// tick is an SQL UPDATE instead of an insert of kRowsPerCommit rows.
constexpr int64_t kTickUs = 5000;
constexpr int kUpdateEvery = 10;
constexpr int64_t kRowsPerCommit = 8;
// Both readers run open loops at fixed rates, so every run does the
// same work whatever the host's speed; each request is timed from when
// it was due.
constexpr double kReadsPerSecond = 500;
constexpr double kSelectsPerSecond = 25;
constexpr int64_t kRangeRows = 64;    // SELECT id range width
constexpr int64_t kRecentWindow = 512;
// Point-request pool: kBases base vectors with Zipf popularity, each
// also requested as one of kVariants fixed jittered copies.
constexpr int kBases = 512;
constexpr int kVariants = 4;
constexpr double kZipfS = 1.1;
constexpr double kJitterSigma = 0.05;
const char* const kTable = "feat";
const char* const kSqlModel = "scorer";
const char* const kPointModel = "scorer_pt";

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The feature vector of row `id`, a pure function of (seed, id).
std::vector<float> RowFeatures(uint64_t seed, int64_t id) {
  uint64_t state = seed * 0x100000001B3ULL + static_cast<uint64_t>(id);
  std::vector<float> f(kDim);
  for (float& v : f) {
    v = static_cast<float>(SplitMix(&state) >> 40) * (1.0f / 16777216.0f);
  }
  return f;
}

relserve::Row MakeRow(uint64_t seed, int64_t id) {
  return relserve::Row(std::vector<Value>{Value(id), Value(int64_t{0}),
                                          Value(RowFeatures(seed, id))});
}

relserve::Schema TableSchema() {
  return relserve::Schema(
      {{"id", relserve::ValueType::kInt64},
       {"tag", relserve::ValueType::kInt64},
       {"features", relserve::ValueType::kFloatVector}});
}

relserve::ServingConfig Config(const Args& args) {
  relserve::ServingConfig config;
  config.spill_path = args.workdir + "/spill.db";
  config.wal_dir = args.workdir + "/wal";
  config.wal_fsync = relserve::WalFsyncPolicy::kGroupCommit;
  config.num_threads = kSessionThreads;
  return config;
}

struct State {
  std::unique_ptr<relserve::ServingSession> session;
  std::unique_ptr<relserve::RequestScheduler> scheduler;
  ~State() {
    if (scheduler) scheduler->Shutdown();
  }
};

// Models (generated from the seed in place of loading them), session
// with WAL recovery, deployments, cache tiers and scheduler.
Result<double> SetUp(const Args& args, Tracer* tracer, State* st) {
  const int64_t t0 = NowNs();
  RELSERVE_ASSIGN_OR_RETURN(
      relserve::Model sql_model,
      relserve::BuildFFNN(kSqlModel, {kDim, 256, 16}, args.seed));
  RELSERVE_ASSIGN_OR_RETURN(
      relserve::Model point_model,
      relserve::BuildFFNN(kPointModel, {kDim, 256, 16}, args.seed));
  const int64_t r0 = NowNs();
  st->session = std::make_unique<relserve::ServingSession>(Config(args));
  tracer->Record("storage.recover", r0, NowNs());
  RELSERVE_RETURN_NOT_OK(st->session->status());
  RELSERVE_RETURN_NOT_OK(st->session->wal_status());
  relserve::ServingSession* s = st->session.get();
  RELSERVE_RETURN_NOT_OK(s->RegisterModel(std::move(sql_model)));
  RELSERVE_RETURN_NOT_OK(s->RegisterModel(std::move(point_model)));
  for (const char* name : {kSqlModel, kPointModel}) {
    const int64_t d0 = NowNs();
    RELSERVE_RETURN_NOT_OK(
        s->Deploy(name, relserve::ServingMode::kAdaptive, 256).status());
    tracer->Record("optimizer.deploy", d0, NowNs());
  }
  RELSERVE_RETURN_NOT_OK(s->EnableExactCache(kPointModel));
  RELSERVE_RETURN_NOT_OK(s->EnableApproxCache(
      kPointModel, kDim, relserve::ApproxResultCache::Config{}));
  RELSERVE_RETURN_NOT_OK(s->BindCacheToTable(kPointModel, kTable));
  st->scheduler = std::make_unique<relserve::RequestScheduler>(
      s, relserve::SchedulerConfig{});
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

struct Select {
  int64_t lo = 0, hi = 0, start_ns = 0, end_ns = 0;
  std::vector<int64_t> ids, classes;
};

// The skewed point-request pool with its oracle outputs and, per
// input, every pooled input within the cache's max_distance.
struct PointPool {
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<double>> oracle;
  std::vector<std::vector<int>> neighbors;
  std::vector<double> zipf_cdf;
};

PointPool MakePointPool(uint64_t seed, const OracleNet& oracle,
                        float max_distance) {
  PointPool p;
  std::mt19937_64 rng(seed * 6364136223846793005ULL + 11);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::normal_distribution<float> jitter(0.0f, kJitterSigma);
  for (int b = 0; b < kBases; ++b) {
    std::vector<float> base(kDim);
    for (float& v : base) v = u(rng);
    p.inputs.push_back(base);
    for (int j = 0; j < kVariants; ++j) {
      std::vector<float> var = base;
      for (float& v : var) v += jitter(rng);
      p.inputs.push_back(var);
    }
  }
  const int n = static_cast<int>(p.inputs.size());
  for (const auto& in : p.inputs) p.oracle.push_back(oracle.Forward(in.data()));
  p.neighbors.resize(n);
  const double limit = static_cast<double>(max_distance) * (1 + 1e-4);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      double d2 = 0;
      for (int64_t k = 0; k < kDim; ++k) {
        const double d = static_cast<double>(p.inputs[a][k]) - p.inputs[b][k];
        d2 += d * d;
      }
      if (std::sqrt(d2) <= limit) p.neighbors[a].push_back(b);
    }
  }
  double total = 0;
  for (int b = 0; b < kBases; ++b) {
    total += 1.0 / std::pow(b + 1, kZipfS);
    p.zipf_cdf.push_back(total);
  }
  for (double& c : p.zipf_cdf) c /= total;
  return p;
}

Status Preload(const Args& args) {
  std::filesystem::remove_all(args.workdir + "/wal");
  std::filesystem::create_directories(args.workdir + "/wal");
  relserve::ServingSession session(Config(args));
  RELSERVE_RETURN_NOT_OK(session.status());
  RELSERVE_RETURN_NOT_OK(session.wal_status());
  RELSERVE_RETURN_NOT_OK(session.CreateTable(kTable, TableSchema()).status());
  for (int64_t base = 0; base < kPreloadRows; base += kPreloadTxnRows) {
    std::vector<relserve::Row> rows;
    for (int64_t id = base; id < base + kPreloadTxnRows; ++id) {
      rows.push_back(MakeRow(args.seed, id));
    }
    RELSERVE_RETURN_NOT_OK(session.IngestRows(kTable, rows));
  }
  return Status::OK();
}

}  // namespace

Status RunIngestServe(const Args& args, Tracer* tracer, Report* report) {
  RELSERVE_RETURN_NOT_OK(Preload(args));
  EndToEnd e2e;
  auto st = std::make_unique<State>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st = std::make_unique<State>();
    RELSERVE_ASSIGN_OR_RETURN(double secs, SetUp(args, tracer, st.get()));
    e2e.setup_s.push_back(secs);
  }
  relserve::ServingSession* session = st->session.get();
  relserve::RequestScheduler* scheduler = st->scheduler.get();
  RELSERVE_ASSIGN_OR_RETURN(const relserve::Model* model,
                            session->GetModel(kSqlModel));
  RELSERVE_ASSIGN_OR_RETURN(OracleNet oracle, OracleNet::FromModel(*model));
  const float max_distance = relserve::ApproxResultCache::Config{}.max_distance;
  const PointPool pool = MakePointPool(args.seed, oracle, max_distance);

  Probes probes;
  probes.session = session;
  probes.scheduler = scheduler;
  probes.models = {kSqlModel, kPointModel};
  probes.cached_models = {kPointModel};
  RecordPlanFacts(probes, tracer);

  // Writer bookkeeping: per id when its insert began and was
  // acknowledged, and the tag each acknowledged row must recover with.
  std::map<int64_t, IdTimes> id_times;
  std::map<int64_t, int64_t> want_tags;
  for (int64_t id = 0; id < kPreloadRows; ++id) {
    id_times[id] = IdTimes{1, 1};
    want_tags[id] = 0;
  }
  std::mutex ids_mu;  // guards id_times (read by checks after the run)
  std::atomic<int64_t> acked_high{kPreloadRows};
  std::vector<double> commit_ms;
  int64_t commits = 0, updates = 0, rows_written = 0, write_failed = 0;

  std::vector<Select> selects;
  int64_t select_failed = 0;
  // (start ns, latency ms) per cached read; replies are checked as
  // they arrive so memory does not grow with the read rate.
  std::vector<std::pair<int64_t, double>> reads;
  std::vector<std::string> read_errors;
  int64_t read_failed = 0;
  int64_t writer_cpu_ns = 0, sql_cpu_ns = 0;

  const Snapshot s0 = Capture(probes);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  e2e.StartSaturation(start, end);

  std::thread writer([&] {
    const int64_t cpu_start = ThreadCpuNs();
    std::mt19937_64 rng(args.seed * 2862933555777941757ULL + 7);
    int64_t next_id = kPreloadRows;
    for (int64_t tick = 1;; ++tick) {
      const int64_t due = start + tick * kTickUs * 1000;
      if (due >= end) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      const int64_t t0 = NowNs();
      if (tick % kUpdateEvery == 0) {
        std::uniform_int_distribution<int64_t> pick(0, next_id - 1);
        int64_t target = pick(rng);
        {
          std::lock_guard<std::mutex> lock(ids_mu);
          while (id_times[target].ack_ns == 0) target = pick(rng);
        }
        auto out = relserve::sql::ExecuteStatement(
            session, "UPDATE feat SET tag = " + std::to_string(tick) +
                         " WHERE id = " + std::to_string(target));
        const int64_t t1 = NowNs();
        tracer->Record("sql.update", t0, t1);
        ++updates;
        if (out.ok() && out->rows_affected == 1) {
          want_tags[target] = tick;
          ++rows_written;
        } else {
          ++write_failed;
        }
        continue;
      }
      std::vector<relserve::Row> rows;
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        for (int64_t k = 0; k < kRowsPerCommit; ++k) {
          rows.push_back(MakeRow(args.seed, next_id + k));
          id_times[next_id + k] = IdTimes{t0, 0};
        }
      }
      const Status s = session->IngestRows(kTable, rows);
      const int64_t t1 = NowNs();
      tracer->Record("storage.commit", t0, t1);
      ++commits;
      if (s.ok()) {
        commit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        rows_written += kRowsPerCommit;
        std::lock_guard<std::mutex> lock(ids_mu);
        for (int64_t k = 0; k < kRowsPerCommit; ++k) {
          id_times[next_id + k].ack_ns = t1;
          want_tags[next_id + k] = 0;
        }
        acked_high.store(next_id + kRowsPerCommit);
      } else {
        ++write_failed;
      }
      next_id += kRowsPerCommit;
    }
    writer_cpu_ns = ThreadCpuNs() - cpu_start;
  });

  std::thread sql_reader([&] {
    const int64_t cpu_start = ThreadCpuNs();
    std::mt19937_64 rng(args.seed * 3935559000370003845ULL + 3);
    std::uniform_int_distribution<int64_t> back(0, kRecentWindow);
    for (int64_t k = 0;; ++k) {
      const int64_t due =
          start + static_cast<int64_t>(k * 1e9 / kSelectsPerSecond);
      if (due >= end) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      Select q;
      q.lo = std::max<int64_t>(0, acked_high.load() - back(rng));
      q.hi = q.lo + kRangeRows;
      q.start_ns = NowNs();
      auto out = relserve::sql::ExecuteQuery(
          session, "SELECT id, PREDICT_CLASS(scorer) AS c FROM feat WHERE "
                   "id >= " + std::to_string(q.lo) +
                       " AND id < " + std::to_string(q.hi));
      q.end_ns = NowNs();
      tracer->Record("sql.select", q.start_ns, q.end_ns);
      if (!out.ok()) {
        ++select_failed;
        continue;
      }
      for (const relserve::Row& row : out->rows) {
        q.ids.push_back(row.value(0).AsInt64());
        q.classes.push_back(row.value(1).AsInt64());
      }
      e2e.Complete(q.end_ns, 0.0, static_cast<double>(q.ids.size()));
      selects.push_back(std::move(q));
    }
    sql_cpu_ns = ThreadCpuNs() - cpu_start;
  });

  std::thread point_reader([&] {
    std::mt19937_64 rng(args.seed * 1442695040888963407ULL + 5);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> variant(0, 2 * kVariants - 1);
    std::exponential_distribution<double> gap(kReadsPerSecond);
    reads.reserve(static_cast<size_t>(args.seconds * kReadsPerSecond * 2));
    for (double due = static_cast<double>(start);;) {
      due += gap(rng) * 1e9;
      if (due >= static_cast<double>(end)) break;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(static_cast<int64_t>(due) - NowNs()));
      const int base = static_cast<int>(
          std::lower_bound(pool.zipf_cdf.begin(), pool.zipf_cdf.end(),
                           u(rng)) -
          pool.zipf_cdf.begin());
      const int v = variant(rng);  // half the requests repeat the base
      const int request = std::min(base, kBases - 1) * (kVariants + 1) +
                          (v < kVariants ? 0 : v - kVariants + 1);
      auto input = Tensor::FromData(relserve::Shape{1, kDim},
                                    pool.inputs[request]);
      if (!input.ok()) {
        ++read_failed;
        continue;
      }
      const int64_t t0 = NowNs();
      Result<Tensor> out =
          scheduler->SubmitCached(kPointModel, std::move(*input)).get();
      const int64_t t1 = NowNs();
      tracer->Record("cache.read", t0, t1);
      if (!out.ok()) {
        ++read_failed;
        continue;
      }
      const int64_t due_ns = static_cast<int64_t>(due);
      reads.push_back({due_ns, static_cast<double>(t1 - due_ns) * 1e-6});
      e2e.Complete(t1, 1.0, 1.0);
      const std::string why =
          out->NumElements() != oracle.out_dim()
              ? "cached reply has the wrong width"
              : CheckCacheReply(request, out->data(), oracle.out_dim(),
                                pool.neighbors, pool.oracle);
      if (!why.empty() && read_errors.size() < 20) read_errors.push_back(why);
    }
  });

  writer.join();
  sql_reader.join();
  point_reader.join();
  e2e.cpu_ns = ProcessCpuNs() - cpu0;
  const double run_s = static_cast<double>(NowNs() - start) * 1e-9;
  tracer->Counters("run.", Delta(s0, Capture(probes)));

  // Live approximate-cache entries: pooled inputs that still hit.
  if (tracer->enabled()) {
    RELSERVE_ASSIGN_OR_RETURN(relserve::ApproxResultCache * approx,
                              session->GetApproxCache(kPointModel));
    int64_t live = 0;
    for (const auto& in : pool.inputs) live += approx->Lookup(in).has_value();
    tracer->Counter("run.approx_live_entries", static_cast<double>(live));
  }

  // --- Checks -------------------------------------------------------
  std::map<int64_t, std::vector<double>> row_oracle;
  int64_t select_rows = 0;
  for (const Select& q : selects) {
    const std::string why = CheckSelectVisibility(
        q.lo, q.hi, q.start_ns, q.end_ns, q.ids, id_times);
    if (!why.empty()) report->Mismatch("SELECT [" + std::to_string(q.lo) +
                                       ", " + std::to_string(q.hi) + "): " +
                                       why);
    select_rows += static_cast<int64_t>(q.ids.size());
    for (size_t i = 0; i < q.ids.size(); ++i) {
      auto it = row_oracle.find(q.ids[i]);
      if (it == row_oracle.end()) {
        const std::vector<float> f = RowFeatures(args.seed, q.ids[i]);
        it = row_oracle.emplace(q.ids[i], oracle.Forward(f.data())).first;
      }
      if (!ClassMatches(q.classes[i], it->second)) {
        report->Mismatch("SQL class of id " + std::to_string(q.ids[i]) +
                         " differs from the oracle");
      }
    }
  }
  for (const std::string& why : read_errors) report->Mismatch(why);

  e2e.latency = std::move(reads);
  e2e.cpu_rows = static_cast<double>(e2e.latency.size() + select_rows);
  report->attempted = commits + updates + static_cast<int64_t>(selects.size()) +
                      select_failed + static_cast<int64_t>(e2e.latency.size()) +
                      read_failed;
  report->failed = write_failed + select_failed + read_failed;
  tracer->Counter("run.seconds", run_s);
  tracer->Counter("run.commits", static_cast<double>(commits + updates));
  tracer->Counter("run.rows_written", static_cast<double>(rows_written));
  tracer->Counter("run.selects", static_cast<double>(selects.size()));
  tracer->Counter("run.select_rows", static_cast<double>(select_rows));
  tracer->Counter("run.reads", static_cast<double>(e2e.latency.size()));
  tracer->Counter("run.writer_cpu_ns", static_cast<double>(writer_cpu_ns));
  tracer->Counter("run.sql_cpu_ns", static_cast<double>(sql_cpu_ns));
  tracer->Counter("mem.peak_bytes", session->working_memory()->peak_bytes());
  ReportEndToEnd(e2e, report);

  // Durability: reopen on the WAL alone and compare with what was
  // acknowledged.
  st.reset();
  {
    relserve::ServingSession reopened(Config(args));
    RELSERVE_RETURN_NOT_OK(reopened.wal_status());
    RELSERVE_ASSIGN_OR_RETURN(
        relserve::sql::QueryResult all,
        relserve::sql::ExecuteQuery(&reopened, "SELECT id, tag FROM feat"));
    std::map<int64_t, int64_t> got;
    for (const relserve::Row& row : all.rows) {
      if (!got.emplace(row.value(0).AsInt64(), row.value(1).AsInt64())
               .second) {
        report->Mismatch("id " + std::to_string(row.value(0).AsInt64()) +
                         " recovered twice");
      }
    }
    const std::string why = CheckRecovered(want_tags, got);
    if (!why.empty()) report->Mismatch("recovery: " + why);
  }
  return Status::OK();
}

}  // namespace relbench
