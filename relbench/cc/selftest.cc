// The benchmark's own test: every check passes on the program's real
// output and fires once that output is corrupted.
#include <cstdio>
#include <filesystem>

#include "harness.h"
#include "oracle.h"
#include "sql/query_executor.h"

namespace relbench {

using relserve::Status;
using relserve::Tensor;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::fprintf(stderr, "%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

Status OracleChecks(const std::string& workdir) {
  RELSERVE_ASSIGN_OR_RETURN(relserve::Model model,
                            relserve::BuildFFNN("m", {24, 64, 32, 6}, 9));
  RELSERVE_ASSIGN_OR_RETURN(OracleNet oracle, OracleNet::FromModel(model));
  relserve::ServingConfig config;
  config.spill_path = workdir + "/selftest.db";
  relserve::ServingSession session(config);
  RELSERVE_RETURN_NOT_OK(session.RegisterModel(std::move(model)));
  RELSERVE_RETURN_NOT_OK(
      session.Deploy("m", relserve::ServingMode::kAdaptive, 4).status());
  std::vector<float> x(4 * 24);
  for (size_t i = 0; i < x.size(); ++i) x[i] = (i % 13) * 0.07f;
  RELSERVE_ASSIGN_OR_RETURN(Tensor input,
                            Tensor::FromData(relserve::Shape{4, 24}, x));
  RELSERVE_ASSIGN_OR_RETURN(relserve::ExecOutput out,
                            session.PredictBatch("m", input));
  RELSERVE_ASSIGN_OR_RETURN(Tensor got, out.ToTensor(session.exec_context()));
  const auto want = oracle.ForwardRows(x.data(), 4, 2);
  bool all = true;
  for (int r = 0; r < 4; ++r) all &= Close(got.data() + r * 6, want[r], 6);
  Expect(all, "oracle accepts the program's output");
  got.data()[6 + 2] += 1e-3f;
  Expect(!Close(got.data() + 6, want[1], 6),
         "oracle rejects an output off by 1e-3");
  Expect(!Close(got.data() + 6, want[2], 6),
         "oracle rejects another row's output (mismatched request id)");
  int best = 0;
  for (int c = 1; c < 6; ++c) best = want[0][c] > want[0][best] ? c : best;
  Expect(ClassMatches(best, want[0]), "class check accepts the arg-max");
  Expect(!ClassMatches((best + 1) % 6, want[0]),
         "class check rejects another class");
  return Status::OK();
}

void VisibilityChecks() {
  std::map<int64_t, IdTimes> ids;
  ids[0] = {10, 20};   // acknowledged before the SELECT
  ids[1] = {10, 0};    // never acknowledged (in flight)
  ids[2] = {500, 0};   // began after the SELECT ended
  ids[3] = {90, 150};  // acknowledged during the SELECT
  const int64_t start = 100, end = 200;
  Expect(CheckSelectVisibility(0, 4, start, end, {0, 3}, ids).empty(),
         "visibility accepts a consistent SELECT");
  Expect(CheckSelectVisibility(0, 4, start, end, {0, 1, 3}, ids).empty(),
         "visibility accepts an in-flight row");
  Expect(!CheckSelectVisibility(0, 4, start, end, {3}, ids).empty(),
         "visibility fires on a missing acknowledged row");
  Expect(!CheckSelectVisibility(0, 4, start, end, {0, 2}, ids).empty(),
         "visibility fires on a row inserted after the SELECT");
  Expect(!CheckSelectVisibility(0, 4, start, end, {0, 0}, ids).empty(),
         "visibility fires on a duplicated row");
  Expect(!CheckSelectVisibility(0, 1, start, end, {0, 3}, ids).empty(),
         "visibility fires on a row outside the range");
}

void CacheChecks() {
  const std::vector<std::vector<double>> oracle = {
      {0.9, 0.1}, {0.8, 0.2}, {0.1, 0.9}};
  const std::vector<std::vector<int>> neighbors = {{0, 1}, {0, 1}, {2}};
  const float near[2] = {0.8f, 0.2f};
  const float far[2] = {0.1f, 0.9f};
  Expect(CheckCacheReply(0, near, 2, neighbors, oracle).empty(),
         "cache check accepts a hit from a pooled input within reach");
  Expect(!CheckCacheReply(0, far, 2, neighbors, oracle).empty(),
         "cache check fires on a hit from an input out of reach");
}

Status RecoveryChecks(const std::string& workdir) {
  relserve::ServingConfig config;
  config.spill_path = workdir + "/selftest.db";
  config.wal_dir = workdir + "/selftest-wal";
  std::filesystem::remove_all(config.wal_dir);
  std::filesystem::create_directories(config.wal_dir);
  {
    relserve::ServingSession session(config);
    RELSERVE_RETURN_NOT_OK(session.wal_status());
    RELSERVE_RETURN_NOT_OK(
        relserve::sql::ExecuteStatement(
            &session, "CREATE TABLE t (id INT64, tag INT64)")
            .status());
    std::vector<relserve::Row> rows;
    for (int64_t id = 0; id < 3; ++id) {
      rows.emplace_back(std::vector<relserve::Value>{
          relserve::Value(id), relserve::Value(int64_t{0})});
    }
    RELSERVE_RETURN_NOT_OK(session.IngestRows("t", rows));
    RELSERVE_RETURN_NOT_OK(
        relserve::sql::ExecuteStatement(&session,
                                        "UPDATE t SET tag = 7 WHERE id = 1")
            .status());
  }
  relserve::ServingSession reopened(config);
  RELSERVE_ASSIGN_OR_RETURN(
      relserve::sql::QueryResult all,
      relserve::sql::ExecuteQuery(&reopened, "SELECT id, tag FROM t"));
  std::map<int64_t, int64_t> got;
  for (const relserve::Row& row : all.rows) {
    got[row.value(0).AsInt64()] = row.value(1).AsInt64();
  }
  const std::map<int64_t, int64_t> want = {{0, 0}, {1, 7}, {2, 0}};
  Expect(CheckRecovered(want, got).empty(),
         "recovery check accepts the reopened session");
  std::map<int64_t, int64_t> lost = got;
  lost.erase(2);
  Expect(!CheckRecovered(want, lost).empty(),
         "recovery check fires on a lost acknowledged row");
  std::map<int64_t, int64_t> extra = got;
  extra[9] = 0;
  Expect(!CheckRecovered(want, extra).empty(),
         "recovery check fires on a row never acknowledged");
  std::map<int64_t, int64_t> stale = got;
  stale[1] = 0;
  Expect(!CheckRecovered(want, stale).empty(),
         "recovery check fires on a lost update");
  return Status::OK();
}

}  // namespace

int RunSelfTest(const std::string& workdir) {
  for (const Status& s : {OracleChecks(workdir), RecoveryChecks(workdir)}) {
    if (!s.ok()) {
      std::fprintf(stderr, "FAIL  %s\n", s.ToString().c_str());
      ++failures;
    }
  }
  VisibilityChecks();
  CacheChecks();
  std::fprintf(stderr, "%s\n", failures == 0 ? "selftest passed"
                                             : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace relbench
