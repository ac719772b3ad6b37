// relbench: one workload of the relserve benchmark per process.
//
//   relbench --workload point-net|table-spill|ingest-serve --seed N
//            --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//   relbench --selftest --workdir DIR
//
// Prints one JSON result line last on stdout. A correctness mismatch
// or an operational error exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  relbench::Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    ++i;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "relbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workdir.empty()) {
    std::fprintf(stderr, "relbench: --workdir is required\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  if (selftest) return relbench::RunSelfTest(args.workdir);
  if (args.seconds <= 0 || (args.trace && args.trace_out.empty())) {
    std::fprintf(stderr, "relbench: need --seconds > 0 and, when "
                         "tracing, --trace-out\n");
    return 2;
  }

  relbench::Tracer tracer(args.trace);
  relbench::Report report;
  relserve::Status status;
  if (args.workload == "point-net") {
    status = relbench::RunPointNet(args, &tracer, &report);
  } else if (args.workload == "table-spill") {
    status = relbench::RunTableSpill(args, &tracer, &report);
  } else if (args.workload == "ingest-serve") {
    status = relbench::RunIngestServe(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "relbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "relbench %s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "relbench %s: MISMATCH %s\n",
                 args.workload.c_str(), e.c_str());
  }
  std::fprintf(stderr, "client view: %s\n",
               relbench::Report::Json(report.client).c_str());
  if (args.trace) {
    status = tracer.WriteTo(args.trace_out, args.workload,
                            relbench::Report::Json(report.metrics),
                            relbench::Report::Json(report.client));
    if (!status.ok()) {
      std::fprintf(stderr, "relbench: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.ResultJson().c_str());
  return report.correct ? 0 : 1;
}
