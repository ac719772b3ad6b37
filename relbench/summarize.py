#!/usr/bin/env python3
"""Per-layer metrics from a traced relbench run (stdlib only).

A traced run writes one file: a JSON header line (workload, counter
deltas per phase, the traced run's end-to-end and client metrics), then one line
per span, "name start_ns end_ns id parent request". This module turns
it into the per-layer metrics named in BENCHMARK.json and prints each
span's self time (its duration minus what its child spans cover) and a
latency budget whose parts sum to the end-to-end mean.

    python3 relbench/summarize.py TRACE_FILE
"""
import json
import sys
from collections import defaultdict

WORKLOADS = ("point-net", "table-spill", "ingest-serve")
PAGE_BYTES = 64 * 1024
MIB = 1024.0 * 1024.0

# name -> unit; every traced run reports all of them (0 where the
# workload does not exercise the layer). The client.* metrics are the
# latencies and rates the workload's clients saw (README, "Metrics").
PER_LAYER = {
    "client.predict_p50_ms": "ms",
    "client.predict_p99_ms": "ms",
    "client.predict_rps": "1/s",
    "client.rows_per_s": "1/s",
    "net.self_us_per_req": "us",
    "net.bytes_per_req": "B",
    "net.gen_lag_p99_ms": "ms",
    "serving.mean_batch_rows": "rows",
    "serving.batches_per_s": "1/s",
    "serving.queue_us_per_req": "us",
    "serving.shed": "count",
    "engine.stage_us_per_row": "us",
    "engine.blocks_read_per_row": "count",
    "engine.prefetch_useful_ratio": "ratio",
    "engine.repr_fallbacks": "count",
    "kernels.gflop_per_s": "GFLOP/s",
    "kernels.flop_per_row": "FLOP",
    "optimizer.deploy_ms": "ms",
    "optimizer.relational_stages": "count",
    "storage.pool_hit_ratio": "ratio",
    "storage.spill_read_mib_per_query": "MiB",
    "storage.spill_write_mib_per_query": "MiB",
    "storage.read_amplification": "ratio",
    "storage.wal_bytes_per_row": "B",
    "storage.recovery_s": "s",
    "storage.commit_cpu_us": "us",
    "storage.commit_p50_ms": "ms",
    "storage.commit_p99_ms": "ms",
    "sql.query_p50_ms": "ms",
    "sql.self_us_per_stmt": "us",
    "sql.cpu_us_per_row": "us",
    "relational.rows_scanned_per_result": "ratio",
    "cache.exact_hit_ratio": "ratio",
    "cache.approx_hit_ratio": "ratio",
    "cache.invalidations_per_commit": "ratio",
    "cache.approx_nodes_per_live_entry": "ratio",
    "resource.work_mem_peak_mib": "MiB",
    "trace.residual_share": "ratio",
}


def load(path):
    with open(path) as f:
        header = json.loads(f.readline())
        spans = []
        for line in f:
            name, start, end, sid, parent, req = line.split()
            spans.append((name, int(start), int(end), int(sid), int(parent),
                          int(req)))
    return header, spans


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """name -> (count, mean duration ns, mean self time ns)."""
    children = defaultdict(list)
    for s in spans:
        if s[4]:
            children[s[4]].append((s[1], s[2]))
    acc = defaultdict(lambda: [0, 0, 0])
    for name, start, end, sid, _, _ in spans:
        covered, cursor = 0, start
        for cs, ce in sorted(children.get(sid, ())) if sid else ():
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        a = acc[name]
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - covered
    return {n: (a[0], a[1] / a[0], a[2] / a[0]) for n, a in acc.items()}


def per_layer(header, spans, out=None):
    c = header["counters"]
    wl = header["workload"]
    dur = defaultdict(list)
    for name, start, end, _, _, _ in spans:
        dur[name].append(end - start)

    def g(key):
        return float(c.get(key, 0.0))

    def plans(phase, field):
        suffix = "." + field
        return sum(v for k, v in c.items()
                   if k.startswith(phase + "plan.") and k.endswith(suffix))

    m = {k: 0.0 for k in PER_LAYER}
    for name, metric in header["client"].items():
        m["client." + name] = metric["value"]
    m["optimizer.deploy_ms"] = mean(dur["optimizer.deploy"]) / 1e6
    m["optimizer.relational_stages"] = sum(
        v for k, v in c.items() if k.endswith(".relational_stages"))
    m["resource.work_mem_peak_mib"] = max(
        [v for k, v in c.items() if k.endswith("mem.peak_bytes")] or [0]) / MIB
    m["serving.shed"] = sum(v for k, v in c.items()
                            if k.endswith("sched.shed"))
    m["engine.repr_fallbacks"] = sum(
        v for k, v in c.items() if k.endswith("exec.repr_fallbacks"))
    weight_bytes = sum(v for k, v in c.items() if k.endswith(".weight_bytes"))
    budget = []  # (part, mean ms) summing to the end-to-end mean

    if wl == "point-net":
        main, rows = "sat.", g("sat.sched.rows")
        queries = g("open.net.frames_in")
        client = mean(dur["client.request"])
        lag = mean(dur["gen.lag"])
        wire = mean(dur["net.roundtrip"])
        replay = mean(dur["serving.request"])
        engine_replay = ratio(plans("replay.", "nanos"),
                              g("replay.sched.batches"))
        engine_open = ratio(plans("open.", "nanos"), g("open.sched.batches"))
        m["net.self_us_per_req"] = (wire - replay) / 1e3
        m["net.bytes_per_req"] = ratio(g("open.net.bytes"), queries)
        m["net.gen_lag_p99_ms"] = quantile(dur["gen.lag"], 0.99) / 1e6
        m["serving.mean_batch_rows"] = ratio(rows, g("sat.sched.batches"))
        m["serving.batches_per_s"] = ratio(g("sat.sched.batches"),
                                           g("sat.seconds"))
        m["serving.queue_us_per_req"] = (replay - engine_replay) / 1e3
        budget = [("generator lag", lag), ("net self", wire - replay),
                  ("serving queue (replay)", replay - engine_replay),
                  ("engine stages per batch", engine_open)]
        e2e = client
    elif wl == "table-spill":
        main, rows = "run.", g("run.rows")
        queries = g("run.queries")
        e2e = mean(dur["client.query"])
        budget = [("engine stages", ratio(g("run.exec.stage_nanos"),
                                          queries))]
    else:
        main = "run."
        rows = g("run.sched.rows") + g("run.select_rows")
        queries = g("run.selects")
        reads = dur["cache.read"]
        selects = dur["sql.select"]
        sql_stage = ratio(g("run.plan.scorer.nanos"), queries)
        pt_batches = g("run.sched.batches")
        pt_engine = ratio(g("run.plan.scorer_pt.nanos"), pt_batches)
        commits = g("run.commits")
        m["storage.wal_bytes_per_row"] = ratio(g("run.wal.bytes"),
                                               g("run.rows_written"))
        m["storage.recovery_s"] = quantile(dur["storage.recover"], 0.5) / 1e9
        m["storage.commit_p50_ms"] = quantile(dur["storage.commit"], .5) / 1e6
        m["storage.commit_p99_ms"] = quantile(dur["storage.commit"], .99) / 1e6
        m["storage.commit_cpu_us"] = ratio(g("run.writer_cpu_ns"),
                                           commits) / 1e3
        m["sql.query_p50_ms"] = quantile(selects, 0.5) / 1e6
        m["sql.cpu_us_per_row"] = ratio(g("run.sql_cpu_ns"),
                                        g("run.select_rows")) / 1e3
        m["sql.self_us_per_stmt"] = (mean(selects) - sql_stage) / 1e3
        m["relational.rows_scanned_per_result"] = ratio(
            g("run.exec.rows_scanned"),
            g("run.select_rows") + len(dur["sql.update"]))
        m["serving.mean_batch_rows"] = ratio(g("run.sched.rows"), pt_batches)
        m["serving.batches_per_s"] = ratio(pt_batches, g("run.seconds"))
        m["serving.queue_us_per_req"] = (mean(reads) - pt_engine) / 1e3
        cm = "run.cache.scorer_pt."
        m["cache.exact_hit_ratio"] = ratio(g(cm + "exact_hits"),
                                           g(cm + "exact_lookups"))
        m["cache.approx_hit_ratio"] = ratio(g(cm + "approx_hits"),
                                            g(cm + "approx_lookups"))
        m["cache.invalidations_per_commit"] = ratio(
            g(cm + "exact_invalidations") + g(cm + "approx_invalidations"),
            commits)
        # Live entries are counted after the last commit, which may
        # have fenced them all: at least one keeps the ratio finite.
        m["cache.approx_nodes_per_live_entry"] = g(cm + "approx_nodes") / max(
            1.0, g("run.approx_live_entries"))
        e2e = mean(reads)
        budget = [("serving queue + cache", mean(reads) - pt_engine),
                  ("engine stages per batch", pt_engine)]
        if out is not None:
            print("sql select mean %.3f ms = sql self %.3f + stages %.3f" %
                  (mean(selects) / 1e6, (mean(selects) - sql_stage) / 1e6,
                   sql_stage / 1e6), file=out)

    m["engine.stage_us_per_row"] = ratio(g(main + "exec.stage_nanos"),
                                         rows) / 1e3
    m["engine.blocks_read_per_row"] = ratio(g(main + "exec.blocks_read"), rows)
    m["engine.prefetch_useful_ratio"] = ratio(
        g(main + "exec.prefetch_useful"), g(main + "exec.prefetch_issued"))
    m["kernels.gflop_per_s"] = ratio(plans(main, "mm_flops"),
                                     plans(main, "mm_nanos"))
    m["kernels.flop_per_row"] = ratio(plans(main, "mm_flops"),
                                      plans(main, "rows"))
    hits, misses = g(main + "pool.hits"), g(main + "pool.misses")
    m["storage.pool_hit_ratio"] = ratio(hits, hits + misses)
    reads_b = g(main + "disk.reads") * PAGE_BYTES
    m["storage.spill_read_mib_per_query"] = ratio(reads_b / MIB, queries)
    m["storage.spill_write_mib_per_query"] = ratio(
        g(main + "disk.writes") * PAGE_BYTES / MIB, queries)
    m["storage.read_amplification"] = ratio(reads_b, queries * weight_bytes)
    attributed = sum(part for _, part in budget)
    m["trace.residual_share"] = ratio(e2e - attributed, e2e)

    if out is not None:
        print("span self times (count, mean ms, mean self ms):", file=out)
        for name, (n, d, s) in sorted(self_times(spans).items()):
            print("  %-22s %8d %10.4f %10.4f" % (name, n, d / 1e6, s / 1e6),
                  file=out)
        print("latency budget of the end-to-end mean %.4f ms:" % (e2e / 1e6),
              file=out)
        for part, ns in budget:
            print("  %-26s %10.4f ms" % (part, ns / 1e6), file=out)
        print("  %-26s %10.4f ms" % ("residual", (e2e - attributed) / 1e6),
              file=out)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    header, spans = load(sys.argv[1])
    print(json.dumps(per_layer(header, spans, out=sys.stderr), indent=1))


if __name__ == "__main__":
    main()
