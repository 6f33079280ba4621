#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <serve_mix|cold_suite|eco_vcycle>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the netpart libraries, netpartd and
the perfbench driver from source into .bench_build/ (first run only), runs
the workload through the driver, checks its answers, prints a readable
report and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics below; with --trace 1
they are the per-layer metrics (a separate traced run, preceded by an
untraced one for the tracing overhead).  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import signal
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis as A  # noqa: E402

WORKLOADS = ("serve_mix", "cold_suite", "eco_vcycle")
HELD_OUT_SEED = 9001
SETUP_REPS = {"serve_mix": 3, "cold_suite": 15, "eco_vcycle": 5}
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ratio_geomean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    # serve_mix: daemon stages (response stages_us + access-log write_us)
    ("server.parse_us.p50", "us"),
    ("server.admission_us.p50", "us"),
    ("server.queue_us.hit.p50", "us"),
    ("server.queue_us.hit.p99", "us"),
    ("server.queue_us.warm.p95", "us"),
    ("server.queue_us.cold.p95", "us"),
    ("server.execute_us.hit.p50", "us"),
    ("server.execute_us.warm.p50", "us"),
    ("server.execute_us.cold.p50", "us"),
    ("server.serialize_us.p50", "us"),
    ("server.write_us.p50", "us"),
    ("server.unattributed_us.hit.p50", "us"),
    ("server.unattributed_us.warm.p50", "us"),
    ("server.unattributed_us.cold.p50", "us"),
    # serve_mix: daemon counters (stats at step boundaries, answers)
    ("server.shed.hit", "count"),
    ("server.shed.warm", "count"),
    ("server.shed.cold", "count"),
    ("server.lane_busy_frac.max", "fraction"),
    ("server.lane_imbalance", "ratio"),
    ("server.cache_hit_ratio", "fraction"),
    ("server.served_from.cache", "count"),
    ("server.served_from.session", "count"),
    ("server.served_from.compute", "count"),
    ("server.sessions_live.max", "count"),
    # serve_mix: in-process replay of the same requests
    ("io.read_hgr_ms.hit", "ms"),
    ("io.read_hgr_ms.cold", "ms"),
    ("hypergraph.content_hash_us", "us"),
    ("repart.session_ctor_ms.hit", "ms"),
    ("repart.session_ctor_ms.cold", "ms"),
    ("server.result_cache.find_us", "us"),
    ("repart.repartition_ms.warm", "ms"),
    ("repart.repartition_ms.cold", "ms"),
    ("repart.warm_over_cold", "ratio"),
    ("repart.sweep_ranks_evaluated_frac", "fraction"),
    ("repart.lanczos_iters.warm", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    # cold_suite
    ("graph.ig_build_ms", "ms"),
    ("graph.ig_edges", "count"),
    ("spectral.ordering_ms", "ms"),
    ("linalg.lanczos_iters", "count"),
    ("linalg.spmv_us", "us"),
    ("linalg.spmv_gbps", "GB/s"),
    ("igmatch.sweep_ms", "ms"),
    ("igmatch.splits_evaluated", "count"),
    ("igmatch.matcher_sweep_ms", "ms"),
    ("igmatch.sweep_eval_ms", "ms"),
    ("igmatch.label_changes", "count"),
    ("igmatch.bound_slack", "count"),
    ("core.unattributed_ms", "ms"),
    # eco_vcycle
    ("cluster.coarsen_ms", "ms"),
    ("cluster.levels", "count"),
    ("cluster.coarsest_modules", "count"),
    ("igmatch.coarsest_solve_ms", "ms"),
    ("fm.refine_ms", "ms"),
    ("repart.edit_apply_ms", "ms"),
    ("cluster.vcycle_refine_ms", "ms"),
    ("repart.unattributed_ms.warm", "ms"),
    ("repart.vcycles_improving_frac", "fraction"),
    ("repart.used_previous_partition_frac", "fraction"),
    ("repart.session_ctor_ms", "ms"),
    ("repart.drift_pct", "%"),
    # every workload
    ("obs.trace_overhead_pct", "%"),
)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# --- build ------------------------------------------------------------------


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the daemon and the driver; returns their
    paths.  Exits non-zero when the sources are missing or do not build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no netpart sources next to perfbench/ (run from a checkout)", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        cmd = ["cmake", "--build", out, "--target", "perfbench_driver",
               "netpartd_bin", "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed (log: %s)" % log_path)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "netpart", "tools", "netpartd"))


def provenance(raw, seed, trace):
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": raw.get("nproc"), "lanes": raw.get("lanes"),
            "build_type": raw.get("build_type"), "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "trace": trace,
            "setup_reps": raw.get("setup_reps")}


# --- one driver run ----------------------------------------------------------


def run_driver(driver, netpartd, workload, seed, seconds, trace, deadline):
    """Run the driver in its own process group (so a timeout also reaps the
    daemon it forks) and return its raw document."""
    workdir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "raw.json")
    cmd = [driver, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out, "--workdir", workdir,
           "--netpartd", netpartd, "--setup-reps", str(SETUP_REPS[workload])]
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % workload)
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail("driver exited with %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


# --- metrics -------------------------------------------------------------------


def stats_of(line):
    try:
        return json.loads(line)
    except (TypeError, ValueError):
        return {}


def serve_mix_metrics(raw):
    steps = raw["steps"]
    nominal = next(s for s in steps if s["kind"] == "nominal")
    # The nominal step is the ladder's first rung.
    ladder = [nominal] + [s for s in steps if s["kind"] == "ladder"]
    ev = A.step_events(nominal)
    lat = {c: A.latencies(ev, c) for c in A.CLASSES}
    mix = lat["hit"] + lat["warm"] + lat["cold"]
    ladder_events = [(s["qps"], A.step_events(s)) for s in ladder]
    cold_ratios = [r for e, r in zip(ev, nominal["ratio"])
                   if e["cls"] == "cold" and e["outcome"] == "ok"]
    lag_p99 = A.percentile(A.generator_lag(ev), 99)
    hit_p50 = A.percentile(lat["hit"], 50)
    e2e = {
        "p50_ms": hit_p50,
        "p95_ms": A.percentile(mix, 95),
        "cold_p50_ms": A.percentile(lat["cold"], 50),
        "throughput_per_s": A.max_qps_in_slo(ladder_events),
        "ratio_geomean": A.geomean(cold_ratios),
        "setup_s": A.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    # At the nominal rate a shed is a failure; above it, shedding is the
    # ladder's purpose.
    failed_nominal = A.count(ev, None, A.FAILED_OUTCOMES + ("shed",))
    failed_above = sum(A.count(e, None, A.FAILED_OUTCOMES)
                       for _, e in ladder_events[1:])
    report = {
        "hit_p50_ms": hit_p50,
        "hit_p99_ms": A.percentile(lat["hit"], 99),
        "warm_p50_ms": A.percentile(lat["warm"], 50),
        "warm_p95_ms": A.percentile(lat["warm"], 95),
        "cold_p50_ms": e2e["cold_p50_ms"],
        "cold_p95_ms": A.percentile(lat["cold"], 95),
        "max_qps_in_slo": e2e["throughput_per_s"],
        "failed_frac": failed_nominal / max(1, len(ev)),
        "gen_lag_p99_ms": lag_p99,
        "nominal_qps": nominal["qps"],
        "nominal_events": len(ev),
        "samples": {c: len(lat[c]) for c in A.CLASSES},
    }
    ladder_lines = ["rate ladder (qps, events, sheds, in SLO, why not):"]
    for qps, events in ladder_events:
        ok, reasons = A.slo_verdict(events)
        ladder_lines.append("  %7.2f %5d %4d %-5s %s" % (
            qps, len(events), A.count(events, None, ("shed",)), ok,
            ", ".join(reasons)))
    problems = []
    if not A.top_step_shed(ladder_events):
        problems.append("the rate ladder never reached a step that sheds")
    if not A.generator_kept_up(A.generator_lag(ev), hit_p50):
        problems.append("generator lag p%d %s ms is not far below hit p50 %s ms"
                        % (A.LAG_PERCENTILE,
                           A.percentile(A.generator_lag(ev), A.LAG_PERCENTILE),
                           hit_p50))
    return {"e2e": e2e, "report": report, "lines": ladder_lines,
            "problems": problems,
            "attempted": sum(len(e) for _, e in ladder_events),
            "failed": failed_nominal + failed_above}


def serve_mix_layers(raw):
    steps = raw["steps"]
    nominal = next(s for s in steps if s["kind"] == "nominal")
    ev = A.step_events(nominal)
    access = A.read_access_log(raw["access_log"])
    replay = {}
    for r in raw["replay"]["hit"]:
        replay[r["trace_id"]] = {
            "io.read_hgr": 1e3 * r["read_hgr_ms"],
            "hypergraph.content_hash": r["content_hash_us"],
            "repart.session_ctor": 1e3 * r["ctor_ms"],
            "server.result_cache.find": r["find_us"]}
    for r in raw["replay"]["cold"]:
        replay[r["trace_id"]] = {
            "io.read_hgr": 1e3 * r["read_hgr_ms"],
            "repart.session_ctor": 1e3 * r["ctor_ms"],
            "repart.repartition": 1e3 * r["repartition_ms"]}
    for r in raw["replay"]["warm"]:
        replay[r["trace_id"]] = {
            "repart.edit_apply": 1e3 * r["edit_apply_ms"],
            "repart.repartition": 1e3 * r["repartition_ms"]}
    rows = A.join_stages(nominal, access, replay)

    def col(key, cls=None):
        return [r[key] for r in rows if cls is None or r["cls"] == cls]

    m = {
        "server.parse_us.p50": A.percentile(col("parse"), 50),
        "server.admission_us.p50": A.percentile(col("admission"), 50),
        "server.queue_us.hit.p50": A.percentile(col("queue", "hit"), 50),
        "server.queue_us.hit.p99": A.percentile(col("queue", "hit"), 99),
        "server.queue_us.warm.p95": A.percentile(col("queue", "warm"), 95),
        "server.queue_us.cold.p95": A.percentile(col("queue", "cold"), 95),
        "server.serialize_us.p50": A.percentile(col("serialize"), 50),
        "server.write_us.p50": A.percentile(col("write_us"), 50),
    }
    for cls in A.CLASSES:
        m["server.execute_us.%s.p50" % cls] = A.percentile(col("execute", cls), 50)
        m["server.unattributed_us.%s.p50" % cls] = A.percentile(
            col("unattributed_us", cls), 50)

    # Counters: admission sheds over every step; lanes and cache over the
    # nominal step.
    samples = [stats_of(x) for s in steps for x in (s["stats_before"], s["stats_after"])]
    for cls in A.CLASSES:
        m["server.shed.%s" % cls] = sum(
            stats_of(s["stats_after"]).get("admission", {}).get(cls, {}).get("shed", 0)
            - stats_of(s["stats_before"]).get("admission", {}).get(cls, {}).get("shed", 0)
            for s in steps)
    before, after = stats_of(nominal["stats_before"]), stats_of(nominal["stats_after"])
    executed = [a["executed"] - b["executed"]
                for a, b in zip(after.get("lanes", []), before.get("lanes", []))]
    mean_exec = sum(executed) / len(executed) if executed else 0
    m["server.lane_imbalance"] = max(executed) / mean_exec if mean_exec else None
    hits = after.get("cache_hits", 0) - before.get("cache_hits", 0)
    misses = after.get("cache_misses", 0) - before.get("cache_misses", 0)
    m["server.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else None
    traces = set(t for t in nominal["trace_id"] if t)
    busy = {}
    for (trace_id, _), rec in access.items():
        if trace_id in traces and rec.get("lane") is not None:
            busy[rec["lane"]] = busy.get(rec["lane"], 0) + rec.get("execute_us", 0)
    m["server.lane_busy_frac.max"] = (
        max(busy.values()) / (1e3 * nominal["wall_ms"]) if busy else None)
    for source in ("cache", "session", "compute"):
        m["server.served_from.%s" % source] = sum(
            1 for e in ev if e["served_from"] == source)
    m["server.sessions_live.max"] = max(
        (s.get("sessions_live", 0) for s in samples), default=None)

    rp = raw["replay"]
    m["io.read_hgr_ms.hit"] = A.median([r["read_hgr_ms"] for r in rp["hit"]])
    m["io.read_hgr_ms.cold"] = A.median([r["read_hgr_ms"] for r in rp["cold"]])
    m["hypergraph.content_hash_us"] = A.median([r["content_hash_us"] for r in rp["hit"]])
    m["repart.session_ctor_ms.hit"] = A.median([r["ctor_ms"] for r in rp["hit"]])
    m["repart.session_ctor_ms.cold"] = A.median([r["ctor_ms"] for r in rp["cold"]])
    m["server.result_cache.find_us"] = A.median([r["find_us"] for r in rp["hit"]])
    warm_ms = A.median([r["repartition_ms"] for r in rp["warm"]])
    m["repart.repartition_ms.warm"] = warm_ms
    m["repart.repartition_ms.cold"] = A.median([r["repartition_ms"] for r in rp["cold"]])
    prime = A.median(rp["warm_prime_ms"])
    m["repart.warm_over_cold"] = warm_ms / prime if warm_ms and prime else None
    total = sum(r["ranks_total"] for r in rp["warm"])
    m["repart.sweep_ranks_evaluated_frac"] = (
        sum(r["ranks_evaluated"] for r in rp["warm"]) / total if total else None)
    m["repart.lanczos_iters.warm"] = A.median(
        [r["lanczos_iterations"] for r in rp["warm"]])
    m["bench.gen_lag_p99_ms"] = A.percentile(A.generator_lag(ev), 99)
    return m, A.ledger(rows)


def cold_suite_metrics(raw):
    names = [c["name"] for c in raw["circuits"]]
    passes = raw["passes"]
    solves = [ms for p in passes for ms in p["ms"]]
    prim2 = names.index("Prim2") if "Prim2" in names else len(names) - 1
    walls = [p["wall_ms"] / 1e3 for p in passes]
    e2e = {
        "p50_ms": A.percentile(solves, 50),
        "p95_ms": A.percentile(solves, 95),
        "cold_p50_ms": A.median([p["ms"][prim2] for p in passes]),
        "throughput_per_s": A.median([len(names) / w for w in walls]),
        "ratio_geomean": A.median([A.geomean(p["ratio"]) for p in passes]),
        "setup_s": A.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    report = {"wall_s": A.median(walls), "passes": len(passes),
              "prim2_ms": e2e["cold_p50_ms"],
              "ratio_geomean": e2e["ratio_geomean"],
              "failed_frac": raw["checks"]["failed"] / max(1, raw["checks"]["attempted"])}
    for i, name in enumerate(names):
        report["%s.ms" % name] = A.median([p["ms"][i] for p in passes])
        report["%s.ratio" % name] = passes[0]["ratio"][i]
    return closed_loop_result(raw, e2e, report)


def closed_loop_result(raw, e2e, report):
    """A closed-loop workload attempts its answer checks; misses fail."""
    checks = raw["checks"]
    return {"e2e": e2e, "report": report, "lines": [], "problems": [],
            "attempted": checks["attempted"], "failed": checks["failed"]}


def cold_suite_layers(raw):
    traced = raw["traced_passes"]

    def per_pass_sum(key):
        return A.median([sum(c[key] for c in p) for p in traced])

    k = raw["kernels"]
    spmv_us = A.median(k["spmv_us"])
    # Bytes one SpMV must move at least once, from nnz and dim: values (8 B)
    # and column indices (4 B) per nonzero, the gathered x (8 B) per nonzero,
    # row offsets (8 B), and y written (8 B) per row.
    spmv_bytes = 20 * k["nnz"] + 16 * k["dim"]
    m = {
        "graph.ig_build_ms": per_pass_sum("ig_build_ms"),
        "graph.ig_edges": sum(c["ig_edges"] for c in traced[0]),
        "spectral.ordering_ms": per_pass_sum("ordering_ms"),
        "linalg.lanczos_iters": sum(c["lanczos_iters"] for c in traced[0]),
        "linalg.spmv_us": spmv_us,
        "linalg.spmv_gbps": spmv_bytes / (spmv_us * 1e3) if spmv_us else None,
        "igmatch.sweep_ms": per_pass_sum("sweep_ms"),
        "igmatch.splits_evaluated": sum(c["splits_evaluated"] for c in traced[0]),
        "igmatch.matcher_sweep_ms": A.median(k["matcher_sweep_ms"]),
        "igmatch.sweep_eval_ms": A.median(k["sweep_eval_ms"]),
        "igmatch.label_changes": k["label_changes"],
        "igmatch.bound_slack": sum(c["bound_slack"] for c in traced[0]),
        "core.unattributed_ms": A.median([
            sum(c["run_partitioner_ms"] - c["ig_build_ms"] - c["ordering_ms"]
                - c["sweep_ms"] for c in p) for p in traced]),
    }
    return m, None


def eco_vcycle_metrics(raw):
    passes = raw["passes"]
    warm = [ms for p in passes for ms in p["warm_ms"]]
    cold = [ms for p in passes for ms in (p["cold_ms"], p["resolve_ms"])]
    e2e = {
        "p50_ms": A.percentile(warm, 50),
        "p95_ms": A.percentile(warm, 95),
        "cold_p50_ms": A.median(cold),
        "throughput_per_s": A.median([
            len(p["warm_ms"]) / ((sum(p["warm_ms"]) + sum(p["edit_apply_ms"])) / 1e3)
            for p in passes]),
        "ratio_geomean": A.median([
            A.geomean([p["cold_ratio"]] + p["warm_ratio"] + [p["resolve_ratio"]])
            for p in passes]),
        "setup_s": A.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    p0 = passes[0]
    report = {
        "warm_p50_ms": e2e["p50_ms"], "cold_p50_ms": e2e["cold_p50_ms"],
        "ratio_geomean": e2e["ratio_geomean"],
        "drift_pct": 100.0 * (p0["final_warm_ratio"] / p0["resolve_ratio"] - 1.0),
        "modules": raw["modules"], "batches": raw["batches"],
        "edits_per_batch": raw["edits_per_batch"], "passes": len(passes),
        "failed_frac": raw["checks"]["failed"] / max(1, raw["checks"]["attempted"]),
    }
    return closed_loop_result(raw, e2e, report)


def eco_vcycle_layers(raw):
    t = raw["traced_pass"]
    refine = A.median(t["vcycle_refine_ms"])
    m = {
        "cluster.coarsen_ms": t["coarsen_ms"],
        "cluster.levels": t["levels"],
        "cluster.coarsest_modules": t["coarsest_modules"],
        "igmatch.coarsest_solve_ms": t["coarsest_solve_ms"],
        "fm.refine_ms": t["multilevel_ms"] - t["coarsen_ms"] - t["coarsest_solve_ms"],
        "repart.edit_apply_ms": A.median(t["edit_apply_ms"]),
        "cluster.vcycle_refine_ms": refine,
        "repart.unattributed_ms.warm": A.median(
            [w - r for w, r in zip(t["warm_ms"], t["vcycle_refine_ms"])]),
        "repart.vcycles_improving_frac":
            sum(t["vcycles_improving"]) / len(t["vcycles_improving"]),
        "repart.used_previous_partition_frac":
            sum(t["used_previous_partition"]) / len(t["used_previous_partition"]),
        "repart.session_ctor_ms": A.median(raw["session_ctor_ms"]),
        "repart.drift_pct": 100.0 * (t["final_warm_ratio"] / t["resolve_ratio"] - 1.0),
    }
    return m, None


# --- report ------------------------------------------------------------------


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


METRICS = {"serve_mix": serve_mix_metrics, "cold_suite": cold_suite_metrics,
           "eco_vcycle": eco_vcycle_metrics}
LAYERS = {"serve_mix": serve_mix_layers, "cold_suite": cold_suite_layers,
          "eco_vcycle": eco_vcycle_layers}


def summarize(workload, raw):
    """Print the readable report; returns (e2e metrics, problems,
    attempted, failed)."""
    result = METRICS[workload](raw)
    for line in result["lines"]:
        print(line)
    print("report (%s):" % workload)
    for k, v in result["report"].items():
        print("  %-28s %s" % (k, fmt(v)))
    checks = raw["checks"]
    problems = result["problems"]
    problems += ["check failed: " + msg for msg in checks["messages"]]
    if checks["failed"]:
        problems.append("%d of %d answer checks failed"
                        % (checks["failed"], checks["attempted"]))
    return (result["e2e"], problems, max(1, result["attempted"]),
            max(result["failed"], checks["failed"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + RUN_LIMIT_S

    driver, netpartd = build()
    if args.trace == 0:
        raw = run_driver(driver, netpartd, args.workload, args.seed,
                         args.seconds, 0, deadline)
    else:
        # The untraced twin run gives the tracing overhead; it gets the
        # first half of the time budget.
        half = max(1.0, args.seconds / 2)
        plain = run_driver(driver, netpartd, args.workload, args.seed, half,
                           0, deadline - 60)
        raw = run_driver(driver, netpartd, args.workload, args.seed, half, 1,
                         deadline)

    prov = provenance(raw, args.seed, args.trace)
    print("perfbench %s: %s" % (args.workload, json.dumps(prov, sort_keys=True)))
    e2e, problems, attempted, failed = summarize(args.workload, raw)

    if args.trace == 0:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layers, led = LAYERS[args.workload](raw)
        base = METRICS[args.workload](plain)["e2e"]
        if plain["checks"]["failed"]:
            problems.append("untraced run: %d answer checks failed"
                            % plain["checks"]["failed"])
            failed += plain["checks"]["failed"]
        layers["obs.trace_overhead_pct"] = (
            100.0 * (e2e["p50_ms"] / base["p50_ms"] - 1.0)
            if e2e["p50_ms"] and base["p50_ms"] else None)
        if led:
            print("ledger (median us per answered request; stages, then "
                  "replayed layer calls, then unattributed):")
            for cls, entry in led.items():
                print("  %s:" % cls)
                for k, v in entry.items():
                    print("    %-36s %s" % (k, fmt(v)))
        # Layers a workload does not run did no work: reported as 0.
        metrics = {name: {"value": layers.get(name) or 0, "unit": unit}
                   for name, unit in PER_LAYER}
        print("per-layer:")
        for name, unit in PER_LAYER:
            if name in layers:
                print("  %-40s %s %s" % (name, fmt(layers[name]), unit))

    for name, m in metrics.items():
        if m["value"] is None:
            problems.append("metric %s has no value" % name)
            m["value"] = 0
    if args.trace == 0:
        print("end-to-end:")
        for name, unit in END_TO_END:
            print("  %-20s %s %s" % (name, fmt(metrics[name]["value"]), unit))
    for p in problems:
        print("PROBLEM: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
