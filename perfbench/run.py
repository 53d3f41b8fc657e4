#!/usr/bin/env python3
"""pfi benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gmp-hunt --seed 1 --seconds 15 --trace 0

Builds the CLIs (and the tracer) in release mode, runs the workload's fixed
operation list as child processes, checks every operation against its
golden digest and exit code, and prints the end-to-end metrics (--trace 0)
or the per-layer metrics of the traced run (--trace 1) as the last line of
standard output. See README.md in this directory.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import harness as h


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cli(workload, seed, seeds, bins, work, goldens):
    ops = workload.ops(seeds)
    warm = workload.warmup()
    # References for seeds without goldens are computed here, untimed and
    # before set-up.
    table, refs = h.cli_golden_table(ops + [warm], goldens, bins["pfi-campaign"], work)
    setup, warm_failures = [], []

    def warm_up():
        runs = [h.run_cli_op(warm, bins["pfi-campaign"], work, table) for _ in range(h.WARMUPS_PER_PASS)]
        # one set-up sample per pass: its fastest warm-up, as steps count
        setup.append(h.best_of(runs).wall_s)
        warm_failures.extend("warm-up: " + r.why for r in runs if not r.ok)

    results = h.run_cli_passes(ops, workload.passes, bins["pfi-campaign"], work, table, warm_up)
    metrics, record = h.summarize(results, setup, workload)
    record["references_computed"] = refs
    return results, warm_failures, metrics, record, table


def run_serve(workload, seed, seeds, bins, work, goldens):
    count = len(seeds)
    golden = h.serve_golden(goldens, seed, count)
    refs = 0
    if golden is None:
        _, golden, _ = h.serve_sequence(bins["pfi-serve"], work / "reference", seed, seeds, jobs=1)
        refs = count
    ref_failures = [f"reference op {i} failed" for i, g in enumerate(golden) if g is None]
    setup = []
    for k in range(h.SERVE_LAUNCHES - workload.passes):
        daemon = h.Daemon(bins["pfi-serve"], work / f"launch{k}", h.JOBS)
        try:
            setup.append(daemon.launch_s)
            daemon.stop()
        finally:
            daemon.kill()
    cpu_at_start = {}

    def on_op(event, daemon):
        if event == "start":
            cpu_at_start["s"] = daemon.cpu_s()

    passes, cpu_s, rss_kb = [], [], []
    for k in range(workload.passes):
        results, _, daemon = h.serve_sequence(
            bins["pfi-serve"], work / f"daemon{k}", seed, seeds, h.JOBS, golden, on_op
        )
        passes.append(results)
        setup.append(daemon.launch_s)
        usage = daemon.reaped
        cpu_s.append(usage.ru_utime + usage.ru_stime - cpu_at_start["s"])
        rss_kb.append(usage.ru_maxrss)
    results = [h.best_of(runs) for runs in zip(*passes)]
    # Each pass runs on its own daemon, so the daemon's CPU time is known per
    # pass only: the least of them, like the operations' fastest execution.
    metrics, record = h.summarize(results, setup, workload, min(cpu_s), max(rss_kb))
    record["references_computed"] = refs
    table = {("serve", str(i)): tuple(g) for i, g in enumerate(golden) if g is not None}
    return results, ref_failures, metrics, record, table


def run_tracer(workload, seeds, bins, work, table):
    """The traced run: the same operations in-process, per-layer timings
    from outside each layer's public functions. Returns (per-layer metrics,
    traced per-op wall ms, failed operations, failure reasons)."""
    count = len(seeds)
    tdir = work / "trace"
    tdir.mkdir(parents=True, exist_ok=True)
    argv = [
        str(bins["pfi-perfbench-tracer"]), "--workload", workload.name,
        "--seeds", ",".join(map(str, seeds)), "--jobs", str(h.JOBS), "--work", str(tdir),
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=max(1.0, min(h.time_left(), 3600.0)))
    except subprocess.TimeoutExpired:
        return {}, [], count, ["tracer ran past the run deadline"]
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {}, [], count, [f"tracer exited with {proc.returncode}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = ["re-drive: " + e for e in out["errors"]]
    failed = count - len(out["ops"])
    for i, op in enumerate(out["ops"]):
        bad = False
        for kind, key, digest, code in op["digests"]:
            if workload.serve:
                kind, key = "serve", str(i)
            want = table.get((kind, key))
            if want is None or (digest, code) != tuple(want):
                bad = True
                failures.append(f"traced {kind} seed {key}: digest {digest} exit {code}, golden {want}")
        failed += bad
    return out["metrics"], [op["wall_ms"] for op in out["ops"]], failed, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (h.ROOT / "Cargo.toml").is_file() or not (h.ROOT / "crates").is_dir():
        log(f"no pfi workspace at {h.ROOT}: nothing to benchmark")
        return 2
    workload = h.WORKLOADS[args.workload]
    count = workload.op_count(args.seconds)
    work = h.ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            bins = h.build(sys.stderr)
        except RuntimeError as e:
            log(str(e))
            return 2
        h.start_clock()
        record = h.run_record(workload, args.seed, count)
        goldens = h.load_goldens()
        seeds = workload.seeds(args.seed, count, goldens.get("cost_ms"))
        runner = run_serve if workload.serve else run_cli
        steal0, total0 = h.cpu_ticks()
        results, warm_failures, metrics, stats, table = runner(
            workload, args.seed, seeds, bins, work, goldens
        )
        steal1, total1 = h.cpu_ticks()
        record.update(stats)
        record["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
        failures = warm_failures + [r.why for r in results if not r.ok]
        attempted = len(results)
        failed = sum(not r.ok for r in results)
        record["failed_frac"] = failed / attempted

        if args.trace:
            layers, traced_ms, traced_failed, trace_failures = run_tracer(
                workload, seeds, bins, work, table
            )
            failures += trace_failures
            attempted += count
            failed += traced_failed
            untraced = metrics["campaign_ms_p50"][0]
            if traced_ms:
                layers["trace.overhead_frac"] = statistics.median(traced_ms) / untraced - 1.0
            # The wire timings come from the untraced run's own requests;
            # the CLI workloads have no daemon, so these read 0 there.
            layers["serve.submit_ms"] = statistics.median(r.submit_s for r in results) * 1000.0
            layers["serve.wait_ms"] = statistics.median(r.wait_s for r in results) * 1000.0
            layers["serve.results_ms"] = statistics.median(r.results_s for r in results) * 1000.0
            layers["serve.results_bytes"] = statistics.mean(r.results_bytes for r in results)
            out = {}
            for name, unit in h.PER_LAYER:
                if name not in layers:
                    failures.append(f"per-layer metric {name} missing")
                out[name] = {"value": float(layers.get(name, 0.0)), "unit": unit}
            record["traced_ops"] = len(traced_ms)
        else:
            out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for why in failures[:20]:
        log("FAILED " + why)
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
