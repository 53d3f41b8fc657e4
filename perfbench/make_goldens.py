#!/usr/bin/env python3
"""Records the golden digests and exit codes the benchmark gates on.

    python3 perfbench/make_goldens.py

Every golden is computed at --jobs 1 (outcomes never depend on the worker
count, so the timed runs at harness.JOBS must reproduce them):

* CLI workloads: every step kind for the warm-up seed and every pooled
  campaign seed;
* serve: the whole operation list of the default workload seeds at the
  BENCHMARK.json run length, each on a fresh --jobs 1 daemon.

Run it only at a commit whose campaign outcomes are known good; the file it
writes is the contract later changes are held to.
"""

import concurrent.futures
import json
import sys

import harness as h

# Reference campaigns run at --jobs 1, this many at a time.
PARALLEL = 2


def record_costs(bins, work, goldens):
    """Measures every pooled seeded step once, at the benchmark's --jobs,
    one at a time. The wall times only order seeds into the cost strata
    each run samples from (see Workload.seeds); nothing is gated on them."""
    costs = {}
    for w in h.WORKLOADS.values():
        if w.serve:
            continue
        for i in range(2):
            kind = w.seeded_kind(i)
            if kind in costs:
                continue
            costs[kind] = {}
            for seed in h.POOL:
                step = next(s for s in w.op(seed, i) if s.seed is not None)
                run = h.run_child(step.argv(bins["pfi-campaign"], h.JOBS), work)
                costs[kind][str(seed)] = round(run.wall_s * 1000.0, 1)
    goldens["cost_ms"] = costs


def main():
    bins = h.build(sys.stderr)
    seconds = json.loads((h.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    work = h.ROOT / ".perfbench" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    steps = {}
    for w in h.WORKLOADS.values():
        if w.serve:
            continue
        for seed in [h.WARMUP_SEED, *h.POOL]:
            for i in range(2):
                for step in w.op(seed, i):
                    steps[(step.kind, step.key())] = step

    def cli(item):
        (kind, key), step = item
        slot = work / f"{kind}-{key}"
        slot.mkdir(exist_ok=True)
        run = h.run_child(step.argv(bins["pfi-campaign"], 1), slot)
        if run.exit not in (0, 1):
            raise RuntimeError(f"{kind} seed {key}: exit {run.exit}")
        return kind, key, [step.digest(run.stdout), run.exit]

    def serve(seed):
        w = h.WORKLOADS["serve"]
        seeds = w.seeds(seed, w.op_count(seconds))
        results, got, _ = h.serve_sequence(bins["pfi-serve"], work / f"serve-{seed}", seed, seeds, jobs=1)
        bad = [r.why for r in results if not r.ok]
        if bad:
            raise RuntimeError(f"serve seed {seed}: {bad[0]}")
        return seed, [list(g) for g in got]

    goldens = {"cli": {}, "serve": {}}
    with concurrent.futures.ThreadPoolExecutor(PARALLEL) as pool:
        for kind, key, entry in pool.map(cli, sorted(steps.items())):
            goldens["cli"].setdefault(kind, {})[key] = entry
        for seed, entries in pool.map(serve, h.DEFAULT_SEEDS):
            goldens["serve"][str(seed)] = entries
    record_costs(bins, work, goldens)
    h.GOLDENS.write_text(json.dumps(goldens, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {h.GOLDENS}: {sum(map(len, goldens['cli'].values()))} CLI goldens, "
          f"{len(goldens['serve'])} serve seeds, cost strata for {sorted(goldens['cost_ms'])}")


if __name__ == "__main__":
    main()
