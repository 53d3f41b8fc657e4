"""Workloads, operations, the golden-digest gate and the statistics of the
pfi benchmark. `run.py` is the command-line entry point; this module holds
everything it and the tests share.

Every gated number comes from the stable CLIs, `pfi-campaign` and
`pfi-serve`, run as child processes of this one harness process. The loop
is closed with one client: the next operation starts only after the
previous one has finished.
"""

import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

# Worker threads per child. Fixed so that every host runs the same program.
# One worker plus the master hand work back and forth, so a child keeps at
# most one CPU busy: on the 2-vCPU host the bounds were set on, more threads
# than that would measure the scheduler and the neighbours, not the program.
JOBS = 1
# Campaign seeds with recorded goldens. A workload seed picks its operations'
# campaign seeds from this pool, so every workload seed of a CLI workload is
# covered by goldens.
POOL = range(1, 257)
# Runs draw from the cheapest nine tenths of the pool, by recorded cost. The
# dearest tenth (buggy-gmp explore seeds of about 1.7 s to 13 s) took 60% of
# the pool's explore time; without it a run can execute every operation
# three times within the benchmark contract's time limits.
DRAWN_SHARE = 0.9
# Workload seeds whose serve operation lists have recorded goldens. Other
# seeds get --jobs 1 reference digests, computed untimed before set-up.
DEFAULT_SEEDS = range(24)
# The campaign seed of the untimed warm-up operation (outside the pool).
WARMUP_SEED = 0
# Warm-up operations before each pass of a CLI run. Each pass gives one
# set-up sample, its fastest warm-up; setup_s is the median over the passes.
# Spread over the run like the passes, they sample the host as the steps do.
WARMUPS_PER_PASS = 2
# Daemon launches per serve run; setup_s is their median.
SERVE_LAUNCHES = 9
# The tail percentile needs at least ten samples beyond it.
MIN_OPS = 30
TAIL_BEYOND = 10
STEP_TIMEOUT_S = 60
# Wall-time allowance for everything after the build; steps still pending at
# the deadline fail instead of running.
RUN_ALLOWANCE_S = 165
_deadline = [float("inf")]


def start_clock():
    _deadline[0] = time.perf_counter() + RUN_ALLOWANCE_S


def time_left():
    """Seconds until the run deadline (infinite before start_clock)."""
    return _deadline[0] - time.perf_counter()


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat. On a
    virtual machine, steal is time the hypervisor gave the guest's CPUs
    to other guests; a run with a large share of it measured its
    neighbours as much as itself."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


# Per-layer metrics of the traced run, in report order. A layer idle on a
# workload reports 0.
PER_LAYER = [
    ("mutate_us", "us"),
    ("prefilter_us", "us"),
    ("canonical_us", "us"),
    ("semantic_us", "us"),
    ("rejected", "count"),
    ("pruned", "count"),
    ("inert", "count"),
    ("prefilter.payoff", "ratio"),
    ("canonical.payoff", "ratio"),
    ("semantic.payoff", "ratio"),
    ("build_ms", "ms"),
    ("snapshot.fork_us", "us"),
    ("snapshot.lookup_us", "us"),
    ("snapshot.events_skipped_frac", "frac"),
    ("install_us", "us"),
    ("drive_us", "us"),
    ("drive.events", "count"),
    ("drive.ns_per_event", "ns"),
    ("trace.records", "count"),
    ("coverage_us", "us"),
    ("merge_us", "us"),
    ("coverage.novel_frac", "frac"),
    ("oracle_us", "us"),
    ("shrink_ms", "ms"),
    ("shrink.runs", "count"),
    ("shrink.exec_share", "frac"),
    ("fleet.busy_frac", "frac"),
    ("fleet.master_ms", "ms"),
    ("journal.append_us", "us"),
    ("journal.load_ms", "ms"),
    ("store.append_index_ms", "ms"),
    ("store.read_corpus_ms", "ms"),
    ("store.merge_corpus_ms", "ms"),
    ("store.corpus_len", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("serve.results_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("layers.accounted_frac", "frac"),
]

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values):
    """The highest nearest-rank percentile with at least ten samples beyond
    it: returns (value, percentile). Needs at least eleven samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND  # 1-based nearest rank; exactly ten samples lie above it
    return sorted(values)[rank - 1], 100.0 * rank / n


def middle_throughput(walls_ms, candidates):
    """Candidates decided per wall second over the middle half of the
    operations: those whose wall time lies between the first and third
    quartile. Unlike the median it sums the whole middle half, so it moves
    when any of those operations gets faster; unlike the pooled total it
    leaves out the heaviest quarter, which on gmp-hunt would mostly say
    which heavy seeds a run drew."""
    q1, _, q3 = statistics.quantiles(walls_ms, n=4)
    middle = [w for w in walls_ms if q1 <= w <= q3]
    return candidates * len(middle) * 1000.0 / sum(middle)


def fnv64(data):
    """FNV-1a 64 over bytes, as 16 hex digits (the repository's digest hash)."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def grid_digest(stdout):
    """Digest of a grid campaign's report with the worker count removed: the
    grid CLI has no --digest flag, and its outcome does not depend on jobs."""
    return fnv64(re.sub(r" \(\d+ job\(s\)\)", "", stdout).encode())


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Step:
    """One pfi-campaign invocation. `kind` and `seed` name its golden."""

    kind: str
    seed: object  # campaign seed, or None for the seedless grid
    args: tuple

    def key(self):
        return "-" if self.seed is None else str(self.seed)

    def argv(self, campaign_bin, jobs):
        return [str(campaign_bin), *self.args, "--jobs", str(jobs)]

    def digest(self, stdout):
        if self.kind == "gmp-hunt-grid":
            return grid_digest(stdout)
        lines = stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("pfi-campaign digest "):
            return None
        return lines[-1].split()[-1]


def explore_step(kind, proto, seed, extra=()):
    return Step(kind, seed, (proto, *extra, "--explore", "--seed", str(seed), "--digest"))


def gmp_hunt_op(seed, i):
    grid = Step("gmp-hunt-grid", None, ("gmp", "--buggy"))
    hunt = explore_step("gmp-hunt-explore", "gmp", seed, ("--buggy", "--budget", "64"))
    return [grid, hunt]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Nominal wall time of one operation on the reference host; sizes the
    # fixed operation list so a run lasts about --seconds there.
    nominal_ms: float
    # Budgeted candidates plus grid cases one operation decides.
    candidates: int
    # A run executes its operation list this many times, in passes spread
    # over the run; each step (serve: each operation) counts at its fastest
    # execution (see best_of).
    passes: int
    # CLI workloads: the steps of operation i with campaign seed s.
    op: object = None

    @property
    def serve(self):
        return self.op is None

    def op_count(self, seconds):
        return max(MIN_OPS, round(seconds * 1000.0 / (self.nominal_ms * self.passes)))

    def seeds(self, workload_seed, count, costs=None):
        """The campaign seeds of `count` operations.

        Serve draws distinct seeds in sequence, so operation i's seed does
        not depend on `count`: its goldens are kept per operation index.

        CLI workloads draw a stratified sample of the pool. For each step
        kind, the pooled seeds are ordered by their recorded cost (`costs`,
        kind -> seed -> ms), the dearest are left out (DRAWN_SHARE), and the
        rest are cut into as many strata as the run has
        operations of that kind. Each operation gets one seed from its own
        stratum, in shuffled order. Every run then carries the same mix of
        cheap and heavy campaigns. gmp-hunt's explore step costs from 0.1 s
        to about 1.7 s depending on the drawn seed, so with a plain random draw a
        run's figures would mostly say which heavy seeds it drew."""
        rng = random.Random(f"{self.name}:{workload_seed}")
        if self.serve:
            seeds, seen = [], set()
            while len(seeds) < count:
                s = rng.randrange(1, 1 << 20)
                if s not in seen:
                    seen.add(s)
                    seeds.append(s)
            return seeds
        costs = costs or {}
        out = [None] * count
        for kind in sorted({self.seeded_kind(i) for i in range(count)}):
            slots = [i for i in range(count) if self.seeded_kind(i) == kind]
            cost = costs.get(kind, {})
            ordered = sorted(POOL, key=lambda s: (cost.get(str(s), 0.0), s))
            ordered = ordered[:round(len(ordered) * DRAWN_SHARE)]
            if len(slots) > len(ordered):
                raise ValueError(f"{self.name}: more operations than pooled seeds")
            picks = [
                rng.choice(ordered[b * len(ordered) // len(slots):(b + 1) * len(ordered) // len(slots)])
                for b in range(len(slots))
            ]
            rng.shuffle(picks)
            for i, s in zip(slots, picks):
                out[i] = s
        return out

    def seeded_kind(self, i):
        """The golden kind of operation i's seeded step."""
        return next(s.kind for s in self.op(WARMUP_SEED, i) if s.seed is not None)

    def ops(self, seeds):
        return [self.op(s, i) for i, s in enumerate(seeds)]

    def warmup(self):
        return self.op(WARMUP_SEED, 0)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "gmp-hunt",
            "bug hunt on buggy gmp: grid cases built on the master, explore runs that fork snapshots, prune, and fail oracles and shrink",
            nominal_ms=800,
            candidates=96 + 64,
            passes=3,
            op=gmp_hunt_op,
        ),
        Workload(
            "serve",
            "pfi-serve round trips on one daemon: wire protocol, fsynced store, growing shared corpus, long-lived fleet",
            nominal_ms=40,
            candidates=128,
            passes=4,
        ),
    ]
}

SERVE_PARAMS = (
    "proto=tcp seed={seed} budget=128 max-faults=3 epoch=16 buggy=0 fault-secs=60 "
    "prefilter=1 pruning=1 semantic=1 snapshots=1 step-budget=0 share-corpus=1"
)


def serve_ident(workload_seed, i):
    return f"pb{workload_seed}-{i}"


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def load_goldens(path=GOLDENS):
    if not Path(path).exists():
        return {"cli": {}, "serve": {}}
    return json.loads(Path(path).read_text())


def cli_golden(goldens, step):
    """The recorded (digest, exit) of a step, or None."""
    entry = goldens.get("cli", {}).get(step.kind, {}).get(step.key())
    return tuple(entry) if entry else None


def serve_golden(goldens, workload_seed, count):
    """The recorded per-operation (digest, exit) list, or None when it does
    not cover `count` operations."""
    entries = goldens.get("serve", {}).get(str(workload_seed))
    if entries is None or len(entries) < count:
        return None
    return [tuple(e) for e in entries[:count]]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit: int  # negative: killed by that signal; None: timed out
    stdout: str


def run_child(argv, work):
    """Runs one child to completion and reaps it with wait4, so its own user
    and system time and its max RSS are known exactly."""
    timeout = min(STEP_TIMEOUT_S, time_left())
    if timeout <= 0:
        return ChildRun(0.0, 0.0, 0, None, "")
    err = open(work / "child.stderr", "wb")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    finally:
        err.close()
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        exit=None if timed_out.is_set() else proc.returncode,
        stdout=out.decode(errors="replace"),
    )


@dataclasses.dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_kb: int
    ok: bool
    why: str = ""
    # serve only: per-request wall times and the results reply size
    submit_s: float = 0.0
    wait_s: float = 0.0
    results_s: float = 0.0
    results_bytes: int = 0


def best_of(runs):
    """One step's (or serve operation's) result from its executions in
    every pass: the fastest one's wall time (and serve request times), the
    least CPU time, the largest RSS; it failed if any execution failed.
    On a shared host a vCPU runs up to 1.5x slower for seconds at a time
    while other guests are busy. The passes are spread over the run, so the
    fastest execution is the one that met the least of that."""
    best = min(runs, key=lambda r: r.wall_s)
    return dataclasses.replace(
        best,
        cpu_s=min(r.cpu_s for r in runs),
        rss_kb=max(r.rss_kb for r in runs),
        ok=all(r.ok for r in runs),
        why="; ".join(r.why for r in runs if not r.ok),
    )


def check_step(step, run, golden):
    """Why a step failed its gate, or "" when it passed. The golden's exit
    code is the expected one: 0 for a clean campaign, 1 for one that found
    a violation (the grid and 249 of the 257 buggy-gmp explore seeds). Exit
    3 is infrastructure trouble and never matches."""
    if run.exit is None:
        return f"{step.kind} seed {step.key()}: timed out"
    if run.exit not in (0, 1):
        return f"{step.kind} seed {step.key()}: exit {run.exit}"
    digest = step.digest(run.stdout)
    if golden is None:
        return f"{step.kind} seed {step.key()}: no golden or reference"
    if (digest, run.exit) != tuple(golden):
        return f"{step.kind} seed {step.key()}: digest {digest} exit {run.exit}, golden {golden[0]} exit {golden[1]}"
    return ""


def run_step(step, campaign_bin, work, goldens):
    run = run_child(step.argv(campaign_bin, JOBS), work)
    why = check_step(step, run, goldens.get((step.kind, step.key())))
    return OpResult(run.wall_s, run.cpu_s, run.rss_kb, not why, why)


def combine(steps):
    """One operation's result from the results of its steps, in order."""
    return OpResult(
        wall_s=sum(r.wall_s for r in steps),
        cpu_s=sum(r.cpu_s for r in steps),
        rss_kb=max(r.rss_kb for r in steps),
        ok=all(r.ok for r in steps),
        why="; ".join(r.why for r in steps if not r.ok),
    )


def run_cli_op(steps, campaign_bin, work, goldens):
    return combine([run_step(step, campaign_bin, work, goldens) for step in steps])


def run_cli_passes(ops, passes, campaign_bin, work, goldens, before_pass=lambda: None):
    """Runs the operation list `passes` times over, calling `before_pass`
    before each pass; returns one result per operation, each step taken at
    its fastest execution (see best_of)."""
    runs = []
    for _ in range(passes):
        before_pass()
        runs.append([[run_step(s, campaign_bin, work, goldens) for s in op] for op in ops])
    return [combine([best_of(execs) for execs in zip(*op_runs)]) for op_runs in zip(*runs)]


def reference_cli(steps, campaign_bin, work):
    """Digests of steps at --jobs 1, for seeds with no recorded golden."""
    out = {}
    for step in steps:
        run = run_child(step.argv(campaign_bin, 1), work)
        if run.exit is not None:
            out[(step.kind, step.key())] = (step.digest(run.stdout), run.exit)
    return out


def cli_golden_table(ops, goldens, campaign_bin, work):
    """(kind, seed) -> (digest, exit) for every step of `ops`: recorded
    goldens first, --jobs 1 references for the rest. Returns the table and
    how many steps needed a reference."""
    table, missing = {}, []
    for steps in ops:
        for step in steps:
            g = cli_golden(goldens, step)
            if g is None:
                missing.append(step)
            else:
                table[(step.kind, step.key())] = g
    if missing:
        table.update(reference_cli(missing, campaign_bin, work))
    return table, len(missing)


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class ServeClient:
    """One connection speaking pfi-serve's line protocol."""

    def __init__(self, path, timeout=STEP_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(str(path))
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def call(self, line, payload=False):
        """Sends one request; returns (ok, head, payload lines, reply bytes)."""
        self.sock.sendall(line.encode() + b"\n")
        raw = self.rfile.readline()
        if not raw.endswith(b"\n"):
            raise ConnectionError(f"torn reply to {line.split()[0]!r}")
        size = len(raw)
        text = raw.decode().rstrip("\r\n")
        ok = text == "ok" or text.startswith("ok ")
        head = text[3:] if ok else text[4:]
        lines = []
        if payload and ok:
            while True:
                raw = self.rfile.readline()
                if not raw.endswith(b"\n"):
                    raise ConnectionError("torn payload")
                size += len(raw)
                body = raw.decode().rstrip("\r\n")
                if body == ".":
                    break
                lines.append(body[1:] if body.startswith(".") else body)
        return ok, head, lines, size

    def close(self):
        self.rfile.close()
        self.sock.close()


def kv(head, key):
    for tok in head.split():
        k, _, v = tok.partition("=")
        if k == key:
            return v
    return None


class Daemon:
    """A `pfi-serve start` child on a fresh store under `work`."""

    def __init__(self, serve_bin, work, jobs):
        self.dir = work
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # A short relative socket path: Unix socket paths are capped near
        # 100 bytes, and the checkout may sit anywhere.
        self.sock = Path(os.path.relpath(self.dir / "d.sock", ROOT))
        self.log = open(self.dir / "daemon.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(serve_bin), "start", "--store", str(self.dir / "store"),
             "--socket", str(self.sock), "--jobs", str(jobs)],
            stdout=self.log, stderr=self.log, cwd=ROOT,
        )
        self.reaped = None
        try:
            self.launch_s = self._first_pong(t0)
        except BaseException:
            self.kill()
            raise

    def _first_pong(self, t0):
        deadline = t0 + STEP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"pfi-serve exited with {self.proc.returncode} during start")
            try:
                client = ServeClient(ROOT / self.sock)
            except OSError:
                time.sleep(0.0005)
                continue
            try:
                ok, head, _, _ = client.call("ping")
            finally:
                client.close()
            if ok and head.startswith("pong"):
                return time.perf_counter() - t0
            raise RuntimeError(f"ping refused: {head}")
        raise RuntimeError("pfi-serve never answered ping")

    def cpu_s(self):
        """User+system time so far, from /proc (the daemon is still alive)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """Asks the daemon to shut down, reaps it, and returns its rusage."""
        if self.reaped is not None:
            return self.reaped
        try:
            client = ServeClient(ROOT / self.sock)
            try:
                client.call("shutdown")
            finally:
                client.close()
        except OSError:
            pass
        timer = threading.Timer(STEP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        self.reaped = usage
        return usage

    def kill(self):
        if self.reaped is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def serve_op(client, workload_seed, i, seed, golden):
    """submit, wait, results: one campaign round trip on one connection."""
    res = OpResult(0.0, 0.0, 0, True)
    t0 = time.perf_counter()
    try:
        submit = f"submit {SERVE_PARAMS.format(seed=seed)} ident={serve_ident(workload_seed, i)}"
        ok, head, _, _ = client.call(submit)
        t1 = time.perf_counter()
        if not ok:
            raise RuntimeError(f"submit refused: {head}")
        cid = kv(head, "id")
        ok, head, _, _ = client.call(f"wait id={cid}")
        t2 = time.perf_counter()
        if not ok:
            raise RuntimeError(f"wait refused: {head}")
        ok, rhead, lines, size = client.call(f"results id={cid}", payload=True)
        t3 = time.perf_counter()
        if not ok:
            raise RuntimeError(f"results refused: {rhead}")
    except (OSError, RuntimeError) as e:
        res.wall_s = time.perf_counter() - t0
        res.ok, res.why = False, f"serve op {i}: {e}"
        return res, None
    res.wall_s, res.submit_s, res.wait_s, res.results_s = t3 - t0, t1 - t0, t2 - t1, t3 - t2
    res.results_bytes = size
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    exit_code = int(kv(head, "exit") or -1)
    got = (digest, exit_code)
    if kv(head, "digest") != digest:
        res.ok, res.why = False, f"serve op {i}: wait digest {kv(head, 'digest')} != results digest {digest}"
    elif golden is not None and got != tuple(golden):
        res.ok, res.why = False, f"serve op {i}: digest {digest} exit {exit_code}, golden {golden[0]} exit {golden[1]}"
    elif exit_code != 0:
        res.ok, res.why = False, f"serve op {i}: exit {exit_code}, expected 0"
    return res, got


def serve_sequence(serve_bin, work, workload_seed, seeds, jobs, goldens=None, on_op=None):
    """Runs the serve operation list on one fresh daemon; returns the op
    results, their (digest, exit) pairs, and the daemon."""
    daemon = Daemon(serve_bin, work, jobs)
    results, got = [], []
    try:
        client = ServeClient(ROOT / daemon.sock)
        try:
            if on_op:
                on_op("start", daemon)
            for i, seed in enumerate(seeds):
                left = time_left()
                if left <= 0:
                    results.append(OpResult(0.0, 0.0, 0, False, f"serve op {i}: run deadline passed"))
                    got.append(None)
                    continue
                client.sock.settimeout(min(STEP_TIMEOUT_S, left))
                res, pair = serve_op(client, workload_seed, i, seed, goldens[i] if goldens else None)
                results.append(res)
                got.append(pair)
                if pair is None:
                    # The exchange broke mid-reply: later replies would be
                    # misread on this connection.
                    client.close()
                    client = ServeClient(ROOT / daemon.sock)
        finally:
            client.close()
        if on_op:
            on_op("end", daemon)
        daemon.stop()
    finally:
        daemon.kill()
    return results, got, daemon


# ---------------------------------------------------------------------------
# Builds and the run record
# ---------------------------------------------------------------------------


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", "target")).resolve()


def source_files():
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs"))
    files += sorted((ROOT / "crates").glob("*/Cargo.toml"))
    files += sorted((HERE / "tracer").rglob("*.rs")) + [HERE / "tracer" / "Cargo.toml"]
    return [f for f in files if f.is_file()]


def dep_sources(binary):
    """The source files cargo recorded for `binary` in its dep-info file."""
    text = Path(str(binary) + ".d").read_text()
    deps = text.split(":", 1)[1].replace("\\\n", " ")
    return [Path(p.replace("\0", " ")) for p in deps.replace("\\ ", "\0").split()]


def build(log):
    """Builds the two CLIs and the tracer in release mode. Returns the
    binary paths, or raises RuntimeError."""
    tdir = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(tdir))
    cmds = [
        ["cargo", "build", "--release", "--offline", "-p", "pfi-testgen", "-p", "pfi-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
        if proc.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    bins = {name: tdir / "release" / name for name in ("pfi-campaign", "pfi-serve", "pfi-perfbench-tracer")}
    for path in bins.values():
        if not path.is_file():
            raise RuntimeError(f"{path} missing after build")
        newest = max(f.stat().st_mtime for f in dep_sources(path))
        if path.stat().st_mtime < newest:
            raise RuntimeError(f"{path} is older than its sources; rebuild it")
    # The three binaries share one build environment, so the tracer's own
    # profile tells whether CARGO_PROFILE_* settings turned the release
    # build into a debug one.
    profile = subprocess.run(
        [str(bins["pfi-perfbench-tracer"]), "--build-profile"], capture_output=True, text=True
    ).stdout.strip()
    if profile != "release":
        raise RuntimeError(f"refusing a {profile or 'unknown'} build: measure release builds only")
    return bins


def run_record(workload, workload_seed, count):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.split()
    except OSError:
        out = []
    # A checkout that is not itself a repository may sit inside another one.
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""
    if not commit:
        h = hashlib.sha256()
        for f in source_files():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "commit": commit,
        "workload": workload.name,
        "workload_seed": workload_seed,
        "operations": count,
        "jobs": JOBS,
    }


def summarize(results, setup_s, workload, cpu_total_s=None, rss_kb=None):
    """End-to-end metrics of one run, plus what the run record keeps about
    them. CLI operations carry their own rusage, so CPU time and RSS are
    per-operation medians; the long-lived daemon's CPU time over the timed
    phase (`cpu_total_s`) is divided by the operation count, and its max
    RSS (`rss_kb`) is taken as is."""
    walls = [r.wall_s * 1000.0 for r in results]
    tail_ms, tail_pct = tail(walls)
    n = len(results)
    if cpu_total_s is None:
        cpu_ms = statistics.median(r.cpu_s for r in results) * 1000.0
    else:
        cpu_ms = cpu_total_s * 1000.0 / n
    rss = rss_kb if rss_kb is not None else statistics.median(r.rss_kb for r in results)
    metrics = {
        "campaign_ms_p50": (statistics.median(walls), "ms"),
        "campaign_ms_tail": (tail_ms, "ms"),
        "candidates_per_s": (middle_throughput(walls, workload.candidates), "1/s"),
        "cpu_ms_per_campaign": (cpu_ms, "ms"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    record = {
        "samples": {"campaign_ms_p50": n, "campaign_ms_tail": n, "setup_s": len(setup_s)},
        "tail_percentile": round(tail_pct, 3),
        "setup_samples_s": setup_s,
    }
    return metrics, record
