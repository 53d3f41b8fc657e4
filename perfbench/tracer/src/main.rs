//! Traced run of the pfi benchmark.
//!
//! Runs a workload's campaigns in-process, with a journal, exactly as the
//! CLIs would (same targets, configs and worker count), and prints their
//! outcome digests so the harness can gate them against the goldens. It then
//! re-drives every journaled schedule through the public functions of each
//! layer — prefilter, canonical and semantic ids, prefix digests and snapshot
//! lookup, fork, filter install, drive, coverage, oracles, shrinking, journal
//! append — timing each call from outside. Every re-driven case must
//! reproduce its journaled verdict and coverage, so the timings describe the
//! same program the campaign ran. No crate is modified for this: spans sit
//! in this file, around the calls.
//!
//! ```text
//! pfi-perfbench-tracer --workload gmp-hunt --seeds 3,17,42 --jobs 1 --work DIR
//! ```
//!
//! Prints one JSON object on stdout:
//! `{"ops":[{"digests":[[kind,seed,digest,exit],…],"wall_ms":…},…],
//! "metrics":{name: value,…},"errors":[…]}`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfi_core::{Direction, Filter, PfiControl, PfiEvent, PfiReply};
use pfi_gmp::GmpBugs;
use pfi_serve::{CampaignParams, Store};
use pfi_sim::{SimRng, TraceLog, World};
use pfi_testgen::{
    base_digest, explore_fleet, first_violation, generate, prefix_digests, prepare_base,
    run_campaign_fleet, schedule_is_installable, shrink_schedule, CampaignFleet, CaseSnapshot,
    Coverage, ExploreConfig, ExploreOutcome, FaultKind, FaultSchedule, FleetReport, GmpTarget,
    Journal, JournalWriter, ProtocolSpec, RunLimits, ScheduleMutator, SiteScripts, SnapshotStore,
    TargetFactory, TcpTarget, TestTarget, Verdict,
};

/// Cold base-world builds timed per campaign (the snapshot-miss path).
const BUILDS_PER_CAMPAIGN: usize = 3;
/// Uninstallable mutants whose runner refusal is timed per campaign: the
/// work a prefilter rejection saves.
const REFUSALS_PER_CAMPAIGN: usize = 8;

/// Total time and call count of one timed call site.
#[derive(Default)]
struct Span {
    total: Duration,
    calls: u64,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(t.elapsed());
        out
    }

    fn add(&mut self, d: Duration) {
        self.total += d;
        self.calls += 1;
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }

    fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the traced run measures, accumulated over a workload's
/// operations.
#[derive(Default)]
struct Layers {
    // master prune tiers
    mutate: Span,
    prefilter: Span,
    canonical: Span,
    semantic: Span,
    refuse: Span,
    explore_campaigns: u64,
    rejected: u64,
    pruned: u64,
    inert: u64,
    dispatched: u64,
    settled: u64,
    semantic_active: bool,
    // snapshots
    build: Span,
    lookup: Span,
    fork: Span,
    events_skipped: u64,
    // drive
    install: Span,
    drive: Span,
    drive_events: u64,
    trace_records: u64,
    // coverage, oracles, shrinking
    coverage: Span,
    merge: Span,
    novel: u64,
    oracle: Span,
    shrink: Span,
    shrink_runs: u64,
    executed: u64,
    /// Worker-side time of one executed candidate (lookup through judging,
    /// no shrinking): what a skipped candidate saves.
    exec: Span,
    // fleet
    busy: Duration,
    capacity: Duration,
    master: Span,
    /// Wall time of the re-driven worker-side runs, and the part of it the
    /// timed calls cover.
    redrive: Duration,
    accounted: Duration,
    // journal and store
    journal_append: Span,
    journal_load: Span,
    append_index: Span,
    read_corpus: Span,
    merge_corpus: Span,
    corpus_len: u64,
    serve_campaigns: u64,
    errors: Vec<String>,
}

impl Layers {
    fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Worker utilisation of one campaign: busy time per worker against
    /// the campaign's wall time.
    fn fleet(&mut self, wall: Duration, busy: &[Duration]) {
        let total: Duration = busy.iter().sum();
        self.busy += total;
        self.capacity += wall * busy.len() as u32;
        let busiest = busy.iter().max().copied().unwrap_or_default();
        self.master.add(wall.saturating_sub(busiest));
    }

    /// Total of the spans a re-driven run is made of.
    fn run_spans(&self) -> Duration {
        [
            &self.build,
            &self.lookup,
            &self.fork,
            &self.install,
            &self.drive,
            &self.coverage,
            &self.oracle,
        ]
        .iter()
        .map(|s| s.total)
        .sum()
    }

    /// Runs `f` as one re-driven run, adding its wall time to `redrive` and
    /// the spans timed inside it to `accounted`.
    fn redriven<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let spans = self.run_spans();
        let t = Instant::now();
        let out = f(self);
        self.redrive += t.elapsed();
        self.accounted += self.run_spans() - spans;
        out
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let campaigns = self.explore_campaigns.max(1) as f64;
        let exec_us = self.exec.mean_us();
        let prefilter_calls = self.rejected + self.pruned + self.inert + self.dispatched;
        let canonical_calls = self.pruned + self.inert + self.dispatched + self.settled;
        let semantic_calls = self.inert + self.dispatched + self.settled;
        let runs = self.drive.calls as f64;
        let failures = self.shrink.calls as f64;
        let semantic_payoff = if self.semantic_active {
            ratio(
                self.inert as f64 * exec_us,
                semantic_calls as f64 * self.semantic.mean_us(),
            )
        } else {
            0.0
        };
        vec![
            ("mutate_us", self.mutate.mean_us()),
            ("prefilter_us", self.prefilter.mean_us()),
            ("canonical_us", self.canonical.mean_us()),
            ("semantic_us", self.semantic.mean_us()),
            ("rejected", self.rejected as f64 / campaigns),
            ("pruned", self.pruned as f64 / campaigns),
            ("inert", self.inert as f64 / campaigns),
            (
                "prefilter.payoff",
                ratio(
                    self.rejected as f64 * self.refuse.mean_us(),
                    prefilter_calls as f64 * self.prefilter.mean_us(),
                ),
            ),
            (
                "canonical.payoff",
                ratio(
                    self.pruned as f64 * exec_us,
                    canonical_calls as f64 * self.canonical.mean_us(),
                ),
            ),
            ("semantic.payoff", semantic_payoff),
            ("build_ms", self.build.mean_ms()),
            ("snapshot.fork_us", self.fork.mean_us()),
            ("snapshot.lookup_us", self.lookup.mean_us()),
            (
                "snapshot.events_skipped_frac",
                ratio(
                    self.events_skipped as f64,
                    (self.events_skipped + self.drive_events) as f64,
                ),
            ),
            ("install_us", self.install.mean_us()),
            ("drive_us", self.drive.mean_us()),
            ("drive.events", ratio(self.drive_events as f64, runs)),
            (
                "drive.ns_per_event",
                ratio(self.drive.total.as_nanos() as f64, self.drive_events as f64),
            ),
            ("trace.records", ratio(self.trace_records as f64, runs)),
            ("coverage_us", self.coverage.mean_us()),
            ("merge_us", self.merge.mean_us()),
            (
                "coverage.novel_frac",
                ratio(self.novel as f64, self.merge.calls as f64),
            ),
            ("oracle_us", self.oracle.mean_us()),
            ("shrink_ms", self.shrink.mean_ms()),
            ("shrink.runs", ratio(self.shrink_runs as f64, failures)),
            (
                "shrink.exec_share",
                ratio(self.shrink_runs as f64, self.executed as f64),
            ),
            (
                "fleet.busy_frac",
                ratio(self.busy.as_secs_f64(), self.capacity.as_secs_f64()),
            ),
            ("fleet.master_ms", self.master.mean_ms()),
            ("journal.append_us", self.journal_append.mean_us()),
            ("journal.load_ms", self.journal_load.mean_ms()),
            ("store.append_index_ms", self.append_index.mean_ms()),
            ("store.read_corpus_ms", self.read_corpus.mean_ms()),
            ("store.merge_corpus_ms", self.merge_corpus.mean_ms()),
            (
                "store.corpus_len",
                ratio(self.corpus_len as f64, self.serve_campaigns as f64),
            ),
            (
                "layers.accounted_frac",
                ratio(self.accounted.as_secs_f64(), self.redrive.as_secs_f64()),
            ),
        ]
    }
}

/// One traced operation: the digests it produced and its wall time, the
/// in-process campaign and its timed re-drive together.
struct OpRecord {
    digests: Vec<(String, String, String, i32)>,
    wall: Duration,
}

/// A verdict, the violated oracle, and the coverage of one re-driven run.
type Judged = (Verdict, Option<String>, Coverage);

/// The first interpreter step-budget exhaustion in a trace — the runner
/// reports such a run as hung.
fn budget_exhausted(trace: &TraceLog) -> Option<String> {
    trace
        .events_with_nodes::<PfiEvent>()
        .into_iter()
        .find_map(|(_, node, event)| match event {
            PfiEvent::ScriptFailed {
                budget_exhausted: true,
                dir,
                error,
            } => Some(format!("{node} {dir:?} filter: {error}")),
            _ => None,
        })
}

/// Installs lowered filter scripts on their fault sites via `PfiControl`.
fn install(world: &mut World, sites: &[(pfi_sim::NodeId, usize)], scripts: &[SiteScripts]) {
    for s in scripts {
        let (node, layer) = sites[s.site as usize];
        if !s.send.is_empty() {
            let f = Filter::script(&s.send).expect("lowered scripts parse");
            let _: PfiReply = world.control(node, layer, PfiControl::SetSendFilter(f));
        }
        if !s.recv.is_empty() {
            let f = Filter::script(&s.recv).expect("lowered scripts parse");
            let _: PfiReply = world.control(node, layer, PfiControl::SetRecvFilter(f));
        }
    }
}

/// Drives a prepared world and judges it the way the campaign runner
/// does, timing drive, coverage extraction and judging.
fn drive_and_judge(
    l: &mut Layers,
    target: &dyn TestTarget,
    limits: &RunLimits,
    mut world: World,
) -> Judged {
    let before = world.events_processed();
    let capped = l.drive.time(|| {
        let capped = target.drive(&mut world, limits);
        target.harvest(&mut world);
        capped
    });
    l.drive_events += world.events_processed() - before;
    l.trace_records += world.trace().len() as u64;
    let coverage = l.coverage.time(|| Coverage::from_trace(world.trace()));
    l.oracle.time(|| {
        if let Some((name, msg)) = first_violation(&target.oracles(), world.trace()) {
            return (
                Verdict::Violated(format!("{name}: {msg}")),
                Some(name.to_string()),
                coverage,
            );
        }
        if capped {
            let why = format!(
                "drive exhausted its {} simulator-event budget",
                limits.event_cap
            );
            return (Verdict::Hung(why), None, coverage);
        }
        if let Some(error) = budget_exhausted(world.trace()) {
            let why = format!("filter script watchdog fired: {error}");
            return (Verdict::Hung(why), None, coverage);
        }
        (target.verdict(&mut world), None, coverage)
    })
}

/// Runs one schedule the way a campaign worker does — installability
/// check, prefix lookup, fork, suffix install, drive, judge — with a span
/// around each call.
fn run_traced(
    l: &mut Layers,
    target: &dyn TestTarget,
    limits: &RunLimits,
    store: &mut SnapshotStore,
    schedule: &FaultSchedule,
) -> Judged {
    l.redriven(|l| run_spanned(l, target, limits, store, schedule))
}

fn run_spanned(
    l: &mut Layers,
    target: &dyn TestTarget,
    limits: &RunLimits,
    store: &mut SnapshotStore,
    schedule: &FaultSchedule,
) -> Judged {
    // Install time covers what the runner does before and after the lookup:
    // the installability check and lowering, then the filter install.
    let t = Instant::now();
    let scripts = schedule_is_installable(schedule, target.fault_sites()).then(|| schedule.lower());
    let lowering = t.elapsed();
    let Some(scripts) = scripts else {
        return (
            Verdict::Invalid("uninstallable".to_string()),
            None,
            Coverage::new(),
        );
    };
    let snap = l.lookup.time(|| {
        let digests = prefix_digests(target, limits, schedule);
        store.lookup_longest(&digests)
    });
    let snap = snap.expect("the store is seeded with the base snapshot");
    store.note_skipped(snap.events_processed());
    l.events_skipped += snap.events_processed();
    let mut world = l.fork.time(|| snap.fork());
    // The store only ever holds the filter-free base, so the suffix to
    // install is the whole schedule.
    debug_assert!(snap.installed().is_empty());
    let t = Instant::now();
    install(&mut world, snap.sites(), &scripts);
    l.install.add(lowering + t.elapsed());
    drive_and_judge(l, target, limits, world)
}

/// The filter-free base world as `prepare_base` builds it, captured as the
/// snapshot a campaign dispatches to its workers.
fn base_snapshot(target: &dyn TestTarget, limits: &RunLimits) -> Arc<CaseSnapshot> {
    let (mut world, sites) = target.build();
    world.trace_timers = true;
    assert_eq!(limits.step_budget, 0, "the benchmark runs no step budget");
    let snap = world.try_snapshot().expect("bundled targets snapshot");
    Arc::new(CaseSnapshot::new(
        base_digest(target, limits),
        FaultSchedule::empty(),
        sites,
        snap,
    ))
}

fn exit_code(outcome: &ExploreOutcome) -> i32 {
    if !outcome.failures.is_empty() {
        1
    } else if outcome.crashed > 0 || outcome.hung > 0 || !outcome.quarantined.is_empty() {
        3
    } else {
        0
    }
}

/// Re-drives every schedule of a finished campaign's journal through the
/// timed layer calls and checks each reproduces its journaled verdict,
/// oracle, coverage and shrink result.
fn retime(
    l: &mut Layers,
    target: &dyn TestTarget,
    spec: &ProtocolSpec,
    cfg: &ExploreConfig,
    outcome: &ExploreOutcome,
    journal_path: &Path,
    scratch: &Path,
) {
    let journal = match l.journal_load.time(|| Journal::load(journal_path)) {
        Ok(j) => j,
        Err(e) => return l.error(format!("journal {}: {e}", journal_path.display())),
    };
    let limits = cfg.limits();
    let sites = target.fault_sites();
    let model = (cfg.pruning && cfg.semantic && cfg.step_budget == 0)
        .then(|| target.flow_model())
        .flatten();
    l.semantic_active |= model.is_some();
    let mutator = ScheduleMutator::new(spec, target.node_count(), sites);
    let mut rng = SimRng::seed_from(cfg.seed);

    for _ in 0..BUILDS_PER_CAMPAIGN {
        l.build.time(|| prepare_base(target, &limits));
    }
    let mut store = SnapshotStore::new(cfg.snapshot_cache);
    store.seed(base_snapshot(target, &limits));
    let mut writer = match JournalWriter::create(scratch, &journal.meta) {
        Ok(w) => w,
        Err(e) => return l.error(e),
    };

    // The runner's refusal of a statically-invalid candidate: what each
    // prefilter rejection saves a worker.
    let mut refused = 0;
    let mut parent = FaultSchedule::empty();
    for _ in 0..10_000 {
        if refused == REFUSALS_PER_CAMPAIGN {
            break;
        }
        let child = mutator.mutate(&parent, cfg.max_faults, &mut rng);
        if schedule_is_installable(&child, sites) {
            parent = child;
            continue;
        }
        let run = l.refuse.time(|| {
            pfi_testgen::run_schedule_snapshotted(target, &child, &limits, Some(&mut store))
        });
        if !run.verdict.is_invalid() {
            l.error(format!("uninstallable {} was not refused", child.id()));
        }
        refused += 1;
    }

    let mut total = Coverage::new();
    for case in &journal.cases {
        let s = &case.schedule;
        let baseline = s.is_empty();
        l.mutate
            .time(|| mutator.mutate(s, cfg.max_faults, &mut rng));
        if !l.prefilter.time(|| schedule_is_installable(s, sites)) {
            l.error(format!("journaled {} is uninstallable", s.id()));
            continue;
        }
        l.canonical.time(|| s.canonical_id());
        if let Some(model) = &model {
            l.semantic.time(|| model.semantic_id(s));
        }
        let t = Instant::now();
        let (verdict, oracle, coverage) = run_traced(l, target, &limits, &mut store, s);
        let exec = t.elapsed();
        if verdict != case.verdict || oracle != case.oracle {
            l.error(format!(
                "{}: re-driven verdict {verdict:?}/{oracle:?}, journaled {:?}/{:?}",
                s.id(),
                case.verdict,
                case.oracle
            ));
        }
        let edges: BTreeSet<&str> = coverage.edges().collect();
        let journaled: BTreeSet<&str> = case.coverage.iter().map(String::as_str).collect();
        if edges != journaled {
            l.error(format!(
                "{}: re-driven coverage differs from the journal",
                s.id()
            ));
        }
        if l.merge.time(|| total.merge(&coverage)) > 0 {
            l.novel += 1;
        }
        if let Some(js) = &case.shrink {
            let oracle = case.oracle.clone().unwrap_or_else(|| "target".to_string());
            let mut runs = 0usize;
            let t = Instant::now();
            let shrunk = shrink_schedule(s, |c| {
                runs += 1;
                let (v, o, _) = run_traced(l, target, &limits, &mut store, c);
                v.is_violation() && o.as_deref() == Some(oracle.as_str())
            });
            l.shrink.add(t.elapsed());
            l.shrink_runs += runs as u64;
            if shrunk != js.shrunk || runs != js.runs {
                l.error(format!(
                    "{}: re-shrunk to {} in {runs} runs, journaled {} in {}",
                    s.id(),
                    shrunk.id(),
                    js.shrunk.id(),
                    js.runs
                ));
            }
        }
        if !baseline {
            l.exec.add(exec);
            l.dispatched += 1;
            if !case.verdict.is_violation() {
                l.settled += 1;
            }
        }
        if let Err(e) = l.journal_append.time(|| writer.case(case)) {
            l.error(e);
        }
    }
    if total.len() != outcome.coverage.len() {
        l.error(format!(
            "re-driven coverage {} edges, campaign {}",
            total.len(),
            outcome.coverage.len()
        ));
    }
}

/// Counts a finished exploration's outcome into the layer totals.
fn count_outcome(l: &mut Layers, outcome: &ExploreOutcome) {
    l.explore_campaigns += 1;
    l.rejected += outcome.rejected as u64;
    l.pruned += outcome.pruned as u64;
    l.inert += outcome.inert as u64;
    l.executed += outcome.executed as u64;
}

fn busy_of(report: &FleetReport) -> Vec<Duration> {
    report.workers.iter().map(|w| w.busy).collect()
}

/// One `pfi-campaign … --explore` operation, in-process.
#[allow(clippy::too_many_arguments)]
fn explore_op(
    l: &mut Layers,
    kind: &str,
    factory: Arc<dyn TargetFactory>,
    spec: &ProtocolSpec,
    mut cfg: ExploreConfig,
    jobs: usize,
    work: &Path,
) -> (String, String, String, i32, Duration) {
    let path = work.join("campaign.journal");
    cfg.journal = Some(path.clone());
    let t = Instant::now();
    let (outcome, report) = explore_fleet(Arc::clone(&factory), spec, &cfg, jobs);
    count_outcome(l, &outcome);
    l.fleet(report.wall, &busy_of(&report));
    let target = factory.make();
    retime(
        l,
        target.as_ref(),
        spec,
        &cfg,
        &outcome,
        &path,
        &work.join("retime.journal"),
    );
    let wall = t.elapsed();
    (
        kind.to_string(),
        cfg.seed.to_string(),
        outcome.digest64(),
        exit_code(&outcome),
        wall,
    )
}

/// FNV-1a 64, as 16 hex digits — the harness's grid digest.
fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The grid campaign of `pfi-campaign gmp --buggy`, in-process; its digest
/// is taken over the report text the CLI prints, without the job count.
/// The grid has no seed, so every operation runs the same 96 cases: only
/// the first (`redrive`) feeds the layer figures and is re-driven.
fn grid_op(l: &mut Layers, jobs: usize, redrive: bool) -> (String, String, String, i32, Duration) {
    let spec = ProtocolSpec::gmp();
    let target = GmpTarget {
        bugs: GmpBugs::all(),
        fault_secs: 60,
    };
    let campaign = generate(
        &spec,
        &FaultKind::default_matrix(),
        &[Direction::Send, Direction::Receive],
    );
    let t = Instant::now();
    let (results, report) = run_campaign_fleet(Arc::new(target.clone()), &campaign, jobs);
    if redrive {
        l.fleet(report.wall, &busy_of(&report));
    }

    let mut text = format!(
        "campaign: {} cases for protocol {}\n\n",
        campaign.len(),
        campaign.protocol
    );
    let (mut pass, mut degraded, mut violated, mut infra) = (0, 0, 0, 0);
    for r in &results {
        let (tag, why) = match &r.verdict {
            Verdict::Pass => {
                pass += 1;
                continue;
            }
            Verdict::Degraded(_) => {
                degraded += 1;
                continue;
            }
            Verdict::Violated(why) => {
                violated += 1;
                ("VIOLATION", why)
            }
            Verdict::Invalid(why) => {
                infra += 1;
                ("INVALID  ", why)
            }
            Verdict::Crashed(why) => {
                infra += 1;
                ("CRASHED  ", why)
            }
            Verdict::Hung(why) => {
                infra += 1;
                ("HUNG     ", why)
            }
        };
        text.push_str(&format!("{tag} {:<44} {why}\n", r.case_id));
    }
    text.push_str(&format!(
        "\n{pass} pass, {degraded} degraded, {violated} violations, {infra} infrastructure\n"
    ));
    let exit = if violated > 0 {
        1
    } else if infra > 0 {
        3
    } else {
        0
    };

    // Re-drive every case: the master builds and installs, a worker drives
    // and judges.
    let limits = RunLimits::default();
    let site = target.primary_site();
    let redriven = if redrive { results.len() } else { 0 };
    for (case, result) in campaign.cases.iter().zip(&results).take(redriven) {
        let scripts = [SiteScripts {
            site: site as u32,
            send: if case.dir == Direction::Send {
                case.script.clone()
            } else {
                String::new()
            },
            recv: if case.dir == Direction::Receive {
                case.script.clone()
            } else {
                String::new()
            },
        }];
        let (verdict, oracle, coverage) = l.redriven(|l| {
            let (mut world, sites) = l.build.time(|| target.build());
            world.trace_timers = true;
            l.install.time(|| install(&mut world, &sites, &scripts));
            drive_and_judge(l, &target, &limits, world)
        });
        if verdict != result.verdict
            || oracle != result.oracle
            || coverage.edges().ne(result.coverage.edges())
        {
            l.error(format!("grid case {} did not reproduce", case.id));
        }
    }
    let wall = t.elapsed();
    (
        "gmp-hunt-grid".to_string(),
        "-".to_string(),
        fnv64(text.as_bytes()),
        exit,
        wall,
    )
}

/// The serve workload in-process: the daemon's store sequence (read the
/// shared corpus, pin seeds, fsync the index, run on the long-lived fleet,
/// merge the corpus back) for each submission, on a fresh store.
fn serve_ops(l: &mut Layers, seeds: &[u64], jobs: usize, work: &Path) -> Vec<OpRecord> {
    let store = match Store::open(work.join("store")) {
        Ok(s) => s,
        Err(e) => {
            l.error(format!("store: {e}"));
            return Vec::new();
        }
    };
    let spec = ProtocolSpec::tcp();
    let factory: Arc<dyn TargetFactory> = Arc::new(TcpTarget::default());
    let mut pool = CampaignFleet::new(jobs);
    let mut ops = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let params = CampaignParams {
            proto: "tcp".to_string(),
            seed,
            budget: 128,
            share_corpus: true,
            ..CampaignParams::default()
        };
        let id = format!("c{}", i + 1);
        let key = params.corpus_key();
        let t = Instant::now();
        let run = (|| -> std::io::Result<(ExploreOutcome, FleetReport, FleetReport)> {
            let pinned = l.read_corpus.time(|| store.read_corpus(&key))?;
            store.write_seeds(&id, &pinned)?;
            l.append_index
                .time(|| store.append_index(&id, &params, Some(&format!("pb-{i}"))))?;
            let mut cfg = params.to_config();
            cfg.seed_corpus = store.read_seeds(&id)?;
            cfg.journal = Some(store.journal_path(&id));
            let before = pool.report();
            let outcome = pool.explore(Arc::clone(&factory), &spec, &cfg);
            let after = pool.report();
            l.merge_corpus
                .time(|| store.merge_corpus(&key, &outcome.corpus))?;
            Ok((outcome, before, after))
        })();
        let (outcome, before, after) = match run {
            Ok(r) => r,
            Err(e) => {
                l.error(format!("serve op {i}: {e}"));
                continue;
            }
        };
        l.serve_campaigns += 1;
        l.corpus_len += store.read_corpus(&key).map(|c| c.len()).unwrap_or(0) as u64;
        count_outcome(l, &outcome);
        let busy: Vec<Duration> = after
            .workers
            .iter()
            .zip(&before.workers)
            .map(|(a, b)| a.busy.saturating_sub(b.busy))
            .collect();
        l.fleet(after.wall.saturating_sub(before.wall), &busy);
        let mut cfg = params.to_config();
        cfg.seed_corpus = store.read_seeds(&id).unwrap_or_default();
        retime(
            l,
            factory.make().as_ref(),
            &spec,
            &cfg,
            &outcome,
            &store.journal_path(&id),
            &work.join("retime.journal"),
        );
        let wall = t.elapsed();
        ops.push(OpRecord {
            digests: vec![(
                "serve".to_string(),
                i.to_string(),
                outcome.digest64(),
                exit_code(&outcome),
            )],
            wall,
        });
    }
    pool.shutdown();
    ops
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seeds: Vec<u64>,
    jobs: usize,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let seeds = value("--seeds")?
        .split(',')
        .map(|s| s.parse::<u64>().map_err(|e| format!("bad seed {s:?}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Args {
        workload: value("--workload")?,
        seeds,
        jobs: value("--jobs")?
            .parse()
            .map_err(|e| format!("bad --jobs: {e}"))?,
        work: PathBuf::from(value("--work")?),
    })
}

fn main() {
    if std::env::args().any(|a| a == "--build-profile") {
        println!(
            "{}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        );
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfi-perfbench-tracer: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("pfi-perfbench-tracer: {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let mut l = Layers::default();
    let jobs = args.jobs;
    let work = args.work.as_path();
    let ops: Vec<OpRecord> = match args.workload.as_str() {
        "gmp-hunt" => {
            let factory: Arc<dyn TargetFactory> = Arc::new(GmpTarget {
                bugs: GmpBugs::all(),
                fault_secs: 60,
            });
            args.seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    let grid = grid_op(&mut l, jobs, i == 0);
                    let cfg = ExploreConfig {
                        seed,
                        budget: 64,
                        ..ExploreConfig::default()
                    };
                    let hunt = explore_op(
                        &mut l,
                        "gmp-hunt-explore",
                        Arc::clone(&factory),
                        &ProtocolSpec::gmp(),
                        cfg,
                        jobs,
                        work,
                    );
                    OpRecord {
                        wall: grid.4 + hunt.4,
                        digests: vec![
                            (grid.0, grid.1, grid.2, grid.3),
                            (hunt.0, hunt.1, hunt.2, hunt.3),
                        ],
                    }
                })
                .collect()
        }
        "serve" => serve_ops(&mut l, &args.seeds, jobs, work),
        other => {
            eprintln!("pfi-perfbench-tracer: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let ops_json: Vec<String> = ops
        .iter()
        .map(|op| {
            let digests: Vec<String> = op
                .digests
                .iter()
                .map(|(k, s, d, e)| {
                    format!("[{},{},{},{e}]", json_str(k), json_str(s), json_str(d))
                })
                .collect();
            format!(
                "{{\"digests\":[{}],\"wall_ms\":{}}}",
                digests.join(","),
                op.wall.as_secs_f64() * 1e3
            )
        })
        .collect();
    let metrics: Vec<String> = l
        .metrics()
        .iter()
        .map(|(name, v)| format!("{}:{v}", json_str(name)))
        .collect();
    let errors: Vec<String> = l.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"ops\":[{}],\"metrics\":{{{}}},\"errors\":[{}]}}",
        ops_json.join(","),
        metrics.join(","),
        errors.join(",")
    );
}
