//! End-to-end benchmark of the SpiderMine workspace.
//!
//! ```text
//! spidermine-perfbench --workload <mine-scalefree|mine-planted|serve-mixed>
//!                      --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's inputs from the seed, sets up a catalog-backed
//! service behind a loopback server, runs the workload's closed loop for the
//! given time, checks every output with the checks of [`checks`], and prints
//! one JSON object as its last line: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` for the workloads and metrics.

mod checks;
mod inputs;
mod ops;
mod setup;
mod stats;
mod trace;

use checks::Host;
use inputs::{stream, HostKind, SIGMA};
use ops::{MineDetail, Mined, Served};
use setup::{Setup, SetupTimes, GRAPH, SETUP_REPS};
use spidermine::SpiderMiner;
use spidermine_engine::{EngineKind, MineOutcome, MineRequest};
use spidermine_graph::LabeledGraph;
use spidermine_service::ServiceMetrics;
use spidermine_transport::MiningClient;
use stats::{mean, median, ms, quantile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Recorder;

/// End-to-end metrics (`--trace 0`), with units; `BENCHMARK.json` lists the
/// same names.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("topk_edges", "edges"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "req/s"),
    ("fresh_rtt_ms_p50", "ms"),
    ("first_pattern_ms_p50", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("graph.csr_freeze_ms", "ms"),
    ("mining.spiders_ms", "ms"),
    ("mining.spider_count", "count"),
    ("spidermine.identify_s", "s"),
    ("spidermine.identify_iter_max_s", "s"),
    ("spidermine.seeds", "count"),
    ("spidermine.merges", "count"),
    ("spidermine.iso_tests_run", "count"),
    ("spidermine.iso_prune_ratio", "ratio"),
    ("spidermine.iso_candidates", "count"),
    ("spidermine.recover_s", "s"),
    ("spidermine.select_ms", "ms"),
    ("spidermine.stage_cover", "ratio"),
    ("engine.cpu_per_wall", "ratio"),
    ("engine.overhead_ms", "ms"),
    ("service.queue_wait_ms_mean", "ms"),
    ("service.run_ms_mean", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_lookups", "count"),
    ("service.cache_evictions", "count"),
    ("service.inprocess_cached_us_p50", "us"),
    ("service.catalog_persist_ms", "ms"),
    ("service.catalog_restore_ms", "ms"),
    ("service.first_materialize_ms", "ms"),
    ("service.retries", "count"),
    ("transport.cached_rtt_ms_p50", "ms"),
    ("transport.cached_rtt_ms_p99", "ms"),
    ("service.fresh_rtt_ms_p90", "ms"),
    ("transport.edge_ms_per_request", "ms"),
    ("transport.wire_bytes_per_request", "bytes"),
    ("transport.connect_ms", "ms"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.spans_recorded", "count"),
];

/// Cache-served remote requests after each in-process mine of the mine
/// workloads: enough that the run's p99 has more than ten samples beyond it.
const CACHED_PROBES_PER_MINE: usize = 60;
/// Hot set of the serve workload.
const SERVE_HOT: usize = 4;
/// Requests per client round of the serve workload: one fresh, the rest hot.
const SERVE_ROUND: usize = 20;
/// Every this-many-th fresh request of the serve workload is mined again in
/// process after the measurement and compared.
const FRESH_SAMPLE_EVERY: u64 = 5;
/// Mine-workload requests whose work counters the traced run reads.
const STATS_MINES: usize = 3;
/// In-process cache-served submissions the traced run times.
const INPROCESS_PROBES: usize = 400;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MineScaleFree,
    MinePlanted,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "mine-scalefree" => Some(Self::MineScaleFree),
            "mine-planted" => Some(Self::MinePlanted),
            "serve-mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::MineScaleFree => "mine-scalefree",
            Self::MinePlanted => "mine-planted",
            Self::ServeMixed => "serve-mixed",
        }
    }

    fn host(self) -> HostKind {
        match self {
            Self::MineScaleFree => HostKind::ScaleFree,
            Self::MinePlanted => HostKind::Planted,
            Self::ServeMixed => HostKind::Serve,
        }
    }

    /// The requests the set-up warms the cache with: the hot set, on the
    /// served host.
    fn hot(self, seed: u64) -> Vec<MineRequest> {
        let count = match self {
            Self::ServeMixed => SERVE_HOT,
            Self::MineScaleFree | Self::MinePlanted => 1,
        };
        (0..count as u64)
            .map(|i| inputs::request(HostKind::Serve, seed, stream::HOT, i))
            .collect()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

/// Operations attempted and failed, and the samples of the ones that did
/// not fail.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Operations completed inside the measurement window.
    completed: u64,
    mine_s: Vec<f64>,
    topk_edges: Vec<f64>,
    cached_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    first_pattern_ms: Vec<f64>,
    details: Vec<MineDetail>,
}

impl Tally {
    /// Counts a failed operation: a refusal, a lost request or a failed
    /// output check. The first few are reported.
    fn fail(&mut self, what: &str, error: &str) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("failed {what}: {error}");
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.mine_s.extend(other.mine_s);
        self.topk_edges.extend(other.topk_edges);
        self.cached_ms.extend(other.cached_ms);
        self.fresh_ms.extend(other.fresh_ms);
        self.first_pattern_ms.extend(other.first_pattern_ms);
        self.details.extend(other.details);
    }

    /// One in-process mine on `graph`, checked against `host`; `planted`
    /// adds the planted-pattern check.
    fn mine(
        &mut self,
        graph: &LabeledGraph,
        host: &Host,
        request: &MineRequest,
        planted: Option<&LabeledGraph>,
        detail: bool,
        rec: Option<&Recorder>,
    ) -> Option<Mined> {
        self.attempted += 1;
        let mined = match ops::mine(graph, request, detail, rec) {
            Ok(m) => m,
            Err(e) => {
                self.fail("mine", &e);
                return None;
            }
        };
        let check = rec.map(|r| r.open("bench.check"));
        let verdict = checks::check_outcome(host, &mined.outcome, SIGMA).and_then(|()| {
            planted.map_or(Ok(()), |p| {
                checks::check_planted(&mined.outcome.patterns, p)
            })
        });
        if let (Some(r), Some(c)) = (rec, check) {
            r.close(c);
        }
        if let Err(e) = verdict {
            self.fail("mine check", &e);
            return None;
        }
        self.mine_s.push(mined.wall.as_secs_f64());
        if detail {
            self.details.push(mined.detail.clone());
        }
        Some(mined)
    }

    /// One remote request, checked: a fresh one (`reference` is `None`) must
    /// not be cache-served and must pass the output checks; a hot one must
    /// be cache-served and equal its checked in-process reference.
    fn request(
        &mut self,
        setup: &Setup,
        client: &MiningClient,
        request: &MineRequest,
        reference: Option<&MineOutcome>,
        rec: Option<&Recorder>,
    ) -> Option<Served> {
        self.attempted += 1;
        let served = match ops::request(client, request, rec) {
            Ok(s) => s,
            Err(e) => {
                self.fail("request", &e);
                return None;
            }
        };
        let check = rec.map(|r| r.open("bench.check"));
        let outcome = &served.outcome;
        let verdict = match reference {
            None if outcome.from_cache => {
                Err("a fresh request was served from the cache".to_owned())
            }
            None => checks::check_outcome(setup.remote().1, &outcome.outcome, SIGMA),
            Some(_) if !outcome.from_cache => {
                Err("a hot request was not served from the cache".to_owned())
            }
            Some(reference) => checks::check_flags(&outcome.outcome).and_then(|()| {
                checks::same_patterns(&outcome.outcome.patterns, &reference.patterns)
            }),
        };
        if let (Some(r), Some(c)) = (rec, check) {
            r.close(c);
            r.drain();
        }
        if let Err(e) = verdict {
            self.fail("request check", &e);
            return None;
        }
        if reference.is_some() {
            self.cached_ms.push(ms(served.rtt));
        } else {
            self.fresh_ms.push(ms(served.rtt));
            self.topk_edges.push(topk_edges(&outcome.outcome) as f64);
            if let Some(first) = served.first_pattern {
                self.first_pattern_ms.push(ms(first));
            }
        }
        Some(served)
    }
}

fn topk_edges(outcome: &MineOutcome) -> usize {
    outcome
        .patterns
        .iter()
        .map(|p| p.pattern.edge_count())
        .sum()
}

/// How long a segment runs: until a deadline, or for a fixed number of
/// rounds (the traced segment repeats the untraced one's count).
#[derive(Clone, Copy)]
enum Span {
    For(Duration),
    Rounds(u64),
}

impl Span {
    fn more(self, start: Instant, done: u64) -> bool {
        match self {
            Span::For(d) => start.elapsed() < d,
            Span::Rounds(n) => done < n,
        }
    }
}

/// What a measurement segment produced.
struct Segment {
    tally: Tally,
    wall: Duration,
    rounds: u64,
}

/// The mine workloads' loop: each round mines request `i` in process and
/// then sends the served host's cache-served hot request over the wire
/// [`CACHED_PROBES_PER_MINE`] times.
fn mine_segment(
    setup: &Setup,
    workload: Workload,
    hot_reference: &MineOutcome,
    span: Span,
    detail: bool,
    rec: Option<&Recorder>,
) -> Result<Segment, String> {
    let client = MiningClient::connect(setup.server.local_addr(), "probe")
        .map_err(|e| format!("connect: {e}"))?;
    let hot = &setup.warm[0].0;
    let planted = (workload == Workload::MinePlanted).then_some(&setup.inputs.planted);
    let witness = (workload == Workload::MinePlanted).then(|| {
        let (graph, request) = inputs::witness();
        graph.csr().prewarm();
        let host = Host::new(&graph);
        (graph, host, request)
    });
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut i = 0;
    while span.more(start, i) {
        let request = setup.inputs.request(stream::MINE, i);
        // On the mine workloads a fresh request is one in-process mine: its
        // latency is both `mine_s` and `fresh_rtt_ms_p50`.
        if let Some(mined) = tally.mine(
            &setup.inputs.graph,
            &setup.host,
            &request,
            planted,
            detail,
            rec,
        ) {
            tally.completed += 1;
            tally.fresh_ms.push(ms(mined.wall));
            tally.topk_edges.push(topk_edges(&mined.outcome) as f64);
            if let Some(first) = mined.first_pattern {
                tally.first_pattern_ms.push(ms(first));
            }
        }
        if let Some(r) = rec {
            r.drain();
        }
        for _ in 0..CACHED_PROBES_PER_MINE {
            if tally
                .request(setup, &client, hot, Some(hot_reference), rec)
                .is_some()
            {
                tally.completed += 1;
            }
        }
        // The duplicate-pattern witness: one fixed mine per round, outside
        // every metric; it fails for as long as the fault lasts.
        if let Some((graph, host, request)) = &witness {
            let mut own = Tally {
                failed: tally.failed,
                ..Tally::default()
            };
            own.mine(graph, host, request, None, false, rec);
            tally.attempted += own.attempted;
            tally.failed = own.failed;
        }
        i += 1;
    }
    Ok(Segment {
        tally,
        wall: start.elapsed(),
        rounds: i,
    })
}

/// The serve workload's loop: every client thread runs rounds of one fresh
/// request and `SERVE_ROUND - 1` hot ones, cycling the hot set. Fresh
/// request indices start at `fresh_base` and never repeat.
fn serve_segment(
    setup: &Setup,
    references: &[MineOutcome],
    span: Span,
    fresh_base: u64,
    rec: Option<&Recorder>,
) -> Result<(Segment, Vec<(u64, MineOutcome)>), String> {
    let clients = setup::width();
    let connected: Vec<MiningClient> = (0..clients)
        .map(|c| MiningClient::connect(setup.server.local_addr(), &format!("client-{c}")))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let rounds = AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<(Tally, Vec<(u64, MineOutcome)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connected
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let rounds = &rounds;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut sampled = Vec::new();
                    let mut done = 0u64;
                    while span.more(start, done) {
                        let fresh_index = fresh_base + done * clients as u64 + c as u64;
                        let fresh = setup.remote().0.request(stream::FRESH, fresh_index);
                        if let Some(served) = tally.request(setup, client, &fresh, None, rec) {
                            tally.completed += 1;
                            if fresh_index.is_multiple_of(FRESH_SAMPLE_EVERY) {
                                sampled.push((fresh_index, served.outcome.outcome));
                            }
                        }
                        for k in 1..SERVE_ROUND {
                            let h = (k + c) % references.len();
                            let hot = &setup.warm[h].0;
                            if tally
                                .request(setup, client, hot, Some(&references[h]), rec)
                                .is_some()
                            {
                                tally.completed += 1;
                            }
                        }
                        done += 1;
                    }
                    rounds.fetch_max(done, Ordering::Relaxed);
                    (tally, sampled)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut tally = Tally::default();
    let mut sampled = Vec::new();
    for (t, s) in results {
        tally.merge(t);
        sampled.extend(s);
    }
    Ok((
        Segment {
            tally,
            wall,
            rounds: rounds.into_inner(),
        },
        sampled,
    ))
}

/// Mines each sampled fresh request in process and compares it with what
/// the server sent.
fn verify_sampled(
    setup: &Setup,
    sampled: &[(u64, MineOutcome)],
    tally: &mut Tally,
    rec: Option<&Recorder>,
) {
    let (inputs, host) = setup.remote();
    for (index, remote) in sampled {
        let request = inputs.request(stream::FRESH, *index);
        if let Some(local) = tally.mine(&inputs.graph, host, &request, None, rec.is_some(), rec) {
            if let Err(e) = checks::same_patterns(&remote.patterns, &local.outcome.patterns) {
                tally.fail("fresh sample equality", &e);
            }
        }
    }
}

/// Runs the set-up [`SETUP_REPS`] times, keeping the last; then mines every
/// warm-up request in process and checks that the server sent the same.
fn prepare(
    args: &Args,
    rec: Option<&Recorder>,
    mine_s: &mut Vec<f64>,
) -> Result<(Setup, Vec<SetupTimes>, Vec<MineOutcome>), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let hot = args.workload.hot(args.seed);
    let mut times = Vec::new();
    let mut kept: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.close();
        }
        let setup = setup::run(args.workload.host(), args.seed, &hot, &args.out, rep, rec)?;
        times.push(setup.times);
        kept = Some(setup);
    }
    let setup = kept.expect("at least one set-up");
    // The references are set-up, not rounds of the workload: a failure here
    // ends the run with an error instead of counting an operation.
    let mut references = Vec::new();
    let (inputs, host) = setup.remote();
    for (request, remote) in &setup.warm {
        if remote.from_cache {
            return Err("the warm-up request was served from the cache".into());
        }
        let local = ops::mine(&inputs.graph, request, false, rec)?;
        checks::check_outcome(host, &local.outcome, SIGMA)
            .map_err(|e| format!("hot reference: {e}"))?;
        checks::same_patterns(&remote.outcome.patterns, &local.outcome.patterns)
            .map_err(|e| format!("warm-up outcome against its reference: {e}"))?;
        if args.workload == Workload::ServeMixed {
            mine_s.push(local.wall.as_secs_f64());
        }
        references.push(local.outcome);
    }
    Ok((setup, times, references))
}

/// One measurement segment of the workload.
fn segment(
    args: &Args,
    setup: &Setup,
    references: &[MineOutcome],
    span: Span,
    fresh_base: u64,
    detail: bool,
    rec: Option<&Recorder>,
) -> Result<(Segment, Vec<(u64, MineOutcome)>), String> {
    match args.workload {
        Workload::ServeMixed => serve_segment(setup, references, span, fresh_base, rec),
        _ => mine_segment(setup, args.workload, &references[0], span, detail, rec)
            .map(|s| (s, Vec::new())),
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn with_units(
    table: &'static [(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect()
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let (setup, times, references) = prepare(args, None, &mut tally.mine_s)?;
    let window = Duration::from_secs_f64(args.seconds);
    let (seg, sampled) = segment(args, &setup, &references, Span::For(window), 0, false, None)?;
    let completed = seg.tally.completed;
    tally.merge(seg.tally);
    // The serve workload's `mine_s` is the in-process mine of its sampled
    // fresh requests (and of its hot set, above).
    verify_sampled(&setup, &sampled, &mut tally, None);
    setup.close();
    let setup_s = median(
        &times
            .iter()
            .map(|t| t.total().as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let values = [
        ("setup_s", setup_s),
        ("mine_s", median(&tally.mine_s)),
        ("topk_edges", mean(&tally.topk_edges)),
        ("peak_rss_mb", stats::peak_rss_mb()),
        ("requests_per_s", completed as f64 / seg.wall.as_secs_f64()),
        ("fresh_rtt_ms_p50", median(&tally.fresh_ms)),
        ("first_pattern_ms_p50", median(&tally.first_pattern_ms)),
    ];
    eprintln!(
        "{}: {} rounds in {:.1} s, {} cached / {} fresh samples, {} cores",
        args.workload.name(),
        seg.rounds,
        seg.wall.as_secs_f64(),
        tally.cached_ms.len(),
        tally.fresh_ms.len(),
        setup::width()
    );
    // Every wrong output is a failed operation; `correct` speaks of the
    // operations that did not fail, whose outputs all passed their checks.
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: with_units(END_TO_END, &values),
    })
}

/// Work counters of SpiderMine's stages for a few requests, read from
/// `MiningStats` by running the same configuration through
/// `SpiderMiner::mine` (the engine returns no counters).
fn work_counters(setup: &Setup, requests: &[MineRequest]) -> Vec<(&'static str, f64)> {
    let (mut spiders, mut seeds, mut merges, mut run, mut pruned) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for request in requests {
        let engine = request
            .clone()
            .build()
            .expect("benchmark requests are valid");
        let EngineKind::SpiderMine(spidermine) = engine.kind() else {
            unreachable!("benchmark requests are SpiderMine requests")
        };
        let result = SpiderMiner::new(spidermine.config().clone()).mine(&setup.inputs.graph);
        spiders += result.stats.spider_count as f64;
        seeds += result.stats.seed_count as f64;
        merges += result.stats.merges as f64;
        run += result.stats.iso_tests_run as f64;
        pruned += result.stats.iso_tests_pruned as f64;
    }
    let n = requests.len().max(1) as f64;
    vec![
        ("mining.spider_count", spiders / n),
        ("spidermine.seeds", seeds / n),
        ("spidermine.merges", merges / n),
        ("spidermine.iso_tests_run", run / n),
        (
            "spidermine.iso_prune_ratio",
            pruned / (pruned + run).max(1.0),
        ),
        ("spidermine.iso_candidates", (pruned + run) / n),
    ]
}

/// Stage-level numbers over the traced mines.
fn mine_layers(details: &[MineDetail]) -> Vec<(&'static str, f64)> {
    let stage = |name: &str| {
        mean(
            &details
                .iter()
                .map(|d| d.stages.iter().filter(|s| s.0 == name).map(|s| s.1).sum())
                .collect::<Vec<f64>>(),
        )
    };
    let per_mine =
        |f: &dyn Fn(&MineDetail) -> f64| mean(&details.iter().map(f).collect::<Vec<_>>());
    vec![
        ("mining.spiders_ms", stage("spiders") * 1e3),
        ("spidermine.identify_s", stage("identify")),
        (
            "spidermine.identify_iter_max_s",
            details
                .iter()
                .flat_map(|d| d.identify_iterations_s.iter().copied())
                .fold(0.0, f64::max),
        ),
        ("spidermine.recover_s", stage("recover")),
        ("spidermine.select_ms", stage("select") * 1e3),
        (
            "spidermine.stage_cover",
            per_mine(&|d| d.stages.iter().map(|s| s.1).sum::<f64>() / d.wall_s),
        ),
        (
            "engine.cpu_per_wall",
            per_mine(&|d| d.cpu_s / (d.wall_s * d.threads.max(1) as f64)),
        ),
        (
            "engine.overhead_ms",
            per_mine(&|d| (d.wall_s - d.total_s) * 1e3),
        ),
    ]
}

/// Service-side numbers from the service's own counters.
fn service_layers(m: &ServiceMetrics) -> Vec<(&'static str, f64)> {
    let lookups = (m.cache.hits + m.cache.misses) as f64;
    let settled = (m.completed + m.cancelled).max(1) as f64;
    vec![
        (
            "service.queue_wait_ms_mean",
            ms(m.queue_wait_total) / settled,
        ),
        (
            "service.run_ms_mean",
            ms(m.run_time_total) / m.cache.misses.max(1) as f64,
        ),
        (
            "service.cache_hit_ratio",
            m.cache.hits as f64 / lookups.max(1.0),
        ),
        ("service.cache_lookups", lookups),
        ("service.cache_evictions", m.cache.evictions as f64),
        ("service.retries", m.retries as f64),
    ]
}

/// Times cache-served submissions of the first hot request to the
/// in-process service, in microseconds: the service's share of a cached
/// round trip, without the wire.
///
/// These are a measurement of the traced run, not rounds of the workload:
/// a failure ends the run with an error.
fn inprocess_cached(setup: &Setup, reference: &MineOutcome) -> Result<Vec<f64>, String> {
    let request = &setup.warm[0].0;
    let mut samples = Vec::with_capacity(INPROCESS_PROBES);
    for _ in 0..INPROCESS_PROBES {
        let start = Instant::now();
        let handle = setup
            .service
            .submit(GRAPH, request.clone())
            .map_err(|e| e.to_string())?;
        let outcome = handle.wait().map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        if !handle.metrics().is_some_and(|m| m.from_cache) {
            return Err("a hot in-process request was not served from the cache".into());
        }
        checks::same_patterns(&outcome.patterns, &reference.patterns)?;
    }
    Ok(samples)
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let rec = Recorder::arm();
    let mut tally = Tally::default();
    let (setup, times, references) = prepare(args, Some(&rec), &mut tally.mine_s)?;
    setup.settle();
    // The first half runs with tracing off, the second repeats its rounds
    // (the same mines; new fresh requests) with tracing on: the difference
    // is the tracing overhead.
    rec.pause();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let (plain, _) = segment(args, &setup, &references, Span::For(half), 0, false, None)?;
    rec.resume();
    let (traced, sampled) = segment(
        args,
        &setup,
        &references,
        Span::Rounds(plain.rounds),
        1 << 32,
        true,
        Some(&rec),
    )?;
    let mut work = traced.tally;
    verify_sampled(&setup, &sampled, &mut work, Some(&rec));
    // The work counters and in-process probes below are measurements of the
    // traced run, not of the workload: they run untraced.
    setup.settle();
    rec.pause();
    let (overhead_base, overhead_traced) = match args.workload {
        Workload::ServeMixed => (median(&plain.tally.cached_ms), median(&work.cached_ms)),
        _ => (median(&plain.tally.mine_s), median(&work.mine_s)),
    };
    let counted: Vec<MineRequest> = match args.workload {
        Workload::ServeMixed => sampled
            .iter()
            .take(STATS_MINES)
            .map(|(i, _)| setup.remote().0.request(stream::FRESH, *i))
            .collect(),
        _ => (0..STATS_MINES as u64)
            .map(|i| setup.inputs.request(stream::MINE, i))
            .collect(),
    };
    let mut values = mine_layers(&work.details);
    values.extend(work_counters(&setup, &counted));
    let inproc = inprocess_cached(&setup, &references[0])?;
    values.extend(service_layers(&setup.service.metrics()));
    let clients = setup.service.clients().snapshot();
    let (bytes, accepted) = clients.iter().fold((0u64, 0u64), |(b, a), (_, s)| {
        (b + s.bytes_streamed, a + s.accepted)
    });
    let setup_ms = |f: &dyn Fn(&SetupTimes) -> Duration| {
        median(&times.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let inproc_p50 = median(&inproc);
    values.extend([
        ("graph.generate_ms", setup_ms(&|t| t.generate)),
        ("graph.csr_freeze_ms", setup_ms(&|t| t.freeze)),
        ("service.catalog_persist_ms", setup_ms(&|t| t.persist)),
        ("service.catalog_restore_ms", setup_ms(&|t| t.restore)),
        (
            "service.first_materialize_ms",
            setup_ms(&|t| t.first_materialize),
        ),
        ("service.inprocess_cached_us_p50", inproc_p50),
        ("transport.connect_ms", setup_ms(&|t| t.connect)),
        (
            "transport.cached_rtt_ms_p50",
            median(&plain.tally.cached_ms),
        ),
        (
            "transport.cached_rtt_ms_p99",
            quantile(&plain.tally.cached_ms, 0.99),
        ),
        (
            "service.fresh_rtt_ms_p90",
            quantile(&plain.tally.fresh_ms, 0.90),
        ),
        (
            "transport.edge_ms_per_request",
            median(&plain.tally.cached_ms) - inproc_p50 / 1e3,
        ),
        (
            "transport.wire_bytes_per_request",
            bytes as f64 / accepted.max(1) as f64,
        ),
        (
            "telemetry.trace_overhead_pct",
            (overhead_traced - overhead_base) / overhead_base * 100.0,
        ),
    ]);
    tally.merge(plain.tally);
    tally.merge(work);
    setup.close();
    let analysis = rec.finish();
    let analysis = match analysis {
        Ok(a) => a,
        Err(e) => {
            // An unbalanced trace is a wrong output of the program's tracing.
            eprintln!("trace: {e}");
            return Ok(Report {
                correct: false,
                attempted: tally.attempted,
                failed: tally.failed,
                metrics: Vec::new(),
            });
        }
    };
    values.push(("telemetry.spans_recorded", analysis.spans as f64));
    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, &analysis.chrome_json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} ({} balanced spans)",
        path.display(),
        analysis.spans
    );
    println!(
        "{:<22} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in &analysis.layers {
        println!("{name:<22} {count:>7} {total:>12.3} {own:>12.3}");
    }
    for (name, value) in &values {
        println!("{name} = {value}");
    }
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: with_units(PER_LAYER, &values),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match report {
        Ok(report) => println!("{}", json(&report)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this program prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_tables_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<(String, String)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_owned();
                    let unit_at = entry.find("\"unit\": \"").unwrap() + 9;
                    let unit =
                        entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_owned();
                    (name, unit)
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{section}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("mine_s", 1.25, "s")],
        };
        assert_eq!(
            json(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"mine_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
