//! The two operations every workload is made of, timed from the caller's
//! side: an in-process `Miner::mine`, and a remote request through a
//! `MiningClient`.

use crate::setup::GRAPH;
use crate::stats;
use crate::trace::Recorder;
use spidermine_engine::{GraphSource, MineContext, MineOutcome, MineRequest, Miner, ProgressEvent};
use spidermine_graph::LabeledGraph;
use spidermine_transport::{MiningClient, RemoteOutcome};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What the traced run reads off one in-process mine.
#[derive(Clone, Default)]
pub struct MineDetail {
    /// `MineOutcome::stages`, in seconds.
    pub stages: Vec<(&'static str, f64)>,
    /// The benchmark's wall-clock of the `mine` call, in seconds.
    pub wall_s: f64,
    /// `MineOutcome::total_time`, in seconds.
    pub total_s: f64,
    /// Process CPU time used during the call, in seconds.
    pub cpu_s: f64,
    /// The run's width (`MineOutcome::threads`).
    pub threads: usize,
    /// Duration of each Stage II iteration, from the progress callback's
    /// timestamps.
    pub identify_iterations_s: Vec<f64>,
}

/// One timed in-process mine.
pub struct Mined {
    pub outcome: MineOutcome,
    pub wall: Duration,
    /// From the call until the sink received the first pattern.
    pub first_pattern: Option<Duration>,
    pub detail: MineDetail,
}

/// Mines `request` on `graph` through the engine API. With `detail` a
/// progress callback timestamps Stage II; with a recorder the call runs
/// inside a `bench.mine` span whose trace the engine's spans join.
pub fn mine(
    graph: &LabeledGraph,
    request: &MineRequest,
    detail: bool,
    rec: Option<&Recorder>,
) -> Result<Mined, String> {
    let engine = request.clone().build().map_err(|e| e.to_string())?;
    let first: Arc<OnceLock<Instant>> = Arc::default();
    let sink_first = first.clone();
    let mut ctx = MineContext::new().on_pattern(move |_| {
        let _ = sink_first.set(Instant::now());
    });
    let marks: Arc<Mutex<Vec<Instant>>> = Arc::default();
    if detail {
        let marks = marks.clone();
        ctx = ctx.on_progress(move |event| {
            let identify = match event {
                ProgressEvent::StageStarted { stage } | ProgressEvent::Iteration { stage, .. } => {
                    *stage == "identify"
                }
                ProgressEvent::StageFinished { .. } => false,
            };
            if identify {
                marks.lock().expect("progress marks").push(Instant::now());
            }
        });
    }
    let span = rec.map(|r| r.open("bench.mine"));
    if let Some(span) = &span {
        ctx.set_trace(span.trace(), span.id());
    }
    let cpu = stats::process_cpu_time();
    let start = Instant::now();
    let result = engine.mine(&GraphSource::Single(graph), &mut ctx);
    let wall = start.elapsed();
    let cpu = stats::process_cpu_time().saturating_sub(cpu);
    if let (Some(r), Some(span)) = (rec, span) {
        r.close(span);
    }
    let outcome = result.map_err(|e| e.to_string())?;
    let marks = marks.lock().expect("progress marks");
    let detail = MineDetail {
        stages: outcome
            .stages
            .iter()
            .map(|s| (s.stage, s.elapsed.as_secs_f64()))
            .collect(),
        wall_s: wall.as_secs_f64(),
        total_s: outcome.total_time.as_secs_f64(),
        cpu_s: cpu.as_secs_f64(),
        threads: outcome.threads,
        identify_iterations_s: marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect(),
    };
    Ok(Mined {
        first_pattern: first.get().map(|t| t.saturating_duration_since(start)),
        outcome,
        wall,
        detail,
    })
}

/// One timed remote request.
pub struct Served {
    pub outcome: RemoteOutcome,
    /// Submit until the outcome is drained.
    pub rtt: Duration,
    /// Submit until the first streamed pattern arrived.
    pub first_pattern: Option<Duration>,
}

/// Sends `request` and drains its outcome. With a recorder the request runs
/// inside `bench.request` (split into `bench.submit`, until the server
/// accepts, and `bench.drain`), and the client's own trace joins it.
pub fn request(
    client: &MiningClient,
    request: &MineRequest,
    rec: Option<&Recorder>,
) -> Result<Served, String> {
    let outer = rec.map(|r| r.open("bench.request"));
    let start = Instant::now();
    let result = (|| {
        let submit = rec
            .zip(outer.as_ref())
            .map(|(r, o)| r.open_in("bench.submit", o.trace(), o.id()));
        let submitted = client.submit(GRAPH, request);
        if let (Some(r), Some(s)) = (rec, submit) {
            r.close(s);
        }
        let mut job = submitted.map_err(|e| format!("submit: {e}"))?;
        if let (Some(r), Some(o)) = (rec, &outer) {
            r.join(job.trace(), o.trace());
        }
        let drain = rec
            .zip(outer.as_ref())
            .map(|(r, o)| r.open_in("bench.drain", o.trace(), o.id()));
        let first_pattern = job.next().map(|_| start.elapsed());
        let outcome = job.outcome();
        if let (Some(r), Some(d)) = (rec, drain) {
            r.close(d);
        }
        let outcome = outcome.map_err(|e| format!("outcome: {e}"))?;
        Ok(Served {
            outcome,
            rtt: start.elapsed(),
            first_pattern,
        })
    })();
    if let (Some(r), Some(o)) = (rec, outer) {
        r.close(o);
    }
    result
}
