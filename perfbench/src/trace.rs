//! The traced run's span bookkeeping: the benchmark's own spans around each
//! layer call, collection of every captured event, the balance check, the
//! Chrome trace file and the self-time table.
//!
//! The program already emits spans of its own (`remote_job` on the client,
//! `job`/`queued`/`running` in the scheduler, `engine_mine`, one span per
//! mining stage). Several of them are recorded as roots of their trace, or
//! under a trace id the client mints itself, so the tree is rebuilt here by
//! time containment: within one operation, a span's parent is the shortest
//! span that contains it.

use spidermine_telemetry::{self as telemetry, Event, EventKind};
use std::collections::HashMap;
use std::sync::Mutex;

/// Collects every captured event of the run. The program's capture buffer
/// keeps only the most recent 65 536 events, so it is drained after each
/// operation.
/// Shared by the client threads of a traced run.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
    /// Trace ids of the program's own traces that belong to one of the
    /// benchmark's operations: program trace → benchmark trace.
    joined: Mutex<HashMap<u64, u64>>,
}

/// An open benchmark span; close it with [`Recorder::close`].
pub struct Open {
    name: &'static str,
    trace: u64,
    id: u64,
}

impl Open {
    /// The span id, for parenting the program's spans under it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id of the operation.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

impl Recorder {
    /// Arms tracing and starts capturing.
    pub fn arm() -> Self {
        telemetry::arm();
        telemetry::start_capture();
        Self::default()
    }

    /// Opens a span for a new operation (a fresh trace id).
    pub fn open(&self, name: &'static str) -> Open {
        let trace = telemetry::next_trace_id();
        self.open_in(name, trace, 0)
    }

    /// Opens a span inside an operation's trace.
    pub fn open_in(&self, name: &'static str, trace: u64, parent: u64) -> Open {
        Open {
            name,
            trace,
            id: telemetry::span_start(name, trace, parent),
        }
    }

    /// Closes a span.
    pub fn close(&self, span: Open) {
        telemetry::span_end(span.name, span.trace, span.id);
    }

    /// Records that the program's trace `program` ran on behalf of the
    /// benchmark operation `operation`.
    pub fn join(&self, program: u64, operation: u64) {
        self.joined
            .lock()
            .expect("joined traces")
            .insert(program, operation);
    }

    /// Moves the captured events into the recorder.
    pub fn drain(&self) {
        let taken = telemetry::take_capture();
        self.events.lock().expect("recorded events").extend(taken);
    }

    /// Pauses tracing: the program's hooks return to their disarmed path.
    pub fn pause(&self) {
        self.drain();
        telemetry::disarm();
    }

    /// Resumes tracing after [`Recorder::pause`].
    pub fn resume(&self) {
        telemetry::arm();
    }

    /// Stops capturing, disarms tracing and analyses what was recorded.
    pub fn finish(self) -> Result<Analysis, String> {
        self.drain();
        telemetry::stop_capture();
        telemetry::disarm();
        let events = self.events.into_inner().expect("recorded events");
        let joined = self.joined.into_inner().expect("joined traces");
        analyse(&events, &joined)
    }
}

/// One closed span.
struct Span {
    name: &'static str,
    group: u64,
    start: u64,
    end: u64,
}

/// What the traced run learned from its spans.
pub struct Analysis {
    /// The Chrome trace-event JSON of every captured event.
    pub chrome_json: String,
    /// Spans recorded (each balanced start/end pair counts once).
    pub spans: usize,
    /// Per span name: (count, total ms, self ms), sorted by self time.
    pub layers: Vec<(&'static str, usize, f64, f64)>,
}

fn analyse(events: &[Event], joined: &HashMap<u64, u64>) -> Result<Analysis, String> {
    let mut open: HashMap<u64, &Event> = HashMap::new();
    let mut spans = Vec::new();
    for event in events {
        match event.kind {
            EventKind::SpanStart => {
                open.insert(event.span, event);
            }
            EventKind::SpanEnd => {
                let start = open.remove(&event.span).ok_or_else(|| {
                    format!("span {} `{}` ends without a start", event.span, event.name)
                })?;
                spans.push(Span {
                    name: start.name,
                    group: joined.get(&start.trace).copied().unwrap_or(start.trace),
                    start: start.t_nanos,
                    end: event.t_nanos.max(start.t_nanos),
                });
            }
            _ => {}
        }
    }
    if let Some(unclosed) = open.values().next() {
        return Err(format!(
            "{} span(s) never closed, e.g. `{}`",
            open.len(),
            unclosed.name
        ));
    }
    let mut layers: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
    let mut by_group: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_group.entry(s.group).or_default().push(i);
    }
    for members in by_group.values() {
        // Longest first, so every span's parent is placed before it; the
        // parent is the shortest earlier-placed span containing it.
        let mut members = members.clone();
        members.sort_by_key(|&i| {
            (
                std::cmp::Reverse(spans[i].end - spans[i].start),
                spans[i].start,
            )
        });
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for (rank, &i) in members.iter().enumerate() {
            let s = &spans[i];
            let parent = members[..rank]
                .iter()
                .copied()
                .filter(|&p| spans[p].start <= s.start && s.end <= spans[p].end)
                .min_by_key(|&p| spans[p].end - spans[p].start);
            if let Some(p) = parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        for &i in &members {
            let s = &spans[i];
            let total = s.end - s.start;
            let covered = union_length(children.remove(&i).unwrap_or_default());
            let entry = layers.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
    }
    let mut layers: Vec<(&'static str, usize, f64, f64)> = layers
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    layers.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(b.0)));
    Ok(Analysis {
        chrome_json: telemetry::chrome_trace_json(events),
        spans: spans.len(),
        layers,
    })
}

/// Total length covered by a set of intervals.
fn union_length(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &'static str, trace: u64, span: u64, t: u64) -> Event {
        Event {
            kind,
            name,
            trace,
            span,
            parent: 0,
            t_nanos: t,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        use EventKind::{SpanEnd as E, SpanStart as S};
        // op [0, 100] holds a [10, 50] and b [40, 70] (overlapping), and a
        // holds c [20, 30]; b belongs to a program trace joined to the op.
        let events = [
            ev(S, "op", 1, 1, 0),
            ev(S, "a", 1, 2, 10),
            ev(S, "c", 1, 3, 20),
            ev(E, "c", 1, 3, 30),
            ev(S, "b", 9, 4, 40),
            ev(E, "a", 1, 2, 50),
            ev(E, "b", 9, 4, 70),
            ev(E, "op", 1, 1, 100),
        ];
        let joined = HashMap::from([(9, 1)]);
        let a = analyse(&events, &joined).unwrap();
        assert_eq!(a.spans, 4);
        let get = |name: &str| *a.layers.iter().find(|l| l.0 == name).unwrap();
        assert_eq!(get("op").3 * 1e6, 40.0); // 100 - |[10, 70]|
        assert_eq!(get("a").3 * 1e6, 30.0); // 40 - 10
        assert_eq!(get("b").3 * 1e6, 30.0);
        assert_eq!(get("c").3 * 1e6, 10.0);
    }

    #[test]
    fn an_unclosed_span_is_reported() {
        let events = [ev(EventKind::SpanStart, "op", 1, 1, 0)];
        assert!(analyse(&events, &HashMap::new()).is_err());
        let events = [ev(EventKind::SpanEnd, "op", 1, 1, 0)];
        assert!(analyse(&events, &HashMap::new()).is_err());
    }

    #[test]
    fn union_of_intervals() {
        assert_eq!(union_length(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(Vec::new()), 0);
    }
}
