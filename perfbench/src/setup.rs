//! The set-up every workload shares: generate the hosts, freeze their CSR
//! indexes, persist the served host through a catalog, restore that catalog
//! into a fresh service, bind a loopback server and warm its result cache.
//!
//! Every workload serves the small serve host over the wire. The mine
//! workloads mine their own host in process and probe the request path with
//! cache-served requests of the serve host, a control that mining changes
//! should leave alone.

use crate::checks::Host;
use crate::inputs::{HostKind, Inputs};
use crate::trace::Recorder;
use spidermine_engine::MineRequest;
use spidermine_service::{GraphCatalog, MiningService, ServiceConfig};
use spidermine_transport::{MiningClient, MiningServer, RemoteOutcome, TransportConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The catalog name of the served host.
pub const GRAPH: &str = "serve";

/// How often set-up runs per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// One set-up's timings, in the order they happen.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub freeze: Duration,
    pub persist: Duration,
    pub restore: Duration,
    pub first_materialize: Duration,
    pub bind: Duration,
    pub connect: Duration,
    pub warmup: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate
            + self.freeze
            + self.persist
            + self.restore
            + self.first_materialize
            + self.bind
            + self.connect
            + self.warmup
    }
}

/// A set-up ready to measure: the workload's host and the served host (the
/// same inputs on the serve workload) with the benchmark's own copies, the
/// restored service behind a loopback server, and the outcomes of the
/// warm-up requests as the first client received them.
pub struct Setup {
    pub inputs: Inputs,
    pub host: Host,
    served: Option<(Inputs, Host)>,
    pub service: Arc<MiningService>,
    pub server: MiningServer,
    pub warm: Vec<(MineRequest, RemoteOutcome)>,
    pub times: SetupTimes,
    dir: PathBuf,
}

/// Result cache capacity of every workload's service: the hot set plus room
/// for four fresh outcomes, so fresh traffic evicts old fresh outcomes while
/// the hot set, touched every round, stays resident.
pub fn cache_capacity(hot: usize) -> usize {
    hot + 4
}

/// Service dispatchers and client threads: at most the core count, at most
/// two.
pub fn width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// A span around a set-up step when tracing, a no-op otherwise.
fn step<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = rec.map(|r| r.open(name));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if let (Some(r), Some(span)) = (rec, span) {
        r.close(span);
    }
    (out, elapsed)
}

/// Runs one full set-up. `hot` lists the warm-up requests (on the served
/// host); each is sent once over the wire so the cache holds it.
pub fn run(
    kind: HostKind,
    seed: u64,
    hot: &[MineRequest],
    out_dir: &Path,
    rep: usize,
    rec: Option<&Recorder>,
) -> Result<Setup, String> {
    let ((inputs, served), generate) = step(rec, "bench.generate", || {
        let served = (kind != HostKind::Serve).then(|| Inputs::generate(HostKind::Serve, seed));
        (Inputs::generate(kind, seed), served)
    });
    let ((), freeze) = step(rec, "bench.freeze", || {
        inputs.graph.csr().prewarm();
        if let Some(s) = &served {
            s.graph.csr().prewarm();
        }
    });
    let host = Host::new(&inputs.graph);
    let served = served.map(|s| {
        let h = Host::new(&s.graph);
        (s, h)
    });
    let remote = served.as_ref().map_or(&inputs, |(s, _)| s);

    let dir = out_dir.join(format!("catalog-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (persisted, persist) = step(rec, "bench.persist", || {
        let catalog = GraphCatalog::new();
        catalog.register(GRAPH, remote.graph.clone());
        catalog.persist(&dir)
    });
    persisted.map_err(|e| format!("catalog persist: {e}"))?;

    let service = Arc::new(MiningService::new(ServiceConfig {
        dispatchers: width(),
        cache_capacity: cache_capacity(hot.len()),
        ..ServiceConfig::default()
    }));
    let (restored, restore) = step(rec, "bench.restore", || service.catalog().restore(&dir));
    let restored = restored.map_err(|e| format!("catalog restore: {e}"))?;
    if restored != [GRAPH] {
        return Err(format!("catalog restored {restored:?}"));
    }
    let (loaded, first_materialize) = step(rec, "bench.materialize", || {
        let snapshot = service
            .catalog()
            .get(GRAPH)
            .ok_or("restored graph missing")?;
        snapshot
            .ensure_loaded()
            .map(|g| (g.vertex_count(), g.edge_count()))
            .map_err(|e| e.to_string())
    });
    let loaded = loaded.map_err(|e| format!("first materialize: {e}"))?;
    if loaded != (remote.graph.vertex_count(), remote.graph.edge_count()) {
        return Err(format!("restored graph has shape {loaded:?}"));
    }
    let (server, bind) = step(rec, "bench.bind", || {
        MiningServer::bind("127.0.0.1:0", service.clone(), TransportConfig::default())
    });
    let server = server.map_err(|e| format!("bind: {e}"))?;
    let (client, connect) = step(rec, "bench.connect", || {
        MiningClient::connect(server.local_addr(), "warmup")
    });
    let client = client.map_err(|e| format!("connect: {e}"))?;
    let (warm, warmup) = step(rec, "bench.warmup", || {
        hot.iter()
            .map(|request| {
                let outcome = client
                    .submit(GRAPH, request)
                    .and_then(|job| job.outcome())
                    .map_err(|e| format!("warm-up request: {e}"))?;
                Ok((request.clone(), outcome))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let warm = warm?;
    Ok(Setup {
        inputs,
        host,
        served,
        service,
        server,
        warm,
        times: SetupTimes {
            generate,
            freeze,
            persist,
            restore,
            first_materialize,
            bind,
            connect,
            warmup,
        },
        dir,
    })
}

impl Setup {
    /// The served host's inputs and the benchmark's copy of it.
    pub fn remote(&self) -> (&Inputs, &Host) {
        self.served
            .as_ref()
            .map_or((&self.inputs, &self.host), |(i, h)| (i, h))
    }

    /// Tears the set-up down: the server drains, the service stops (joining
    /// its dispatchers), the persisted catalog is removed.
    pub fn close(self) {
        let Setup {
            mut server,
            service,
            dir,
            ..
        } = self;
        server.shutdown(Duration::from_secs(5));
        drop(server);
        drop(service);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Waits until the service has settled every admitted job, then a little
    /// longer, so the spans its threads close after a reply has reached the
    /// client are recorded before tracing is paused.
    pub fn settle(&self) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            let m = self.service.metrics();
            if m.queue_depth == 0 && m.completed + m.cancelled + m.failed >= m.submitted {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
