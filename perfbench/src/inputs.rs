//! Input generation: every host graph and request of a run derives from the
//! workload seed.
//!
//! SpiderMine is a randomized algorithm, and on the small hosts a run can
//! afford its cost swings with the shape of the host: two Barabási–Albert
//! draws of the same size differ several-fold in hub degree, and with it in
//! spider count, merges and mine time. A benchmark whose host structure
//! followed the workload seed would measure the draw, not the program. So
//! each host's structure comes from a fixed generator seed, and the workload
//! seed derives (a) a permutation of the host's vertex ids, which reorders
//! every id-ordered structure the miner builds and so its random seed-spider
//! draw, and (b) the RNG seed of every request.
//!
//! The hosts plant a tree rather than the bounded-diameter pattern with
//! extra edges of `synthetic::scalefree_graph` and `scalability_graph`.
//! With extra edges, the closure refinement that runs after the pool's
//! isomorphism dedup turns several spanning sub-patterns of the planted
//! pattern into the same closed pattern, so SpiderMine returns isomorphic
//! duplicates in its top K (see `CHANGES.md`). The benchmark keeps that
//! fault visible with one witness mine per round on a fixed host
//! ([`witness`]) and measures the other mines on hosts that do not trigger
//! it.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_datasets::synthetic;
use spidermine_engine::{Algorithm, MineRequest};
use spidermine_graph::{generate, traversal, LabeledGraph};

/// Support threshold σ of every request.
pub const SIGMA: usize = 2;
/// Patterns returned per request (K).
pub const K: usize = 10;
/// Diameter bound `Dmax` of the mine workloads' requests.
pub const MINE_D_MAX: u32 = 8;
/// Diameter bound of the serve workload's requests: two Stage II iterations
/// instead of four, so a fresh request costs a fraction of a second.
pub const SERVE_D_MAX: u32 = 4;
/// Labels of every generated host.
pub const LABELS: u32 = 100;

/// The inputs of one workload: the host, the pattern planted in it, and the
/// request stream.
pub struct Inputs {
    /// The host graph, vertex ids permuted by the workload seed.
    pub graph: LabeledGraph,
    /// The pattern planted into the host.
    pub planted: LabeledGraph,
    kind: HostKind,
    seed: u64,
}

/// The host families of the three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostKind {
    /// Barabási–Albert, 400 vertices, m = 2, an 8-vertex tree planted
    /// twice.
    ScaleFree,
    /// Erdős–Rényi, 400 vertices, average degree 3, a 14-vertex tree of
    /// diameter ≤ 8 planted three times.
    Planted,
    /// Erdős–Rényi, 400 vertices, average degree 3, a 10-vertex tree of
    /// diameter ≤ 8 planted twice.
    Serve,
}

impl HostKind {
    fn build(self) -> (LabeledGraph, LabeledGraph) {
        match self {
            HostKind::ScaleFree => planted(true, 400, 8, 2, 3, true),
            HostKind::Planted => planted(false, 400, 14, 3, 1, true),
            HostKind::Serve => planted(false, 400, 10, 2, 3, true),
        }
    }

    fn d_max(self) -> u32 {
        match self {
            HostKind::ScaleFree | HostKind::Planted => MINE_D_MAX,
            HostKind::Serve => SERVE_D_MAX,
        }
    }
}

/// A host of `vertices` vertices — Barabási–Albert with m = 2 when
/// `scale_free`, else Erdős–Rényi with average degree 3 — with one
/// `pattern_vertices`-vertex pattern of diameter ≤ 8 planted `copies` times,
/// each copy bridged to the host by two edges: `synthetic::scalefree_graph`
/// and `synthetic::scalability_graph` with the sizes as parameters and, with
/// `tree`, a tree pattern.
fn planted(
    scale_free: bool,
    vertices: usize,
    pattern_vertices: usize,
    copies: usize,
    seed: u64,
    tree: bool,
) -> (LabeledGraph, LabeledGraph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graph = if scale_free {
        generate::barabasi_albert(&mut rng, vertices, 2, LABELS)
    } else {
        generate::erdos_renyi_average_degree(&mut rng, vertices, 3.0, LABELS)
    };
    let pattern = if tree {
        loop {
            let t = generate::random_connected_pattern(&mut rng, pattern_vertices, LABELS, 0);
            if traversal::diameter(&t) <= 8 {
                break t;
            }
        }
    } else {
        synthetic::bounded_diameter_pattern(&mut rng, pattern_vertices, LABELS, 8)
    };
    generate::inject_pattern(&mut rng, &mut graph, &pattern, copies, 2);
    (graph, pattern)
}

/// The witness of the duplicate-pattern fault: a fixed 100-vertex
/// Erdős–Rényi host with a 6-vertex bounded-diameter pattern (extra edges
/// included) planted twice, and a fixed request. Neither depends on the
/// workload seed, and the engine is deterministic, so the witness fails or
/// passes the same way on every run.
pub fn witness() -> (LabeledGraph, MineRequest) {
    let (graph, _) = planted(false, 100, 6, 2, 3, false);
    let request = MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(SIGMA)
        .k(K)
        .d_max(SERVE_D_MAX)
        .seed(1);
    (graph, request)
}

/// SplitMix64: a well-mixed 64-bit hash, used to derive independent seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Relabels the vertex ids of `g` by a permutation drawn from `seed`.
fn permute(g: &LabeledGraph, seed: u64) -> LabeledGraph {
    let n = g.vertex_count();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let mut labels = vec![spidermine_graph::Label(0); n];
    for v in g.vertices() {
        labels[perm[v.index()] as usize] = g.label(v);
    }
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (perm[u.index()], perm[v.index()]))
        .collect();
    LabeledGraph::from_parts(&labels, &edges)
}

impl Inputs {
    /// Generates the host of `kind` for `workload_seed`. The CSR index is
    /// not built here; callers freeze it as a separate, timed step.
    pub fn generate(kind: HostKind, workload_seed: u64) -> Self {
        let (graph, planted) = kind.build();
        Self {
            graph: permute(&graph, mix(workload_seed ^ 0x7065_726d)),
            planted,
            kind,
            seed: workload_seed,
        }
    }

    /// Request `i` of stream `stream`; see [`request`].
    pub fn request(&self, stream: u64, i: u64) -> MineRequest {
        request(self.kind, self.seed, stream, i)
    }
}

/// Request `i` of stream `stream` on a `kind` host: SpiderMine with σ, K and
/// the host's `Dmax`, its RNG seed derived from the workload seed. Distinct
/// `(stream, i)` give distinct requests, so they never share a cache entry.
pub fn request(kind: HostKind, workload_seed: u64, stream: u64, i: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(SIGMA)
        .k(K)
        .d_max(kind.d_max())
        .seed(mix(mix(workload_seed ^ (stream << 48)) ^ i))
}

/// Request streams: each names a disjoint family of request seeds.
pub mod stream {
    /// Fresh in-process mines of the mine workloads.
    pub const MINE: u64 = 1;
    /// The hot (repeated, cache-served) set.
    pub const HOT: u64 = 2;
    /// Fresh remote requests of the serve workload.
    pub const FRESH: u64 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Inputs::generate(HostKind::Serve, 7);
        let b = Inputs::generate(HostKind::Serve, 7);
        assert_eq!(a.graph.labels(), b.graph.labels());
        assert!(a.graph.edges().eq(b.graph.edges()));
        assert_eq!(
            a.request(stream::FRESH, 3).canonical_key(),
            b.request(stream::FRESH, 3).canonical_key()
        );
        let c = Inputs::generate(HostKind::Serve, 8);
        assert_ne!(a.graph.labels(), c.graph.labels());
        assert_ne!(
            a.request(stream::FRESH, 3).canonical_key(),
            c.request(stream::FRESH, 3).canonical_key()
        );
    }

    #[test]
    fn permutation_keeps_the_host_shape() {
        let (g, _) = HostKind::Serve.build();
        let p = permute(&g, 11);
        assert_eq!(p.vertex_count(), g.vertex_count());
        assert_eq!(p.edge_count(), g.edge_count());
        let degrees = |g: &LabeledGraph| {
            let mut d: Vec<(u32, usize)> =
                g.vertices().map(|v| (g.label(v).0, g.degree(v))).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&p), degrees(&g));
    }

    #[test]
    fn streams_do_not_collide() {
        let inputs = Inputs::generate(HostKind::Serve, 1);
        let keys: std::collections::HashSet<String> = [stream::MINE, stream::HOT, stream::FRESH]
            .iter()
            .flat_map(|&s| (0..100).map(move |i| (s, i)))
            .map(|(s, i)| inputs.request(s, i).canonical_key())
            .collect();
        assert_eq!(keys.len(), 300);
    }
}
