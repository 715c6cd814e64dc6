//! Output checks computed apart from the program.
//!
//! Every check here reads the program's outputs (patterns, supports,
//! embeddings, flags) and the host graph's labels and edges, and decides
//! correctness with its own code: its own copy of the host's edge set, its
//! own minimum-image support count and its own isomorphism matcher. None of
//! them compares against a stored copy of an earlier run's output.

use spidermine_engine::{MineOutcome, StreamedPattern};
use spidermine_graph::{LabeledGraph, VertexId};
use std::collections::{HashMap, HashSet};

/// The benchmark's own copy of a host graph: labels and an edge set.
pub struct Host {
    labels: Vec<u32>,
    edges: HashSet<(u32, u32)>,
}

fn edge_key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

impl Host {
    /// Copies the labels and edges of `g`.
    pub fn new(g: &LabeledGraph) -> Self {
        Self {
            labels: g.labels().iter().map(|l| l.0).collect(),
            edges: g.edges().map(|(u, v)| edge_key(u.0, v.0)).collect(),
        }
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.contains(&edge_key(u, v))
    }
}

/// Checks one outcome: its flags, then every pattern and embedding, the
/// recomputed support, the size order and pairwise non-isomorphism.
pub fn check_outcome(host: &Host, outcome: &MineOutcome, sigma: usize) -> Result<(), String> {
    check_flags(outcome)?;
    check_patterns(host, &outcome.patterns, sigma)
}

/// The run was neither cancelled nor timed out, dropped no merged
/// embedding, and returned at least one pattern.
pub fn check_flags(outcome: &MineOutcome) -> Result<(), String> {
    if outcome.cancelled || outcome.timed_out {
        return Err(format!(
            "outcome cancelled={} timed_out={}",
            outcome.cancelled, outcome.timed_out
        ));
    }
    if outcome.dropped_embeddings != 0 {
        return Err(format!(
            "outcome dropped {} merged embeddings",
            outcome.dropped_embeddings
        ));
    }
    if outcome.patterns.is_empty() {
        return Err("outcome holds no pattern".into());
    }
    Ok(())
}

/// The pattern-level checks of [`check_outcome`].
pub fn check_patterns(
    host: &Host,
    patterns: &[StreamedPattern],
    sigma: usize,
) -> Result<(), String> {
    for (i, p) in patterns.iter().enumerate() {
        check_embeddings(host, p).map_err(|e| format!("pattern {i}: {e}"))?;
        let support = mni_support(p);
        if support < sigma {
            return Err(format!(
                "pattern {i}: recomputed support {support} < sigma {sigma}"
            ));
        }
        if support != p.support {
            return Err(format!(
                "pattern {i}: reported support {} but its embeddings give {support}",
                p.support
            ));
        }
    }
    for (i, pair) in patterns.windows(2).enumerate() {
        let (a, b) = (pair[0].pattern.edge_count(), pair[1].pattern.edge_count());
        if a < b {
            return Err(format!(
                "pattern {} has {a} edges, pattern {} has {b}",
                i,
                i + 1
            ));
        }
    }
    for i in 0..patterns.len() {
        for j in i + 1..patterns.len() {
            if isomorphic(&patterns[i].pattern, &patterns[j].pattern) {
                return Err(format!("patterns {i} and {j} are isomorphic"));
            }
        }
    }
    Ok(())
}

/// Every embedding is an injective, label- and edge-preserving map of the
/// pattern into the host.
fn check_embeddings(host: &Host, p: &StreamedPattern) -> Result<(), String> {
    let n = p.pattern.vertex_count();
    if p.embeddings.is_empty() {
        return Err("no embedding returned".into());
    }
    let pattern_edges: Vec<(usize, usize)> = p
        .pattern
        .edges()
        .map(|(u, v)| (u.index(), v.index()))
        .collect();
    for (k, e) in p.embeddings.iter().enumerate() {
        if e.len() != n {
            return Err(format!("embedding {k} maps {} of {n} vertices", e.len()));
        }
        let mut seen = HashSet::with_capacity(n);
        for (pv, hv) in e.iter().enumerate() {
            let Some(&label) = host.labels.get(hv.index()) else {
                return Err(format!("embedding {k} maps to missing host vertex {hv}"));
            };
            if !seen.insert(hv.0) {
                return Err(format!(
                    "embedding {k} maps two vertices to host vertex {hv}"
                ));
            }
            if label != p.pattern.label(VertexId(pv as u32)).0 {
                return Err(format!("embedding {k} breaks the label of vertex {pv}"));
            }
        }
        for &(u, v) in &pattern_edges {
            if !host.has_edge(e[u].0, e[v].0) {
                return Err(format!("embedding {k} breaks edge ({u}, {v})"));
            }
        }
    }
    Ok(())
}

/// Minimum-image-based support: for each pattern vertex, the number of
/// distinct host vertices it maps to over all embeddings; the minimum.
pub fn mni_support(p: &StreamedPattern) -> usize {
    (0..p.pattern.vertex_count())
        .map(|i| {
            p.embeddings
                .iter()
                .map(|e| e[i])
                .collect::<HashSet<_>>()
                .len()
        })
        .min()
        .unwrap_or(0)
}

/// Sorted `(label, degree)` pairs: an isomorphism invariant.
fn label_degrees(g: &LabeledGraph) -> Vec<(u32, usize)> {
    let mut v: Vec<(u32, usize)> = g.vertices().map(|x| (g.label(x).0, g.degree(x))).collect();
    v.sort_unstable();
    v
}

/// Some returned pattern matches the planted pattern's vertex count, edge
/// count, label multiset and (label, degree) sequence.
pub fn check_planted(patterns: &[StreamedPattern], planted: &LabeledGraph) -> Result<(), String> {
    let want = label_degrees(planted);
    let found = patterns.iter().any(|p| {
        p.pattern.vertex_count() == planted.vertex_count()
            && p.pattern.edge_count() == planted.edge_count()
            && label_degrees(&p.pattern) == want
    });
    if found {
        Ok(())
    } else {
        Err(format!(
            "no returned pattern matches the planted {}-vertex {}-edge pattern",
            planted.vertex_count(),
            planted.edge_count()
        ))
    }
}

/// Two outcomes hold the same patterns in the same order: labels, edges,
/// supports and embeddings.
pub fn same_patterns(a: &[StreamedPattern], b: &[StreamedPattern]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} patterns against {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let edges = |g: &LabeledGraph| {
            let mut e: Vec<(u32, u32)> = g.edges().map(|(u, v)| edge_key(u.0, v.0)).collect();
            e.sort_unstable();
            e
        };
        if x.pattern.labels() != y.pattern.labels()
            || edges(&x.pattern) != edges(&y.pattern)
            || x.support != y.support
            || x.embeddings != y.embeddings
        {
            return Err(format!("pattern {i} differs"));
        }
    }
    Ok(())
}

/// Whether two labeled graphs are isomorphic: invariants first, then a
/// backtracking search that maps vertices in breadth-first order, each to an
/// unused vertex of equal label and degree that keeps every edge to the
/// vertices mapped before it. With equal edge counts an injective
/// edge-preserving bijection is an isomorphism.
pub fn isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    let n = a.vertex_count();
    if n != b.vertex_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    if label_degrees(a) != label_degrees(b) {
        return false;
    }
    let adj = |g: &LabeledGraph| -> Vec<HashSet<usize>> {
        g.vertices()
            .map(|v| g.neighbors(v).iter().map(|w| w.index()).collect())
            .collect()
    };
    let (adj_a, adj_b) = (adj(a), adj(b));
    let key =
        |g: &LabeledGraph, v: usize| (g.label(VertexId(v as u32)).0, g.degree(VertexId(v as u32)));
    let mut by_key: HashMap<(u32, usize), Vec<usize>> = HashMap::new();
    for v in 0..n {
        by_key.entry(key(b, v)).or_default().push(v);
    }
    // Breadth-first order over every component of `a`.
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for root in 0..n {
        if placed[root] {
            continue;
        }
        placed[root] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let mut next: Vec<usize> = adj_a[v].iter().copied().filter(|&w| !placed[w]).collect();
            next.sort_unstable();
            for w in next {
                placed[w] = true;
                order.push(w);
            }
        }
    }
    let mut map = vec![usize::MAX; n];
    let mut used = vec![false; n];
    fn extend(
        depth: usize,
        order: &[usize],
        map: &mut [usize],
        used: &mut [bool],
        adj_a: &[HashSet<usize>],
        adj_b: &[HashSet<usize>],
        candidates: &dyn Fn(usize) -> Vec<usize>,
    ) -> bool {
        let Some(&v) = order.get(depth) else {
            return true;
        };
        for c in candidates(v) {
            if used[c] {
                continue;
            }
            let consistent = adj_a[v]
                .iter()
                .all(|&w| map[w] == usize::MAX || adj_b[c].contains(&map[w]));
            if !consistent {
                continue;
            }
            map[v] = c;
            used[c] = true;
            if extend(depth + 1, order, map, used, adj_a, adj_b, candidates) {
                return true;
            }
            map[v] = usize::MAX;
            used[c] = false;
        }
        false
    }
    let candidates = |v: usize| by_key.get(&key(a, v)).cloned().unwrap_or_default();
    extend(0, &order, &mut map, &mut used, &adj_a, &adj_b, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_engine::Algorithm;
    use spidermine_graph::Label;
    use std::time::Duration;

    /// A host with two disjoint labeled triangles-with-tail (0-1-2 triangle,
    /// 2-3 tail) plus a noise edge; the pattern is the triangle-with-tail.
    fn host() -> LabeledGraph {
        let labels = [1, 2, 3, 4, 1, 2, 3, 4, 9, 9].map(Label);
        LabeledGraph::from_parts(
            &labels,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
                (8, 9),
                (3, 8),
            ],
        )
    }

    fn tailed_triangle() -> LabeledGraph {
        LabeledGraph::from_parts(&[1, 2, 3, 4].map(Label), &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    fn edge_pattern() -> LabeledGraph {
        LabeledGraph::from_parts(&[1, 2].map(Label), &[(0, 1)])
    }

    fn ids(v: &[u32]) -> Vec<VertexId> {
        v.iter().map(|&x| VertexId(x)).collect()
    }

    fn good_outcome() -> MineOutcome {
        MineOutcome {
            algorithm: Algorithm::SpiderMine,
            patterns: vec![
                StreamedPattern {
                    pattern: tailed_triangle(),
                    support: 2,
                    embeddings: vec![ids(&[0, 1, 2, 3]), ids(&[4, 5, 6, 7])],
                },
                StreamedPattern {
                    pattern: edge_pattern(),
                    support: 2,
                    embeddings: vec![ids(&[0, 1]), ids(&[4, 5])],
                },
            ],
            cancelled: false,
            timed_out: false,
            stages: Vec::new(),
            total_time: Duration::ZERO,
            threads: 1,
            dropped_embeddings: 0,
        }
    }

    #[test]
    fn a_correct_outcome_passes_every_check() {
        let g = host();
        let outcome = good_outcome();
        check_outcome(&Host::new(&g), &outcome, 2).unwrap();
        check_planted(&outcome.patterns, &tailed_triangle()).unwrap();
        same_patterns(&outcome.patterns, &good_outcome().patterns).unwrap();
    }

    #[test]
    fn a_flipped_embedding_vertex_is_rejected() {
        let g = host();
        let mut outcome = good_outcome();
        // Vertex 3 (label 4) moved to host vertex 8 (label 9).
        outcome.patterns[0].embeddings[0][3] = VertexId(8);
        let err = check_outcome(&Host::new(&g), &outcome, 2).unwrap_err();
        assert!(err.contains("label"), "{err}");
        // Moved to another label-4 vertex that breaks the tail edge.
        let mut outcome = good_outcome();
        outcome.patterns[0].embeddings[0][3] = VertexId(7);
        let err = check_outcome(&Host::new(&g), &outcome, 2).unwrap_err();
        assert!(err.contains("edge"), "{err}");
        // Two pattern vertices on one host vertex.
        let mut outcome = good_outcome();
        outcome.patterns[1].embeddings[1] = ids(&[0, 0]);
        assert!(check_outcome(&Host::new(&g), &outcome, 2).is_err());
    }

    #[test]
    fn an_inflated_support_is_rejected() {
        let g = host();
        let mut outcome = good_outcome();
        outcome.patterns[0].support = 3;
        let err = check_outcome(&Host::new(&g), &outcome, 2).unwrap_err();
        assert!(err.contains("support"), "{err}");
        // A support below sigma is rejected even when it is reported honestly.
        let mut outcome = good_outcome();
        outcome.patterns[1].embeddings.pop();
        outcome.patterns[1].support = 1;
        assert!(check_outcome(&Host::new(&g), &outcome, 2).is_err());
    }

    #[test]
    fn a_planted_pattern_missing_one_edge_is_not_recovered() {
        let mut outcome = good_outcome();
        outcome.patterns[0].pattern =
            LabeledGraph::from_parts(&[1, 2, 3, 4].map(Label), &[(0, 1), (1, 2), (2, 3)]);
        let err = check_planted(&outcome.patterns, &tailed_triangle()).unwrap_err();
        assert!(err.contains("planted"), "{err}");
    }

    #[test]
    fn a_duplicated_pattern_is_rejected() {
        let g = host();
        let mut outcome = good_outcome();
        // An isomorphic copy with its vertices renumbered.
        let relabeled =
            LabeledGraph::from_parts(&[4, 3, 2, 1].map(Label), &[(3, 2), (2, 1), (3, 1), (1, 0)]);
        outcome.patterns.insert(
            1,
            StreamedPattern {
                pattern: relabeled,
                support: 2,
                embeddings: vec![ids(&[3, 2, 1, 0]), ids(&[7, 6, 5, 4])],
            },
        );
        let err = check_outcome(&Host::new(&g), &outcome, 2).unwrap_err();
        assert!(err.contains("isomorphic"), "{err}");
    }

    #[test]
    fn patterns_out_of_size_order_are_rejected() {
        let g = host();
        let mut outcome = good_outcome();
        outcome.patterns.swap(0, 1);
        let err = check_outcome(&Host::new(&g), &outcome, 2).unwrap_err();
        assert!(err.contains("edges"), "{err}");
    }

    #[test]
    fn flags_of_a_wound_down_run_are_rejected() {
        let g = host();
        let corruptions: [fn(&mut MineOutcome); 3] = [
            |o| o.cancelled = true,
            |o| o.timed_out = true,
            |o| o.dropped_embeddings = 1,
        ];
        for corrupt in corruptions {
            let mut outcome = good_outcome();
            corrupt(&mut outcome);
            assert!(check_outcome(&Host::new(&g), &outcome, 2).is_err());
        }
    }

    #[test]
    fn the_matcher_separates_equal_invariants() {
        // Two 6-cycles' worth of edges with equal (label, degree) sequences:
        // one 6-cycle against two triangles.
        let labels = [0; 6].map(Label);
        let hexagon =
            LabeledGraph::from_parts(&labels, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let triangles =
            LabeledGraph::from_parts(&labels, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(!isomorphic(&hexagon, &triangles));
        let rotated =
            LabeledGraph::from_parts(&labels, &[(1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 1)]);
        assert!(isomorphic(&hexagon, &rotated));
        // A different outcome order is a difference.
        let mut other = good_outcome();
        other.patterns[0].embeddings.swap(0, 1);
        assert!(same_patterns(&good_outcome().patterns, &other.patterns).is_err());
    }
}
