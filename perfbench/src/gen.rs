//! Seeded inputs: the two graphs and the query streams.
//!
//! Everything here is a function of `--seed` (and `--scale`): the same seed
//! gives the same graph and the same queries.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::Csr;
use parcsr_graph::datasets::paper_datasets;
use parcsr_graph::{EdgeList, NodeId};

/// The LiveJournal stand-in is synthesized at this share of the published
/// size (≈303 k nodes, 4.31 M edges at `--scale 1`).
pub const LIVEJOURNAL_SHARE: f64 = 1.0 / 16.0;

/// Rows counted as hub rows: the highest-degree ones. The hub graph plants
/// exactly this many.
pub const HUB_ROWS: usize = 64;

/// Rows below this degree are low-degree rows (the `Low` class of the
/// serving telemetry).
pub const LOW_DEGREE_MAX: usize = 32;

/// Hub-graph shape at `--scale 1`: 200 k nodes emitting 5 edges each, plus
/// 64 hub rows of 16 000 edges (50.6% of the 2.02 M edges).
const HUB_NODES: f64 = 200_000.0;
const HUB_PER_NODE: u32 = 5;
const HUB_DEGREE: f64 = 16_000.0;

/// The R-MAT stand-in for the LiveJournal profile of Table II.
pub fn livejournal(scale: f64, seed: u64) -> EdgeList {
    let profile = paper_datasets()
        .into_iter()
        .find(|d| d.name == "LiveJournal")
        .expect("LiveJournal is one of the paper's datasets");
    profile.synthesize(LIVEJOURNAL_SHARE * scale, seed)
}

/// The skewed hub graph of the serving experiments, with every random
/// choice drawn from `seed`: the hub ids, where each hub's run of targets
/// starts, and every ordinary edge's target.
pub fn hub_graph(scale: f64, seed: u64) -> EdgeList {
    let nodes = ((HUB_NODES * scale) as u32).max(2 * HUB_ROWS as u32);
    let hub_degree = ((HUB_DEGREE * scale) as u32).clamp(16, nodes - 1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6875_6267_7261_7068);
    let mut hubs: Vec<NodeId> = Vec::with_capacity(HUB_ROWS);
    while hubs.len() < HUB_ROWS {
        let h = rng.gen_range(0..nodes);
        if !hubs.contains(&h) {
            hubs.push(h);
        }
    }
    let mut edges =
        Vec::with_capacity((nodes * HUB_PER_NODE) as usize + HUB_ROWS * hub_degree as usize);
    for u in 0..nodes {
        for _ in 0..HUB_PER_NODE {
            edges.push((u, rng.gen_range(0..nodes)));
        }
    }
    for &h in &hubs {
        let start = rng.gen_range(0..nodes);
        edges.extend((0..hub_degree).map(|i| (h, (start + i) % nodes)));
    }
    EdgeList::new(nodes as usize, edges)
}

/// The `HUB_ROWS` highest-degree rows, highest first (ties by id), leaving
/// out empty rows.
pub fn hub_rows(reference: &Csr) -> Vec<NodeId> {
    let mut ranks = degree_ranks(reference);
    ranks.truncate(HUB_ROWS);
    ranks.retain(|&u| reference.degree(u) > 0);
    ranks
}

/// Every node, highest degree first (ties by id): rank r is `ranks[r]`.
pub fn degree_ranks(reference: &Csr) -> Vec<NodeId> {
    let mut ranks: Vec<NodeId> = (0..reference.num_nodes() as NodeId).collect();
    ranks.sort_by_key(|&u| (std::cmp::Reverse(reference.degree(u)), u));
    ranks
}

/// A uniformly random node with at least one neighbor.
fn non_isolated(rng: &mut SmallRng, reference: &Csr) -> NodeId {
    let n = reference.num_nodes() as NodeId;
    loop {
        let u = rng.gen_range(0..n);
        if reference.degree(u) > 0 {
            return u;
        }
    }
}

/// An edge of the reference with a uniformly random non-isolated source.
pub fn present_edge(rng: &mut SmallRng, reference: &Csr) -> (NodeId, NodeId) {
    let u = non_isolated(rng, reference);
    present_edge_from(rng, reference, u)
}

/// A random edge of `u`, which must have a neighbor.
pub fn present_edge_from(rng: &mut SmallRng, reference: &Csr, u: NodeId) -> (NodeId, NodeId) {
    let row = reference.neighbors(u);
    (u, row[rng.gen_range(0..row.len())])
}

/// A pair from `u` that is not an edge of the reference.
pub fn absent_edge_from(rng: &mut SmallRng, reference: &Csr, u: NodeId) -> (NodeId, NodeId) {
    let n = reference.num_nodes() as NodeId;
    loop {
        let v = rng.gen_range(0..n);
        if !reference.has_edge(u, v) {
            return (u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_graph_follows_its_seed() {
        let a = hub_graph(0.01, 1);
        assert_eq!(a, hub_graph(0.01, 1));
        assert_ne!(a, hub_graph(0.01, 2));
        // 2000 nodes * 5 ordinary edges + 64 hubs * 160.
        assert_eq!(a.num_edges(), 2000 * 5 + 64 * 160);
        let csr = Csr::from_edge_list_sequential(&a);
        let hubs = hub_rows(&csr);
        assert!(hubs.iter().all(|&h| csr.degree(h) >= 160));
    }

    #[test]
    fn livejournal_follows_its_seed() {
        let a = livejournal(0.01, 1);
        assert_eq!(a, livejournal(0.01, 1));
        assert_ne!(a, livejournal(0.01, 2));
    }

    #[test]
    fn edge_pickers_agree_with_the_reference() {
        let csr = Csr::from_edge_list_sequential(&livejournal(0.01, 3));
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let (u, v) = present_edge(&mut rng, &csr);
            assert!(csr.has_edge(u, v));
            let (u, v) = absent_edge_from(&mut rng, &csr, u);
            assert!(!csr.has_edge(u, v));
        }
    }
}
