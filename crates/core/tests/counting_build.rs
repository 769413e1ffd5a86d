//! Differential tests for the CSR build's two paths: input sorted by
//! `(source, target)` takes the paper's Algorithms 2–3, any other order the
//! count → scatter → per-row sort path. Both must equal the sequential
//! reference and give byte-identical `.pcsr` files.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::{Edge, EdgeList};

const PROCESSORS: [usize; 4] = [1, 2, 7, 64];

/// The order the edges reach the builder in.
#[derive(Debug, Clone, Copy)]
enum Order {
    Shuffled,
    /// Sorted by `(source, target)`: the paper's path.
    Presorted,
    /// Sorted by source only, targets still shuffled within each row.
    SourceOnly,
}

const ORDERS: [Order; 3] = [Order::Shuffled, Order::Presorted, Order::SourceOnly];

fn shuffle(edges: &mut [Edge], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
}

fn arranged(graph: &EdgeList, order: Order, seed: u64) -> EdgeList {
    let mut edges = graph.edges().to_vec();
    shuffle(&mut edges, seed);
    match order {
        Order::Shuffled => {}
        Order::Presorted => edges.sort_unstable(),
        // Stable, so each row keeps its shuffled target order.
        Order::SourceOnly => edges.sort_by_key(|&(u, _)| u),
    }
    EdgeList::new(graph.num_nodes(), edges)
}

/// A graph over `nodes` nodes followed by `isolated` trailing nodes with no
/// edges: random pairs, one hub row holding `hub` edges (long enough to
/// straddle many chunks at p = 64), `dups` repeated edges and `loops`
/// self-loops. Every count may be zero, so the edge list may be empty.
fn arb_graph() -> impl Strategy<Value = (EdgeList, u64)> {
    (
        (1u32..80, 0usize..20),
        prop::collection::vec((0u32..80, 0u32..80), 0..300),
        (0usize..600, 0usize..40, 0usize..20),
        any::<u64>(),
    )
        .prop_map(|((nodes, isolated), pairs, (hub, dups, loops), seed)| {
            let mut edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(u, v)| (u % nodes, v % nodes))
                .collect();
            let h = (seed % u64::from(nodes)) as u32;
            edges.extend((0..hub as u32).map(|j| (h, (j * 7) % nodes)));
            if !edges.is_empty() {
                let len = edges.len();
                edges.extend((0..dups).map(|i| edges[i * 13 % len]).collect::<Vec<_>>());
            }
            edges.extend((0..loops as u32).map(|k| (k % nodes, k % nodes)));
            (EdgeList::new(nodes as usize + isolated, edges), seed)
        })
}

fn pcsr_bytes(csr: &Csr, mode: PackedCsrMode, p: usize) -> Vec<u8> {
    let mut out = Vec::new();
    BitPackedCsr::from_csr(csr, mode, p)
        .write_to(&mut out)
        .expect("writing to a Vec cannot fail");
    out
}

fn assert_every_order_matches(graph: &EdgeList, seed: u64) {
    let want = Csr::from_edge_list_sequential(graph);
    for order in ORDERS {
        let input = arranged(graph, order, seed);
        for p in PROCESSORS {
            let got = CsrBuilder::new().processors(p).build(&input);
            assert_eq!(got.validate(), Ok(()), "{order:?} p={p}");
            assert_eq!(got, want, "{order:?} p={p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_equals_sequential_reference_in_every_order((graph, seed) in arb_graph()) {
        assert_every_order_matches(&graph, seed);
    }
}

#[test]
fn empty_and_edgeless_graphs() {
    assert_every_order_matches(&EdgeList::new(0, vec![]), 1);
    assert_every_order_matches(&EdgeList::new(9, vec![]), 2);
    assert_every_order_matches(&EdgeList::new(9, vec![(3, 3)]), 3);
}

/// A shuffled copy and a presorted copy of one graph must give the same
/// `.pcsr` file, byte for byte, in both packing modes.
#[test]
fn shuffled_and_presorted_inputs_write_identical_pcsr() {
    let graph = rmat(RmatParams::new(1 << 10, 20_000, 11));
    let presorted = graph.sorted_by_source();
    let shuffled = arranged(&graph, Order::Shuffled, 99);
    assert!(!shuffled.is_sorted_by_source());
    for p in [1, 2, 7] {
        let a = CsrBuilder::new().processors(p).build(&presorted);
        let b = CsrBuilder::new().processors(p).build(&shuffled);
        for mode in [PackedCsrMode::Gap, PackedCsrMode::Raw] {
            let (a, b) = (pcsr_bytes(&a, mode, p), pcsr_bytes(&b, mode, p));
            assert!(a == b, "{} p={p}: .pcsr bytes differ", mode.name());
        }
    }
}
