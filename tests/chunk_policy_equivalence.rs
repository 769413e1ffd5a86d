//! Chunk-plan equivalence: every build and query path that splits its work
//! with the edge-weighted plan must produce output bit-identical to the
//! sequential reference (`Csr::from_edge_list_sequential`, the sequential
//! degree histogram and the sequential scan) at every chunk count — the
//! property that makes the split a pure load-balance choice. The test names
//! keep the word "policy" for the chunking rule, which is now that one plan.
//!
//! The generator is skew-biased on purpose: graphs can carry hub rows
//! (one node owning most edges), duplicate edges (multigraph rows), and
//! empty-node headroom, the three shapes where a weighted plan diverges
//! most from a count split.

use proptest::prelude::*;

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{degrees_parallel, BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};
use parcsr_scan::exclusive_scan_seq;
use parcsr_temporal::TcsrBuilder;

/// The sweep the acceptance criteria pin: serial, small, odd, and
/// oversubscribed chunk counts.
const SWEEP: [usize; 4] = [1, 2, 7, 64];

/// Random edges plus up to two hub rows and a run of duplicate edges —
/// skew and multigraph rows in one generator. Can come out empty.
fn arb_skewed_graph() -> impl Strategy<Value = EdgeList> {
    (
        1u32..120,
        prop::collection::vec((0u32..120, 0u32..120), 0..250),
        0usize..3,
        0usize..100,
        0usize..20,
    )
        .prop_map(|(n_extra, edges, hubs, hub_degree, duplicates)| {
            let n = edges
                .iter()
                .map(|&(u, v)| u.max(v) + 1)
                .max()
                .unwrap_or(0)
                .max(n_extra);
            let mut edges: Vec<(NodeId, NodeId)> =
                edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            for hub in 0..hubs as u32 {
                let hub = hub % n;
                edges.extend((0..hub_degree).map(|i| (hub, i as u32 % n)));
            }
            if let Some(&(u, v)) = edges.first() {
                edges.extend(std::iter::repeat_n((u, v), duplicates));
            }
            EdgeList::new(n as usize, edges)
        })
}

fn build(g: &EdgeList, p: usize) -> Csr {
    CsrBuilder::new().processors(p).build(g)
}

/// The row offsets as the sequential scan computes them: the exclusive
/// prefix sum of the degree histogram followed by the edge total.
fn sequential_offsets(g: &EdgeList) -> Vec<u64> {
    let mut offsets: Vec<u64> = g
        .degrees_sequential()
        .iter()
        .map(|&d| u64::from(d))
        .collect();
    exclusive_scan_seq(&mut offsets);
    offsets.push(g.num_edges() as u64);
    offsets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction (degree + scan + scatter) matches the sequential
    /// constructor, and its offsets the sequential scan, at every chunk
    /// count.
    #[test]
    fn csr_build_is_policy_invariant(g in arb_skewed_graph()) {
        let want = Csr::from_edge_list_sequential(&g);
        let offsets = sequential_offsets(&g);
        for p in SWEEP {
            let got = build(&g, p);
            prop_assert_eq!(got.offsets(), &offsets[..], "offsets p={}", p);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }

    /// The parallel degree pass feeding the scan agrees with the
    /// sequential histogram at every chunk count.
    #[test]
    fn degree_pass_is_policy_invariant(g in arb_skewed_graph()) {
        let sorted = g.sorted_by_source();
        let want = g.degrees_sequential();
        for p in SWEEP {
            prop_assert_eq!(
                degrees_parallel(sorted.edges(), sorted.num_nodes(), p),
                want.clone(),
                "p={}", p
            );
        }
    }

    /// Bit-packed compression of the sequential CSR decodes back to it in
    /// both modes, and is byte-identical at every chunk count.
    #[test]
    fn packed_build_is_policy_invariant(g in arb_skewed_graph()) {
        let csr = Csr::from_edge_list_sequential(&g);
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let want = BitPackedCsr::from_csr(&csr, mode, 1);
            for u in 0..csr.num_nodes() as NodeId {
                prop_assert_eq!(&want.row(u)[..], csr.neighbors(u), "mode={} u={}", mode.name(), u);
            }
            for p in SWEEP {
                prop_assert_eq!(
                    &BitPackedCsr::from_csr(&csr, mode, p),
                    &want,
                    "mode={} p={}", mode.name(), p
                );
            }
        }
    }

    /// TCSR construction (events split by the count plan) is identical at
    /// every chunk count.
    #[test]
    fn tcsr_build_is_policy_invariant(
        events in prop::collection::vec((0u32..40, 0u32..40, 0u32..12), 0..300)
    ) {
        let events = TemporalEdgeList::new(
            40,
            events.into_iter().map(|(u, v, t)| TemporalEdge::new(u, v, t)).collect(),
        );
        let want = TcsrBuilder::new().processors(1).build(&events);
        for p in SWEEP {
            let got = TcsrBuilder::new().processors(p).build(&events);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }

    /// Query batches — neighborhoods and both edge-existence drivers — on
    /// the plain and the packed CSR answer what the sequential CSR answers
    /// directly, including batches front-loaded with hub queries.
    #[test]
    fn query_batches_are_policy_invariant(g in arb_skewed_graph()) {
        let reference = Csr::from_edge_list_sequential(&g);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 4);
        let n = csr.num_nodes() as u32;
        // Hub-first query order maximizes the divergence between a count
        // split and the weighted split.
        let mut neighbor_queries: Vec<NodeId> = (0..n).collect();
        neighbor_queries.sort_by_key(|&u| std::cmp::Reverse(csr.degree(u)));
        let edge_queries: Vec<(NodeId, NodeId)> = neighbor_queries
            .iter()
            .map(|&u| (u, (u.wrapping_mul(31).wrapping_add(1)) % n.max(1)))
            .collect();

        let want_rows: Vec<Vec<NodeId>> = neighbor_queries
            .iter()
            .map(|&u| reference.neighbors(u).to_vec())
            .collect();
        let want_exist: Vec<bool> = edge_queries
            .iter()
            .map(|&(u, v)| reference.has_edge(u, v))
            .collect();
        for p in SWEEP {
            prop_assert_eq!(
                &neighbors_batch(&csr, &neighbor_queries, p),
                &want_rows, "csr neighbors p={}", p
            );
            prop_assert_eq!(
                &neighbors_batch(&packed, &neighbor_queries, p),
                &want_rows, "packed neighbors p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch(&csr, &edge_queries, p),
                &want_exist, "csr exist p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch(&packed, &edge_queries, p),
                &want_exist, "packed exist p={}", p
            );
            prop_assert_eq!(
                &edges_exist_batch_binary(&packed, &edge_queries, p),
                &want_exist, "packed binary p={}", p
            );
        }
    }
}

/// The pinned degenerate shapes, outside proptest so they always run
/// exactly: empty graph, pure hub, duplicate-only rows.
#[test]
fn pinned_degenerate_graphs_are_policy_invariant() {
    let hub: Vec<(NodeId, NodeId)> = (0..500).map(|v| (0, v % 64)).collect();
    let graphs = [
        EdgeList::new(0, vec![]),
        EdgeList::new(64, vec![]),
        EdgeList::new(64, hub),
        EdgeList::new(3, vec![(1, 2); 40]),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let want = Csr::from_edge_list_sequential(g);
        for p in SWEEP {
            let csr = build(g, p);
            assert_eq!(csr, want, "graph {i} p={p}");
            let queries: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
            let rows = neighbors_batch(&csr, &queries, p);
            for (u, row) in queries.iter().zip(&rows) {
                assert_eq!(row, want.neighbors(*u), "graph {i} p={p} u={u}");
            }
        }
    }
}
