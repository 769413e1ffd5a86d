//! Property tests for the graph substrate.

use std::io::Cursor;

use proptest::prelude::*;

use parcsr_graph::io::{
    read_edge_list, read_temporal_edge_list, write_edge_list, write_temporal_edge_list,
};
use parcsr_graph::{EdgeList, TemporalEdge, TemporalEdgeList};

fn arb_edges(max_node: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_len)
}

proptest! {
    #[test]
    fn io_roundtrip(edges in arb_edges(10_000, 300)) {
        let g = EdgeList::from_pairs(edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn sort_is_permutation(edges in arb_edges(1_000, 300)) {
        let g = EdgeList::from_pairs(edges.clone());
        let sorted = g.sorted_by_source();
        prop_assert!(sorted.is_sorted_by_source());
        let mut a = edges;
        a.sort_unstable();
        prop_assert_eq!(sorted.edges(), &a[..]);
    }

    #[test]
    fn degrees_sum_to_edge_count(edges in arb_edges(500, 400)) {
        let g = EdgeList::from_pairs(edges);
        let degrees = g.degrees_sequential();
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(total as usize, g.num_edges());
    }

    #[test]
    fn symmetrized_contains_both_directions(edges in arb_edges(200, 100)) {
        let g = EdgeList::from_pairs(edges);
        let s = g.symmetrized();
        for &(u, v) in g.edges() {
            prop_assert!(s.edges().contains(&(u, v)));
            if u != v {
                prop_assert!(s.edges().contains(&(v, u)));
            }
        }
    }

    #[test]
    fn temporal_io_roundtrip(
        events in prop::collection::vec((0u32..500, 0u32..500, 0u32..50), 0..200)
    ) {
        let evs: Vec<TemporalEdge> = events.iter().map(|&(u, v, t)| TemporalEdge::new(u, v, t)).collect();
        let num_nodes = if evs.is_empty() { 0 } else { 500 };
        let tl = TemporalEdgeList::new(num_nodes, evs);
        let mut buf = Vec::new();
        write_temporal_edge_list(&tl, &mut buf).unwrap();
        let back = read_temporal_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.events(), tl.events());
    }

    #[test]
    fn snapshot_parity_is_consistent_with_manual_replay(
        events in prop::collection::vec((0u32..20, 0u32..20, 0u32..8), 0..120),
        query_t in 0u32..8,
    ) {
        let evs: Vec<TemporalEdge> = events.iter().map(|&(u, v, t)| TemporalEdge::new(u, v, t)).collect();
        let tl = TemporalEdgeList::new(20, evs.clone());
        let snap = tl.snapshot_at(query_t);
        // Manual parity count per edge.
        for u in 0..20u32 {
            for v in 0..20u32 {
                let count = evs.iter().filter(|e| e.u == u && e.v == v && e.t <= query_t).count();
                let active = snap.binary_search(&(u, v)).is_ok();
                prop_assert_eq!(active, count % 2 == 1, "edge ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn text_bytes_matches_actual_rendering(edges in arb_edges(100_000, 150)) {
        let g = EdgeList::from_pairs(edges);
        let actual: usize = g
            .edges()
            .iter()
            .map(|&(u, v)| format!("{u}\t{v}\n").len())
            .sum();
        prop_assert_eq!(g.text_bytes(), actual);
    }
}
