//! Answer checking against the sequential reference CSR.
//!
//! The reference is `Csr::from_edge_list_sequential` over the generated
//! edges, so it shares no code with the parallel build, the packer, the
//! file format or the query kernels under test. Every check runs outside
//! the timed intervals and returns the number of wrong answers.

use parcsr::{BitPackedCsr, Csr};
use parcsr_graph::{EdgeList, NodeId};

/// The reference for a generated graph. The node count is inferred from the
/// largest id, as the SNAP parser does for the same edges.
pub fn reference(generated: &EdgeList) -> Csr {
    Csr::from_edge_list_sequential(&EdgeList::from_pairs(generated.edges().to_vec()))
}

/// Wrong answers among neighborhood queries (Algorithm 6).
pub fn neighbors(reference: &Csr, queries: &[NodeId], answers: &[Vec<NodeId>]) -> u64 {
    if answers.len() != queries.len() {
        return queries.len() as u64;
    }
    queries
        .iter()
        .zip(answers)
        .filter(|&(&u, row)| !in_range(reference, u) || row.as_slice() != reference.neighbors(u))
        .count() as u64
}

/// Wrong answers among edge-existence queries (Algorithms 7 and 8).
pub fn edges(reference: &Csr, queries: &[(NodeId, NodeId)], answers: &[bool]) -> u64 {
    if answers.len() != queries.len() {
        return queries.len() as u64;
    }
    queries
        .iter()
        .zip(answers)
        .filter(|&(&(u, v), &hit)| !in_range(reference, u) || hit != reference.has_edge(u, v))
        .count() as u64
}

/// Whether a loaded packed CSR decodes to exactly the reference: same node
/// and edge counts and the same row for every node.
pub fn loaded(reference: &Csr, packed: &BitPackedCsr) -> bool {
    packed.num_nodes() == reference.num_nodes()
        && packed.num_edges() == reference.num_edges()
        && (0..reference.num_nodes() as NodeId).all(|u| {
            packed
                .row_iter(u)
                .eq(reference.neighbors(u).iter().copied())
        })
}

fn in_range(reference: &Csr, u: NodeId) -> bool {
    (u as usize) < reference.num_nodes()
}

/// Row entries a query decodes: the whole row for a neighborhood or split
/// query, and for an edge probe on a gap-coded row the prefix up to the
/// first neighbor `>= v` (the probe's early exit).
pub fn decoded_by_probe(reference: &Csr, u: NodeId, v: NodeId) -> u64 {
    let row = reference.neighbors(u);
    (row.partition_point(|&w| w < v) + 1).min(row.len()) as u64
}

/// A deliberately wrong reference for tests: every target of `reference`
/// moved to the next node id, so rows keep their degrees but not their
/// contents.
#[cfg(test)]
pub(crate) fn shifted(reference: &Csr) -> Csr {
    let n = reference.num_nodes() as NodeId;
    let edges = (0..n)
        .flat_map(|u| {
            reference
                .neighbors(u)
                .iter()
                .map(move |&v| (u, (v + 1) % n))
        })
        .collect();
    Csr::from_edge_list_sequential(&EdgeList::new(n as usize, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr::{CsrBuilder, PackedCsrMode};

    fn small() -> (Csr, BitPackedCsr) {
        let g = EdgeList::new(4, vec![(0, 1), (0, 3), (2, 0), (3, 3)]);
        let csr = reference(&g);
        let packed = BitPackedCsr::from_csr(&CsrBuilder::new().build(&g), PackedCsrMode::Gap, 2);
        (csr, packed)
    }

    #[test]
    fn right_answers_pass_and_wrong_ones_are_counted() {
        let (csr, packed) = small();
        assert!(loaded(&csr, &packed));
        assert_eq!(neighbors(&csr, &[0, 1], &[vec![1, 3], vec![]]), 0);
        assert_eq!(neighbors(&csr, &[0, 1], &[vec![1], vec![]]), 1);
        assert_eq!(neighbors(&csr, &[0, 1], &[vec![1, 3]]), 2);
        assert_eq!(edges(&csr, &[(0, 3), (1, 0)], &[true, false]), 0);
        assert_eq!(edges(&csr, &[(0, 3), (1, 0)], &[false, false]), 1);
        assert_eq!(edges(&csr, &[(9, 0)], &[false]), 1);
    }

    #[test]
    fn a_wrong_reference_fails_the_load_check() {
        let (_, packed) = small();
        let wrong = reference(&EdgeList::new(4, vec![(0, 1), (0, 2), (2, 0), (3, 3)]));
        assert!(!loaded(&wrong, &packed));
    }

    #[test]
    fn probe_decode_counts_stop_at_the_target() {
        let (csr, _) = small();
        assert_eq!(decoded_by_probe(&csr, 0, 0), 1);
        assert_eq!(decoded_by_probe(&csr, 0, 3), 2);
        assert_eq!(decoded_by_probe(&csr, 0, 9), 2);
        assert_eq!(decoded_by_probe(&csr, 1, 0), 0);
    }
}
