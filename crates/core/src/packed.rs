//! Algorithm 4: the bit-packed CSR.
//!
//! Both CSR arrays are compressed with the fixed-width codec of Gopal et al.
//! \[7\], chunk-parallel with a bit-array merge (`parcsr_bitpack::parallel`):
//!
//! * the offset array `iA` packs at `⌈log2(m+1)⌉` bits per entry;
//! * the column array `jA` packs at `⌈log2(n)⌉` bits per entry in
//!   [`PackedCsrMode::Raw`], or — in [`PackedCsrMode::Gap`] — each row is
//!   first gap-coded (head absolute, tail as consecutive differences), which
//!   lowers the uniform width on clustered neighbor lists.
//!
//! Because every `jA` element occupies the same number of bits, row `u`
//! starts at bit `offsets[u] · width` — the property `GetRowFromCSR` \[28\]
//! needs to extract a row straight out of the bit array without touching
//! anything else. That extraction is [`BitPackedCsr::row_into`].

use rayon::prelude::*;

use parcsr_bitpack::{bits_needed, pack_parallel_with_width, GapDecode, PackedArray, RowCursor};
use parcsr_graph::NodeId;
use parcsr_runtime::{plan, run_chunked, split_mut_by_ranges, Chunk};

use crate::build::Csr;

/// How the column array is transformed before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedCsrMode {
    /// Pack absolute neighbor ids.
    Raw,
    /// Gap-code each row (head absolute, tail as differences), then pack.
    /// Same O(1) row addressing; decoding a row is a running sum.
    Gap,
}

impl PackedCsrMode {
    /// Stable name for bench output.
    pub fn name(self) -> &'static str {
        match self {
            PackedCsrMode::Raw => "raw",
            PackedCsrMode::Gap => "gap",
        }
    }
}

/// A CSR with both arrays bit-packed (the output of Algorithm 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedCsr {
    num_nodes: usize,
    num_edges: usize,
    mode: PackedCsrMode,
    /// Packed `iA`: `num_nodes + 1` row offsets.
    offsets: PackedArray,
    /// Packed `jA`: `num_edges` entries (absolute or gap-coded per row).
    columns: PackedArray,
}

impl BitPackedCsr {
    /// Packs a CSR using `processors` parallel packers per array
    /// (Algorithm 4 runs the bit-pack once for `iA` and once for `jA`),
    /// splitting the gap encode by edge count so hub rows spread across
    /// workers instead of dragging one chunk. The output is byte-identical
    /// across processor counts.
    pub fn from_csr(csr: &Csr, mode: PackedCsrMode, processors: usize) -> Self {
        parcsr_obs::span!("pack", edges = csr.num_edges() as u64);
        let offset_width = bits_needed(csr.num_edges() as u64);
        let offsets = parcsr_obs::with_span_args(
            "pack.offsets",
            parcsr_obs::SpanArgs::new().bits(offset_width),
            || pack_parallel_with_width(csr.offsets(), processors, offset_width),
        );

        let column_values: Vec<u64> = parcsr_obs::with_span_args(
            "pack.encode",
            parcsr_obs::SpanArgs::new().edges(csr.num_edges() as u64),
            || match mode {
                PackedCsrMode::Raw => csr.targets().par_iter().map(|&v| u64::from(v)).collect(),
                PackedCsrMode::Gap => {
                    // Gap-code rows in parallel edge-weighted chunks. Rows
                    // are whole within a chunk, so the output slice splits
                    // cleanly at chunk edge boundaries.
                    let mut out = vec![0u64; csr.num_edges()];
                    let plan = plan(csr.offsets(), processors);
                    let edge_ranges: Vec<std::ops::Range<usize>> = plan
                        .iter()
                        .map(|c| {
                            csr.offsets()[c.range.start] as usize
                                ..csr.offsets()[c.range.end] as usize
                        })
                        .collect();
                    let slices = split_mut_by_ranges(&mut out, &edge_ranges);
                    let work: Vec<(Chunk, &mut [u64])> = plan.into_iter().zip(slices).collect();
                    run_chunked("pack.encode.chunk", work, |chunk, slice| {
                        let base = csr.offsets()[chunk.range.start] as usize;
                        for u in chunk.range.clone() {
                            let s = csr.offsets()[u] as usize - base;
                            let neigh = csr.neighbors(u as NodeId);
                            if let Some((&head, tail)) = neigh.split_first() {
                                slice[s] = u64::from(head);
                                let mut prev = head;
                                for (slot, &v) in slice[s + 1..s + neigh.len()].iter_mut().zip(tail)
                                {
                                    *slot = u64::from(v - prev);
                                    prev = v;
                                }
                            }
                        }
                    });
                    out
                }
            },
        );

        let columns = parcsr_obs::with_span_args(
            "pack.columns",
            parcsr_obs::SpanArgs::new().edges(csr.num_edges() as u64),
            || {
                let col_width = bits_needed(column_values.iter().copied().max().unwrap_or(0));
                pack_parallel_with_width(&column_values, processors, col_width)
            },
        );

        BitPackedCsr {
            num_nodes: csr.num_nodes(),
            num_edges: csr.num_edges(),
            mode,
            offsets,
            columns,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Packing mode of the column array.
    pub fn mode(&self) -> PackedCsrMode {
        self.mode
    }

    /// Out-degree of `u`, read from the packed offset array.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        (self.offsets.get(i + 1) - self.offsets.get(i)) as usize
    }

    /// `GetRowFromCSR` \[28\] as a stream: an iterator over `u`'s sorted
    /// neighbor row, decoded lazily out of the packed bit array. O(1) to
    /// create (two offset probes position a cursor at bit
    /// `offsets[u] · width`); each `next()` is one fixed-width bit read, plus
    /// the running gap sum in [`PackedCsrMode::Gap`]. No heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    // LINT: hot — per-lookup decode kernel; must stay allocation-free.
    pub fn row_iter(&self, u: NodeId) -> PackedRowIter<'_> {
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        let start = self.offsets.get(i) as usize;
        let deg = self.offsets.get(i + 1) as usize - start;
        let cursor = self.columns.range_cursor(start, deg);
        match self.mode {
            PackedCsrMode::Raw => PackedRowIter::Raw(cursor),
            PackedCsrMode::Gap => PackedRowIter::Gap(GapDecode::new(cursor)),
        }
    }

    /// `GetRowFromCSR` \[28\]: decodes `u`'s neighbor row out of the packed
    /// bit array into `out` (cleared first). O(deg(u)) bit reads starting at
    /// bit `offsets[u] · width`. The materializing counterpart of
    /// [`row_iter`](Self::row_iter).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        let _t = parcsr_obs::time_histogram(&parcsr_obs::metrics::wellknown::ROW_ITER_NS);
        let it = self.row_iter(u);
        out.clear();
        out.reserve(it.len());
        out.extend(it);
    }

    /// Allocating convenience wrapper over [`row_into`](Self::row_into).
    pub fn row(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.row_into(u, &mut out);
        out
    }

    /// Edge existence straight off the packed bit array — the primitive the
    /// query algorithms batch and split. No allocation in either mode:
    ///
    /// * [`PackedCsrMode::Raw`] rows store sorted absolute ids at a fixed
    ///   width, so the row supports O(1) random access and the probe is a
    ///   binary search of O(log deg) direct bit reads.
    /// * [`PackedCsrMode::Gap`] rows must be prefix-summed from the head, so
    ///   the probe streams the row with an early exit once the running sum
    ///   reaches `v` (rows are sorted, so the sum is non-decreasing).
    // LINT: hot — per-lookup probe kernel; must stay allocation-free.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let _t = parcsr_obs::time_histogram(&parcsr_obs::metrics::wellknown::HAS_EDGE_NS);
        let i = u as usize;
        assert!(i < self.num_nodes, "node {u} out of range");
        let start = self.offsets.get(i) as usize;
        let deg = self.offsets.get(i + 1) as usize - start;
        let target = u64::from(v);
        match self.mode {
            PackedCsrMode::Raw => {
                let (mut lo, mut hi) = (start, start + deg);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.columns.get(mid) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo < start + deg && self.columns.get(lo) == target
            }
            PackedCsrMode::Gap => {
                for w in GapDecode::new(self.columns.range_cursor(start, deg)) {
                    if w >= target {
                        return w == target;
                    }
                }
                false
            }
        }
    }

    /// Total compact size in bytes (both packed arrays).
    pub fn packed_bytes(&self) -> usize {
        self.offsets.packed_bytes() + self.columns.packed_bytes()
    }

    /// Bits per column entry.
    pub fn column_width(&self) -> u32 {
        self.columns.width()
    }

    /// Bits per offset entry.
    pub fn offset_width(&self) -> u32 {
        self.offsets.width()
    }

    /// The packed offset array (`iA`) — exposed for serialization.
    pub fn offsets_array(&self) -> &PackedArray {
        &self.offsets
    }

    /// The packed column array (`jA`) — exposed for serialization.
    pub fn columns_array(&self) -> &PackedArray {
        &self.columns
    }

    /// Reassembles a packed CSR from its parts (the deserialization path;
    /// callers must have validated the structural invariants).
    pub(crate) fn from_parts(
        num_nodes: usize,
        num_edges: usize,
        mode: PackedCsrMode,
        offsets: PackedArray,
        columns: PackedArray,
    ) -> Self {
        debug_assert_eq!(offsets.len(), num_nodes + 1);
        debug_assert_eq!(columns.len(), num_edges);
        BitPackedCsr {
            num_nodes,
            num_edges,
            mode,
            offsets,
            columns,
        }
    }

    /// Reconstructs the full CSR (used by tests to prove losslessness).
    pub fn unpack(&self) -> Csr {
        let mut edges = Vec::with_capacity(self.num_edges);
        let mut row = Vec::new();
        for u in 0..self.num_nodes {
            self.row_into(u as NodeId, &mut row);
            edges.extend(row.iter().map(|&v| (u as NodeId, v)));
        }
        let graph = parcsr_graph::EdgeList::new(self.num_nodes, edges);
        Csr::from_edge_list_sequential(&graph)
    }
}

/// Streaming iterator over one packed neighbor row (the return type of
/// [`BitPackedCsr::row_iter`]). Yields sorted absolute neighbor ids in both
/// packing modes; in [`PackedCsrMode::Gap`] the running sum is maintained
/// internally.
#[derive(Debug, Clone)]
pub enum PackedRowIter<'a> {
    /// Raw mode: the cursor yields absolute ids directly.
    Raw(RowCursor<'a>),
    /// Gap mode: the cursor yields gaps, decoded by the running-sum adapter.
    Gap(GapDecode<RowCursor<'a>>),
}

impl Iterator for PackedRowIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            PackedRowIter::Raw(c) => c.next().map(|v| v as NodeId),
            PackedRowIter::Gap(g) => g.next().map(|v| v as NodeId),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PackedRowIter::Raw(c) => c.size_hint(),
            PackedRowIter::Gap(g) => g.size_hint(),
        }
    }
}

impl ExactSizeIterator for PackedRowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    fn sample_csr() -> Csr {
        let g = rmat(RmatParams::new(512, 6_000, 21));
        CsrBuilder::new().build(&g)
    }

    #[test]
    fn roundtrip_raw_and_gap() {
        let csr = sample_csr();
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let packed = BitPackedCsr::from_csr(&csr, mode, 4);
            assert_eq!(packed.unpack(), csr, "{}", mode.name());
        }
    }

    #[test]
    fn rows_match_unpacked() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 4);
        for u in 0..csr.num_nodes() as NodeId {
            assert_eq!(packed.row(u), csr.neighbors(u), "row {u}");
            assert_eq!(packed.degree(u), csr.degree(u));
        }
    }

    #[test]
    fn has_edge_agrees_with_csr() {
        let csr = sample_csr();
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let packed = BitPackedCsr::from_csr(&csr, mode, 3);
            for u in (0..512u32).step_by(7) {
                for v in (0..512u32).step_by(11) {
                    assert_eq!(
                        packed.has_edge(u, v),
                        csr.has_edge(u, v),
                        "({u}, {v}) {}",
                        mode.name()
                    );
                }
            }
        }
    }

    #[test]
    fn packing_compresses() {
        let csr = sample_csr();
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert!(
            packed.packed_bytes() < csr.heap_bytes(),
            "{} !< {}",
            packed.packed_bytes(),
            csr.heap_bytes()
        );
        // 512 nodes -> 9-bit columns vs 32-bit raw.
        assert_eq!(packed.column_width(), 9);
    }

    #[test]
    fn gap_mode_never_wider_than_raw() {
        let csr = sample_csr();
        let raw = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        let gap = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 4);
        assert!(gap.column_width() <= raw.column_width());
    }

    #[test]
    fn processor_count_does_not_change_output() {
        let csr = sample_csr();
        let base = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 1);
        for p in [2, 3, 8, 64] {
            assert_eq!(BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, p), base);
        }
    }

    #[test]
    fn chunking_policy_does_not_change_output() {
        // A hub row makes the edge-weighted plan split rows unevenly, so
        // chunk seams land somewhere a row-count split would not put them.
        let csr = sample_csr();
        let by_edges: Vec<_> = plan(csr.offsets(), 8)
            .into_iter()
            .map(|c| c.range)
            .collect();
        assert_ne!(by_edges, parcsr_runtime::chunk_ranges(csr.num_nodes(), 8));
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let base = BitPackedCsr::from_csr(&csr, mode, 1);
            assert_eq!(base.unpack(), csr, "{mode:?}");
            for p in [2, 3, 8, 64] {
                assert_eq!(
                    BitPackedCsr::from_csr(&csr, mode, p),
                    base,
                    "{mode:?} p={p}"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 4);
        assert_eq!(packed.num_nodes(), 0);
        assert_eq!(packed.num_edges(), 0);
    }

    #[test]
    fn graph_with_empty_rows() {
        let g = EdgeList::new(8, vec![(1, 7), (1, 2), (6, 0)]);
        let csr = CsrBuilder::new().build(&g);
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let packed = BitPackedCsr::from_csr(&csr, mode, 4);
            assert!(packed.row(0).is_empty());
            assert_eq!(packed.row(1), [2, 7]);
            assert!(packed.row(5).is_empty());
            assert_eq!(packed.row(6), [0]);
            assert_eq!(packed.degree(7), 0);
        }
    }

    #[test]
    fn duplicate_neighbors_roundtrip_in_gap_mode() {
        // Multigraph row [3, 3] gives a zero gap.
        let g = EdgeList::new(5, vec![(0, 3), (0, 3), (0, 4)]);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 2);
        assert_eq!(packed.row(0), [3, 3, 4]);
        assert!(packed.has_edge(0, 3));
    }

    #[test]
    fn single_node_self_loop() {
        let g = EdgeList::new(1, vec![(0, 0)]);
        let csr = CsrBuilder::new().build(&g);
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, 2);
        assert_eq!(packed.row(0), [0]);
        assert!(packed.has_edge(0, 0));
    }
}
