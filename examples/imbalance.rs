//! Load-imbalance study on a skewed hub graph.
//!
//! The graph is adversarial on purpose: a block of 64 hub rows carries
//! about half of all edges, so an equal-rows split hands one worker the
//! whole hub block plus its share of ordinary rows while the rest finish
//! early and idle at the join. An edge-count split spreads the hub block
//! across workers.
//!
//! The study has two parts:
//!
//! 1. **Split skew** (deterministic, needs no tracing): per-chunk edge
//!    max/mean of the two runtime splitters — `chunk_ranges` (near-equal
//!    row counts) vs. `chunk_ranges_by_prefix_sum` (near-equal edge
//!    counts, the split every row-chunked stage uses) — on the hub graph's
//!    CSR offsets and on the degree prefix of a hub-heavy Algorithm 6/7
//!    query batch.
//! 2. **Per-stage utilization** under that one plan: the build, pack and
//!    query stages measured with `parcsr_obs::analyze`.
//!
//! ```text
//! cargo run --release -p parcsr --features parcsr-obs/enabled --example imbalance
//! ```
//!
//! Without the obs feature part 1 still prints, but no spans are recorded
//! and part 2 has nothing to report. Measured results are recorded in
//! EXPERIMENTS.md ("Chunk-policy imbalance study").

use std::ops::Range;
use std::time::Instant;

use parcsr::query::{edges_exist_batch_binary, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId};
use parcsr_obs::analyze::{analyze_records, TraceAnalysis};
use parcsr_runtime::{chunk_ranges, chunk_ranges_by_prefix_sum};

/// Nodes in the graph.
const NODES: u32 = 200_000;
/// Out-degree of every ordinary node.
const PER_NODE: u32 = 5;
/// Hub rows (nodes `0..HUB_ROWS`), packed at the front of row space.
const HUB_ROWS: u32 = 64;
/// Extra out-edges per hub row; the block totals ~50% of all edges.
const HUB_DEGREE: u32 = 16_000;
/// Timing repetitions per cell; the fastest rep's spans are analyzed.
const REPS: usize = 3;
/// Queries per batch in the Algorithm 6/7 mix.
const QUERY_BATCH: usize = 2_048;

/// Deterministic skewed graph: every node emits `PER_NODE` edges to
/// LCG-scattered targets, and each of the first `HUB_ROWS` nodes
/// additionally fans out to `HUB_DEGREE` distinct targets.
fn hub_graph() -> EdgeList {
    let mut edges = Vec::with_capacity((NODES * PER_NODE + HUB_ROWS * HUB_DEGREE) as usize);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = |bound: u32| {
        // MMIX LCG; the top bits scatter targets well enough for a
        // synthetic workload.
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    for u in 0..NODES {
        for _ in 0..PER_NODE {
            edges.push((u, next(NODES)));
        }
    }
    for hub in 0..HUB_ROWS {
        for i in 0..HUB_DEGREE {
            edges.push((hub, (hub + 1 + i) % NODES));
        }
    }
    EdgeList::new(NODES as usize, edges)
}

/// Hub-heavy Algorithm 6/7 batch: every hub row is queried four times at
/// the front of the batch, the tail samples ordinary nodes. A count split
/// hands the entire hub prefix to the first workers; the `degree + 1`
/// weighted split spreads it.
fn hub_heavy_queries() -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let hub_prefix = HUB_ROWS as usize * 4;
    let mut neighbors = Vec::with_capacity(QUERY_BATCH);
    for i in 0..QUERY_BATCH {
        if i < hub_prefix {
            neighbors.push(i as u32 % HUB_ROWS);
        } else {
            neighbors.push(HUB_ROWS + (i as u32 * 97) % (NODES - HUB_ROWS));
        }
    }
    let edges = neighbors
        .iter()
        .map(|&u| (u, (u.wrapping_mul(31).wrapping_add(7)) % NODES))
        .collect();
    (neighbors, edges)
}

/// Max/mean of the edges each range of `ranges` covers in the prefix sum
/// `prefix` (1.00 is a perfect split).
fn edge_skew(prefix: &[u64], ranges: &[Range<usize>]) -> f64 {
    let edges: Vec<u64> = ranges
        .iter()
        .map(|r| prefix[r.end] - prefix[r.start])
        .collect();
    let mean = edges.iter().sum::<u64>() as f64 / edges.len() as f64;
    let max = edges.iter().copied().max().unwrap_or(0) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Prints the row-count vs. edge-weighted split skew of `prefix` at each
/// processor count.
fn print_split_skew(label: &str, prefix: &[u64]) {
    for p in [2usize, 8, 64] {
        let rows = edge_skew(prefix, &chunk_ranges(prefix.len() - 1, p));
        let edges = edge_skew(prefix, &chunk_ranges_by_prefix_sum(prefix, p));
        println!("  {label:<8} p={p:<2}  rows {rows:>6.2}x   edges {edges:>5.2}x");
    }
}

/// Fastest-of-`REPS` build + gap pack + hub-heavy query batches at `p`
/// processors, with the fastest rep's spans analyzed. Returns (wall ms,
/// analysis).
fn measure(
    sorted: &EdgeList,
    neighbor_queries: &[NodeId],
    edge_queries: &[(NodeId, NodeId)],
    p: usize,
) -> (f64, TraceAnalysis) {
    with_processors(p, || {
        let mut best = f64::INFINITY;
        let mut best_spans = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let (csr, _) = CsrBuilder::new().processors(p).build_from_sorted(sorted);
            let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, p);
            let rows = neighbors_batch(&packed, neighbor_queries, p);
            let exist = edges_exist_batch_binary(&packed, edge_queries, p);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box((&rows, &exist));
            let spans = parcsr_obs::drain();
            if elapsed < best {
                best = elapsed;
                best_spans = spans;
            }
        }
        (best, analyze_records(&best_spans))
    })
}

fn main() {
    let graph = hub_graph();
    let sorted = graph.sorted_by_source();
    println!(
        "hub graph: {} nodes, {} edges, {} hub rows carrying {:.1}% of edges\n",
        graph.num_nodes(),
        graph.num_edges(),
        HUB_ROWS,
        f64::from(HUB_ROWS * HUB_DEGREE) / graph.num_edges() as f64 * 100.0
    );

    // Part 1: how each splitter cuts the work, straight from the offsets.
    let csr = Csr::from_edge_list_sequential(&graph);
    let (neighbor_queries, edge_queries) = hub_heavy_queries();
    let mut query_prefix = vec![0u64];
    for &u in &neighbor_queries {
        query_prefix.push(query_prefix.last().unwrap() + csr.degree(u) as u64);
    }
    println!("per-chunk edge max/mean (rows = chunk_ranges, edges = chunk_ranges_by_prefix_sum)");
    print_split_skew("offsets", csr.offsets());
    print_split_skew("queries", &query_prefix);
    println!();

    // Part 2: per-stage utilization under the edge-weighted plan.
    if !parcsr_obs::compiled() {
        eprintln!(
            "note: built without span recording; rerun with \
             --features parcsr-obs/enabled to measure utilization"
        );
    }
    parcsr_obs::set_enabled(true);
    let _ = parcsr_obs::drain();
    println!(
        "build + pack + query batches ({} neighborhood + {} edge-existence queries, \
         hub rows front-loaded)",
        neighbor_queries.len(),
        edge_queries.len()
    );
    for p in [2usize, 8] {
        let (wall_ms, analysis) = measure(&sorted, &neighbor_queries, &edge_queries, p);
        println!("p={p} total {wall_ms:.2} ms");
        for stage in &analysis.stages {
            print!(
                "  {:<16} util {:.3}  cp {:.3}",
                stage.name, stage.utilization, stage.critical_path_ratio
            );
            if let Some(c) = &stage.chunks {
                print!(
                    "  chunks: cv {:.2}, max {:.2} ms (t{} c{})",
                    c.cv,
                    c.max_ns as f64 / 1e6,
                    c.straggler_tid,
                    c.straggler_chunk
                );
            }
            println!();
        }
    }
    parcsr_obs::set_enabled(false);
}
