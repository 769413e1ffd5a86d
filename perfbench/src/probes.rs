//! Layer probes the traced run makes after its timed phase, on the
//! workload's own loaded graph: row decode over hub and low-degree rows
//! (`row_iter`), `has_edge`, one neighbors batch at `p = 1` and at
//! `p = nproc` (the runtime's parallel efficiency), Algorithm 8 at `p = 1`,
//! and the cost of the workload's own query picker.

use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::query::{edge_exists_split, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, Csr};
use parcsr_graph::NodeId;

use crate::check;
use crate::gen::{self, LOW_DEGREE_MAX};
use crate::trace::Tracer;

/// Repetitions of each probe; the per-layer metrics are medians over them.
const REPS: u64 = 9;

/// Rows (or probes) per repetition.
const ROWS: usize = 4096;

/// Picker calls timed per repetition.
const PICKS: u64 = 1 << 16;

/// Probe spans carry ids from here up, apart from the workload's own.
const PROBE_IDS: u64 = 1 << 48;

/// Runs every probe, recording one span per repetition. The answers of the
/// runtime batches and the split calls are checked; returns how many were
/// checked and how many were wrong.
pub fn run(
    packed: &BitPackedCsr,
    reference: &Csr,
    hubs: &[NodeId],
    p: usize,
    seed: u64,
    tr: &mut Tracer,
    pick: &mut dyn FnMut() -> (NodeId, NodeId),
) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7072_6f62_6573);
    let low_rows = low_degree_rows(&mut rng, reference);
    let hub_edges: u64 = hubs.iter().map(|&u| reference.degree(u) as u64).sum();
    let low_edges: u64 = low_rows.iter().map(|&u| reference.degree(u) as u64).sum();
    let sources: Vec<NodeId> = (0..ROWS)
        .map(|_| rng.gen_range(0..reference.num_nodes() as NodeId))
        .collect();
    let probes: Vec<(NodeId, NodeId)> = sources
        .iter()
        .map(|&u| (u, rng.gen_range(0..reference.num_nodes() as NodeId)))
        .collect();
    let splits: Vec<(NodeId, NodeId)> = hubs
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            if i % 2 == 0 {
                gen::present_edge_from(&mut rng, reference, h)
            } else {
                gen::absent_edge_from(&mut rng, reference, h)
            }
        })
        .collect();

    let (mut checked, mut wrong) = (0, 0);
    for rep in PROBE_IDS..PROBE_IDS + REPS {
        sweep(packed, hubs, hub_edges, "bitpack.decode.hub", rep, tr);
        sweep(packed, &low_rows, low_edges, "bitpack.decode.low", rep, tr);

        let s = tr.begin("core.packed.has_edge", rep);
        let hits = probes
            .iter()
            .filter(|&&(u, v)| packed.has_edge(u, v))
            .count();
        tr.end(s);
        tr.count(s, "calls", probes.len() as u64);
        black_box(hits);

        // Alternate which width runs first so neither always sees the
        // other's cache state.
        for width in if rep % 2 == 0 { [1, p] } else { [p, 1] } {
            let name = if width == 1 {
                "runtime.neighbors_p1"
            } else {
                "runtime.neighbors_pn"
            };
            let s = tr.begin(name, rep);
            let rows = with_processors(width, || neighbors_batch(packed, &sources, width));
            tr.end(s);
            tr.count(s, "rows", sources.len() as u64);
            checked += 1;
            wrong += u64::from(check::neighbors(reference, &sources, &rows) > 0);
        }
        let mut answers = Vec::with_capacity(splits.len());
        with_processors(1, || {
            for &(u, v) in &splits {
                let s = tr.begin("runtime.split_p1", rep);
                answers.push(edge_exists_split(packed, u, v, 1));
                tr.end(s);
            }
        });
        checked += splits.len() as u64;
        wrong += check::edges(reference, &splits, &answers);

        let s = tr.begin("bench.pick", rep);
        for _ in 0..PICKS {
            black_box(pick());
        }
        tr.end(s);
        tr.count(s, "calls", PICKS);
    }
    (checked, wrong)
}

/// Decodes every row in `rows` with `row_iter`, in one span.
fn sweep(
    packed: &BitPackedCsr,
    rows: &[NodeId],
    edges: u64,
    name: &'static str,
    rep: u64,
    tr: &mut Tracer,
) {
    let s = tr.begin(name, rep);
    let mut acc = 0u64;
    for &u in rows {
        for v in packed.row_iter(u) {
            acc = acc.wrapping_add(u64::from(v));
        }
    }
    tr.end(s);
    tr.count(s, "edges", edges);
    black_box(acc);
}

/// Up to `ROWS` random rows with `1 <= degree < LOW_DEGREE_MAX`.
fn low_degree_rows(rng: &mut SmallRng, reference: &Csr) -> Vec<NodeId> {
    let n = reference.num_nodes() as NodeId;
    (0..64 * ROWS)
        .map(|_| rng.gen_range(0..n))
        .filter(|&u| (1..LOW_DEGREE_MAX).contains(&reference.degree(u)))
        .take(ROWS)
        .collect()
}
