//! `batch`: Algorithms 6, 7 and 8 over fixed-size batches at `p = nproc` on
//! the packed LiveJournal stand-in.
//!
//! Set-up generates the graph, writes it as SNAP text, builds the reference
//! and loads the packed CSR through one file-to-answer pass. The timed
//! operation is one round: a neighbors batch (Algorithm 6) of uniform
//! sources, an edge batch (Algorithm 7, binary refinement) that is half
//! present and half absent pairs from uniform sources, and one split search
//! (Algorithm 8) on a hub row. Only the three calls are timed; queries are
//! drawn before and answers checked after.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::query::{edge_exists_split, edges_exist_batch_binary, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, Csr};
use parcsr_graph::NodeId;

use super::{overhead_line, InputFiles, QUERY_STREAM};
use crate::pass::file_to_answer;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{check, gen, metric, probes, Config, Report, SETUPS};

/// Queries in each Algorithm 6 and Algorithm 7 batch.
pub const BATCH: usize = 4096;

/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: u64 = 20;

/// One round's queries.
struct Round {
    sources: Vec<NodeId>,
    pairs: Vec<(NodeId, NodeId)>,
    split: (NodeId, NodeId),
}

/// One round's answers, with each call's time in nanoseconds and span.
struct Answers {
    neighbors: Vec<Vec<NodeId>>,
    edges: Vec<bool>,
    split: bool,
    ns: [u64; 3],
    spans: [SpanId; 3],
}

/// The loaded structure a run queries, with its reference.
pub struct Prepared {
    packed: BitPackedCsr,
    reference: Csr,
    /// Hub rows (highest degree first), the targets of Algorithm 8.
    hubs: Vec<NodeId>,
    pcsr_bytes: u64,
    text_bytes: u64,
}

/// Set-up: generate, write, reference, one file-to-answer pass.
pub fn setup(cfg: &Config, tr: &mut Tracer, pass: u64) -> Result<Prepared, String> {
    let files = InputFiles::new(&cfg.work_dir, "batch");
    let graph = gen::livejournal(cfg.scale, cfg.seed);
    files.write_text(&graph)?;
    let reference = check::reference(&graph);
    drop(graph);
    let p = cfg.processors;
    let (loaded, _) = with_processors(p, || {
        file_to_answer(&files.text, &files.pcsr, p, None, &reference, tr, pass)
    })?;
    Ok(Prepared {
        hubs: gen::hub_rows(&reference),
        packed: loaded.packed,
        reference,
        pcsr_bytes: loaded.pcsr_bytes,
        text_bytes: loaded.text_bytes,
    })
}

/// The timed phase (and, traced, the probes) over a prepared graph.
pub fn measure(prep: &Prepared, cfg: &Config, tr: &mut Tracer) -> Result<Report, String> {
    let p = cfg.processors;
    let reference = &prep.reference;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ QUERY_STREAM);
    let mut report = Report::default();
    // Per untraced round: call times (Algorithms 6, 7, 8) and entries decoded.
    let mut rounds: Vec<[u64; 3]> = Vec::new();
    let mut traced_round_ns: Vec<f64> = Vec::new();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    with_processors(p, || {
        let mut round = 0;
        while round < MIN_ROUNDS || start.elapsed() < deadline {
            // Every other round is traced in a traced run; the rest measure
            // what tracing costs. Span ids follow the set-up passes'.
            let on = cfg.trace && round % 2 == 1;
            tr.set_on(on);
            let id = SETUPS as u64 + round;
            let q = draw(&mut rng, reference, &prep.hubs, round);
            let out = catch_unwind(AssertUnwindSafe(|| answer(&prep.packed, &q, p, tr, id)));
            let v = tr.begin("bench.verify", id);
            let wrong = match &out {
                Ok(a) => {
                    check::neighbors(reference, &q.sources, &a.neighbors)
                        + check::edges(reference, &q.pairs, &a.edges)
                        + check::edges(reference, &[q.split], &[a.split])
                }
                Err(_) => 1,
            };
            tr.end(v);
            report.attempted += 1;
            report.failed += u64::from(wrong > 0);
            if let Ok(a) = out {
                if on {
                    let rows = [BATCH as u64, BATCH as u64, 1];
                    let work = work_counts(reference, &q);
                    for ((&s, rows), edges) in a.spans.iter().zip(rows).zip(work) {
                        tr.count(s, "rows", rows);
                        tr.count(s, "edges", edges);
                    }
                    traced_round_ns.push(a.ns.iter().sum::<u64>() as f64);
                } else {
                    rounds.push(a.ns);
                }
            }
            round += 1;
        }
    });
    let wall = start.elapsed().as_secs_f64();
    tr.set_on(cfg.trace);

    let ns = |k: usize| rounds.iter().map(|r| r[k] as f64).collect::<Vec<_>>();
    let round_ns: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().sum::<u64>() as f64)
        .collect();
    let batch_qps = |k: usize| (rounds.len() * BATCH) as f64 / (ns(k).iter().sum::<f64>() / 1e9);
    report.end_to_end = vec![
        metric(
            "bits_per_edge",
            prep.pcsr_bytes as f64 * 8.0 / reference.num_edges() as f64,
            "bit",
        ),
        metric("op_p50_us", median(&round_ns) / 1e3, "us"),
    ];
    report.detail = vec![
        metric("neighbors_qps", batch_qps(0), "1/s"),
        metric("edge_exists_qps", batch_qps(1), "1/s"),
        metric("split_us", median(&ns(2)) / 1e3, "us"),
        metric(
            "fail_ratio",
            report.failed as f64 / report.attempted as f64,
            "ratio",
        ),
    ];
    report.notes.push(format!(
        "input nodes={} edges={} text_bytes={} pcsr_bytes={} packed_bytes={} batch={BATCH} p={p}",
        reference.num_nodes(),
        reference.num_edges(),
        prep.text_bytes,
        prep.pcsr_bytes,
        prep.packed.packed_bytes()
    ));
    report.notes.push(format!(
        "samples rounds={} traced={} wall_s={wall:.3}",
        rounds.len(),
        traced_round_ns.len()
    ));
    if cfg.trace {
        report.notes.push(overhead_line(
            "op_p50_us",
            median(&round_ns) / 1e3,
            median(&traced_round_ns) / 1e3,
            "us",
        ));
        let mut pick = || {
            let u = rng.gen_range(0..reference.num_nodes() as NodeId);
            gen::absent_edge_from(&mut rng, reference, u)
        };
        let (checked, wrong) = probes::run(
            &prep.packed,
            reference,
            &prep.hubs,
            p,
            cfg.seed,
            tr,
            &mut pick,
        );
        report.attempted += checked;
        report.failed += wrong;
    }
    Ok(report)
}

/// Draws one round's queries: uniform sources; edge pairs alternating
/// present and absent; a hub row for the split search, its target
/// alternating present and absent between rounds.
fn draw(rng: &mut SmallRng, reference: &Csr, hubs: &[NodeId], round: u64) -> Round {
    let n = reference.num_nodes() as NodeId;
    let sources = (0..BATCH).map(|_| rng.gen_range(0..n)).collect();
    let pairs = (0..BATCH)
        .map(|i| {
            if i % 2 == 0 {
                gen::present_edge(rng, reference)
            } else {
                let u = rng.gen_range(0..n);
                gen::absent_edge_from(rng, reference, u)
            }
        })
        .collect();
    let hub = hubs[rng.gen_range(0..hubs.len())];
    let split = if round.is_multiple_of(2) {
        gen::present_edge_from(rng, reference, hub)
    } else {
        gen::absent_edge_from(rng, reference, hub)
    };
    Round {
        sources,
        pairs,
        split,
    }
}

/// The three timed calls.
fn answer(packed: &BitPackedCsr, q: &Round, p: usize, tr: &mut Tracer, round: u64) -> Answers {
    let t = Instant::now();
    let root = tr.begin("bench.round", round);
    let s0 = tr.begin("core.query.neighbors_batch", round);
    let neighbors = neighbors_batch(packed, &q.sources, p);
    tr.end(s0);
    let t1 = Instant::now();
    let s1 = tr.begin("core.query.edges_exist_batch", round);
    let edges = edges_exist_batch_binary(packed, &q.pairs, p);
    tr.end(s1);
    let t2 = Instant::now();
    let s2 = tr.begin("core.query.split", round);
    let split = edge_exists_split(packed, q.split.0, q.split.1, p);
    tr.end(s2);
    tr.end(root);
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    Answers {
        neighbors,
        edges,
        split,
        ns: [ns(t, t1), ns(t1, t2), ns(t2, t3)],
        spans: [s0, s1, s2],
    }
}

/// Rows and entries each call decodes, from the reference: (neighbors,
/// edge probes, split).
fn work_counts(reference: &Csr, q: &Round) -> [u64; 3] {
    [
        q.sources.iter().map(|&u| reference.degree(u) as u64).sum(),
        q.pairs
            .iter()
            .map(|&(u, v)| check::decoded_by_probe(reference, u, v))
            .sum(),
        reference.degree(q.split.0) as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_is_counted_as_failed() {
        let cfg = crate::tests::tiny("batch", false);
        let mut tr = Tracer::new(false);
        let mut prep = setup(&cfg, &mut tr, 0).expect("setup");
        let report = measure(&prep, &cfg, &mut tr).expect("measure");
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "the right reference must pass");

        prep.reference = check::shifted(&prep.reference);
        let report = measure(&prep, &cfg, &mut tr).expect("measure");
        assert!(report.failed > 0, "a wrong reference must be caught");
        assert!(crate::result_line(report.attempted, report.failed, &[])
            .starts_with("{\"correct\": false"));
    }
}
