//! `serve`: a closed loop with one client issuing single queries against
//! the packed hub graph.
//!
//! Set-up generates the seeded hub graph, writes it as SNAP text, builds
//! the reference and loads the packed CSR through one file-to-answer pass.
//! Each query is one call, chosen by the 45/25/20/10 mix (neighbors / edge
//! scan / edge binary / split) of `queries_closed_loop`; its source is
//! Zipf(1.0) by degree rank (split searches take a hub row). The client
//! waits for each answer before drawing the next query, and every call runs
//! inside `with_processors(1, ..)`. Only the call is timed; the answer is
//! checked after it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::distr::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parcsr::query::{
    edge_exists_split, edges_exist_batch, edges_exist_batch_binary, neighbors_batch,
};
use parcsr::{with_processors, BitPackedCsr, Csr};
use parcsr_graph::NodeId;

use super::{overhead_line, InputFiles, QUERY_STREAM};
use crate::pass::file_to_answer;
use crate::stats::{percentile, Percentile};
use crate::trace::{SpanId, Tracer};
use crate::{check, gen, metric, probes, Config, Metric, Report, SETUPS};

/// The query mix: neighbors (Algorithm 6), edge scan (Algorithm 7), edge
/// binary (Algorithm 7 refined), split (Algorithm 8), in percent.
const MIX: [u32; 4] = [45, 25, 20, 10];

/// Zipf exponent of the source distribution over degree ranks.
const ZIPF_S: f64 = 1.0;

/// Queries a run makes at least, whatever `--seconds` says.
const MIN_QUERIES: u64 = 4096;

/// Queries per block; a traced run traces every other block.
const BLOCK: u64 = 256;

/// Samples needed beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Neighbors,
    EdgeScan,
    EdgeBinary,
    Split,
}

/// The loaded structure a run queries, with its reference and samplers.
pub struct Prepared {
    packed: BitPackedCsr,
    reference: Csr,
    ranks: Vec<NodeId>,
    hubs: Vec<NodeId>,
    zipf: Zipf,
    pcsr_bytes: u64,
    text_bytes: u64,
}

/// Set-up: generate, write, reference, one file-to-answer pass, samplers.
pub fn setup(cfg: &Config, tr: &mut Tracer, pass: u64) -> Result<Prepared, String> {
    let files = InputFiles::new(&cfg.work_dir, "serve");
    let graph = gen::hub_graph(cfg.scale, cfg.seed);
    files.write_text(&graph)?;
    let reference = check::reference(&graph);
    drop(graph);
    let p = cfg.processors;
    let (loaded, _) = with_processors(p, || {
        file_to_answer(&files.text, &files.pcsr, p, None, &reference, tr, pass)
    })?;
    let ranks = gen::degree_ranks(&reference);
    Ok(Prepared {
        packed: loaded.packed,
        hubs: gen::hub_rows(&reference),
        zipf: Zipf::new(ranks.len(), ZIPF_S),
        ranks,
        reference,
        pcsr_bytes: loaded.pcsr_bytes,
        text_bytes: loaded.text_bytes,
    })
}

/// Draws one query: its kind by the mix, its source by Zipf rank (a hub
/// row for a split search), its target uniform.
fn pick(rng: &mut SmallRng, prep: &Prepared) -> (Kind, NodeId, NodeId) {
    let mut w = rng.gen_range(0..MIX.iter().sum::<u32>());
    let mut kind = Kind::Split;
    for (k, &share) in [Kind::Neighbors, Kind::EdgeScan, Kind::EdgeBinary]
        .into_iter()
        .zip(&MIX)
    {
        if w < share {
            kind = k;
            break;
        }
        w -= share;
    }
    let u = match kind {
        Kind::Split => prep.hubs[rng.gen_range(0..prep.hubs.len())],
        _ => prep.ranks[prep.zipf.sample_index(rng)],
    };
    let v = rng.gen_range(0..prep.ranks.len() as NodeId);
    (kind, u, v)
}

/// One sample: call time, whether the source is a hub row, whether it is a
/// low-degree row.
struct Sample {
    ns: u32,
    hub: bool,
    low: bool,
}

/// The closed loop (and, traced, the probes).
pub fn measure(prep: &Prepared, cfg: &Config, tr: &mut Tracer) -> Result<Report, String> {
    let reference = &prep.reference;
    let hub_min = prep
        .hubs
        .iter()
        .map(|&h| reference.degree(h))
        .min()
        .unwrap_or(0);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ QUERY_STREAM);
    let mut report = Report::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    with_processors(1, || {
        let mut i = 0;
        while i < MIN_QUERIES || start.elapsed() < deadline {
            let on = cfg.trace && (i / BLOCK) % 2 == 1;
            tr.set_on(on);
            let id = SETUPS as u64 + i;
            let (kind, u, v) = pick(&mut rng, prep);
            let (out, ns, span) = call(&prep.packed, kind, u, v, tr, id);

            let s = tr.begin("bench.verify", id);
            let ok = match &out {
                Ok(Answer::Rows(rows)) => check::neighbors(reference, &[u], rows) == 0,
                Ok(Answer::Hits(hits)) => check::edges(reference, &[(u, v)], hits) == 0,
                Ok(Answer::Hit(hit)) => check::edges(reference, &[(u, v)], &[*hit]) == 0,
                Err(()) => false,
            };
            tr.end(s);
            report.attempted += 1;
            report.failed += u64::from(!ok);
            if on {
                let work = match kind {
                    Kind::Neighbors | Kind::Split => reference.degree(u) as u64,
                    Kind::EdgeScan | Kind::EdgeBinary => check::decoded_by_probe(reference, u, v),
                };
                tr.count(span, "rows", 1);
                tr.count(span, "edges", work);
                traced_ns.push(ns as f64);
            } else {
                let degree = reference.degree(u);
                samples.push(Sample {
                    ns: ns.min(u64::from(u32::MAX)) as u32,
                    hub: degree >= hub_min,
                    low: degree < gen::LOW_DEGREE_MAX,
                });
            }
            i += 1;
        }
    });
    let wall = start.elapsed().as_secs_f64();
    tr.set_on(cfg.trace);

    let us = |keep: &dyn Fn(&Sample) -> bool| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| f64::from(s.ns) / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = us(&|_| true);
    let hub = us(&|s| s.hub);
    let low = us(&|s| s.low);
    let pcts = [
        ("p50_us", &all, 0.5),
        ("p99_us", &all, 0.99),
        ("hub_p50_us", &hub, 0.5),
        ("low_p99_us", &low, 0.99),
    ];
    let mut detail: Vec<Metric> = vec![metric("qps", report.attempted as f64 / wall, "1/s")];
    for (name, sorted, q) in pcts {
        if sorted.is_empty() {
            return Err(format!("{name}: no samples"));
        }
        let Percentile {
            value,
            samples,
            beyond,
        } = percentile(sorted, q);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "{name}: only {beyond} of {samples} samples beyond it (need {MIN_BEYOND}); run longer"
            ));
        }
        report.notes.push(format!(
            "percentile {name} samples={samples} beyond={beyond}"
        ));
        detail.push(metric(name, value, "us"));
    }
    detail.push(metric(
        "fail_ratio",
        report.failed as f64 / report.attempted as f64,
        "ratio",
    ));
    report.detail = detail;
    report.end_to_end = vec![
        metric(
            "bits_per_edge",
            prep.pcsr_bytes as f64 * 8.0 / reference.num_edges() as f64,
            "bit",
        ),
        metric("op_p50_us", percentile(&all, 0.5).value, "us"),
    ];
    report.notes.push(format!(
        "input nodes={} edges={} text_bytes={} pcsr_bytes={} packed_bytes={} hub_rows={} hub_min_degree={hub_min} clients=1",
        reference.num_nodes(),
        reference.num_edges(),
        prep.text_bytes,
        prep.pcsr_bytes,
        prep.packed.packed_bytes(),
        prep.hubs.len(),
    ));
    report.notes.push(format!(
        "samples queries={} hub={} low={} traced={} wall_s={wall:.3}",
        all.len(),
        hub.len(),
        low.len(),
        traced_ns.len()
    ));
    if cfg.trace {
        report.notes.push(overhead_line(
            "mean_call_us",
            all.iter().sum::<f64>() / all.len() as f64,
            traced_ns.iter().sum::<f64>() / traced_ns.len() as f64 / 1e3,
            "us",
        ));
        let mut picker = || {
            let (_, u, v) = pick(&mut rng, prep);
            (u, v)
        };
        let (checked, wrong) = probes::run(
            &prep.packed,
            reference,
            &prep.hubs,
            cfg.processors,
            cfg.seed,
            tr,
            &mut picker,
        );
        report.attempted += checked;
        report.failed += wrong;
    }
    Ok(report)
}

enum Answer {
    Rows(Vec<Vec<NodeId>>),
    Hits(Vec<bool>),
    Hit(bool),
}

/// One timed query call; returns its answer (or `Err` on a panic), its
/// time in nanoseconds and its span.
fn call(
    packed: &BitPackedCsr,
    kind: Kind,
    u: NodeId,
    v: NodeId,
    tr: &mut Tracer,
    id: u64,
) -> (Result<Answer, ()>, u64, SpanId) {
    let name = match kind {
        Kind::Neighbors => "core.query.neighbors_batch",
        Kind::EdgeScan | Kind::EdgeBinary => "core.query.edges_exist_batch",
        Kind::Split => "core.query.split",
    };
    // The span is inside the timed interval, so traced calls carry the
    // tracing cost that the overhead line reports.
    let t = Instant::now();
    let span = tr.begin(name, id);
    let out = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Neighbors => Answer::Rows(neighbors_batch(packed, &[u], 1)),
        Kind::EdgeScan => Answer::Hits(edges_exist_batch(packed, &[(u, v)], 1)),
        Kind::EdgeBinary => Answer::Hits(edges_exist_batch_binary(packed, &[(u, v)], 1)),
        Kind::Split => Answer::Hit(edge_exists_split(packed, u, v, 1)),
    }));
    tr.end(span);
    let ns = t.elapsed().as_nanos() as u64;
    (out.map_err(|_| ()), ns, span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_is_counted_as_failed() {
        let cfg = crate::tests::tiny("serve", false);
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
