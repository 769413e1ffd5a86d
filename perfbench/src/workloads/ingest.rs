//! `ingest`: file to answer at `p = nproc` on the LiveJournal stand-in.
//!
//! Set-up generates the graph, writes it as SNAP text and builds the
//! reference. The timed operation is one whole pass (parse, sort, build,
//! pack, write, read, first query); after it, outside the timed interval,
//! the loaded `.pcsr` is decoded row by row against the reference and the
//! first answers are checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use parcsr::{with_processors, Csr};

use super::{overhead_line, InputFiles, QUERY_STREAM};
use crate::pass::{file_to_answer, FirstAnswers, Loaded};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{check, gen, metric, probes, Config, Report};

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: u64 = 4;

/// The SNAP text a run ingests, with its reference.
pub struct Prepared {
    files: InputFiles,
    reference: Csr,
}

/// Set-up: generate, write the SNAP text, build the reference.
pub fn setup(cfg: &Config, _tr: &mut Tracer, _pass: u64) -> Result<Prepared, String> {
    let files = InputFiles::new(&cfg.work_dir, "ingest");
    let graph = gen::livejournal(cfg.scale, cfg.seed);
    files.write_text(&graph)?;
    Ok(Prepared {
        files,
        reference: check::reference(&graph),
    })
}

/// The timed passes (and, traced, the probes).
pub fn measure(prep: &Prepared, cfg: &Config, tr: &mut Tracer) -> Result<Report, String> {
    let p = cfg.processors;
    let (files, reference) = (&prep.files, &prep.reference);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ QUERY_STREAM);
    let mut report = Report::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<Loaded> = None;
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    with_processors(p, || {
        let mut pass = 0;
        while pass < MIN_PASSES || start.elapsed() < deadline {
            // Every other pass is traced in a traced run; the rest measure
            // what tracing costs.
            let on = cfg.trace && pass % 2 == 1;
            tr.set_on(on);
            let first = gen::present_edge(&mut rng, reference);
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                file_to_answer(
                    &files.text,
                    &files.pcsr,
                    p,
                    Some(first),
                    reference,
                    tr,
                    pass,
                )
            }));
            let secs = t.elapsed().as_secs_f64();
            if on { &mut traced } else { &mut untraced }.push(secs);

            let v = tr.begin("bench.verify", pass);
            let ok = match out {
                Ok(Ok((loaded, Some(answers)))) => {
                    let ok = check::loaded(reference, &loaded.packed)
                        && first_ok(reference, first, &answers);
                    last = Some(loaded);
                    ok
                }
                Ok(Ok((_, None))) => false,
                Ok(Err(e)) => {
                    report.notes.push(format!("error pass {pass}: {e}"));
                    false
                }
                Err(_) => {
                    report.notes.push(format!("error pass {pass}: panicked"));
                    false
                }
            };
            tr.end(v);
            report.attempted += 1;
            report.failed += u64::from(!ok);
            pass += 1;
        }
    });
    let wall = start.elapsed().as_secs_f64();
    tr.set_on(cfg.trace);

    let Some(loaded) = last else {
        return Err("no pass completed".into());
    };
    let edges = reference.num_edges() as f64;
    let ingest_s = median(&untraced);
    report.end_to_end = vec![
        metric(
            "bits_per_edge",
            loaded.pcsr_bytes as f64 * 8.0 / edges,
            "bit",
        ),
        metric("op_p50_us", ingest_s * 1e6, "us"),
    ];
    report.detail = vec![
        metric("ingest_s", ingest_s, "s"),
        metric(
            "fail_ratio",
            report.failed as f64 / report.attempted as f64,
            "ratio",
        ),
    ];
    report.notes.push(format!(
        "input nodes={} edges={} text_bytes={} pcsr_bytes={} packed_bytes={}",
        reference.num_nodes(),
        reference.num_edges(),
        loaded.text_bytes,
        loaded.pcsr_bytes,
        loaded.packed.packed_bytes()
    ));
    report.notes.push(format!(
        "samples passes={} traced={} wall_s={wall:.3}",
        untraced.len(),
        traced.len()
    ));
    if cfg.trace {
        report
            .notes
            .push(overhead_line("ingest_s", ingest_s, median(&traced), "s"));
        let hubs = gen::hub_rows(reference);
        let mut pick = || gen::present_edge(&mut rng, reference);
        let (checked, wrong) =
            probes::run(&loaded.packed, reference, &hubs, p, cfg.seed, tr, &mut pick);
        report.attempted += checked;
        report.failed += wrong;
    }
    Ok(report)
}

fn first_ok(reference: &Csr, (u, v): (u32, u32), a: &FirstAnswers) -> bool {
    check::neighbors(reference, &[u], &a.neighbors) == 0
        && check::edges(reference, &[(u, v)], &a.edge) == 0
        && check::edges(reference, &[(u, v)], &[a.split]) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_is_counted_as_failed() {
        let cfg = crate::tests::tiny("ingest", false);
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
