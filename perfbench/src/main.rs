//! `perfbench --workload <ingest|batch|serve> --seed <n> --seconds <s>
//! --trace <0|1> [--scale <f>]`
//!
//! Run from the repository root. Prints the host stamp, the workload's
//! metrics by name with their units, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! end-to-end ones untraced (`--trace 0`) and the per-layer ones traced
//! (`--trace 1`). Exits 1 if any answer was wrong and 2 on a usage or
//! set-up error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use parcsr_perfbench::host::{self, Host};
use parcsr_perfbench::trace::Tracer;
use parcsr_perfbench::{metric, per_layer, result_line, run, Config, Metric, END_TO_END};

/// Generated inputs and traces go here, under the directory it runs from.
const WORK_DIR: &str = ".perfbench";

/// Spans written to the Chrome trace at most (all of them feed the metrics).
const TRACE_EXPORT_LIMIT: usize = 200_000;

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: creating {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let host = Host::detect(Path::new("."));
    let stamp = host.json(&cfg.workload, cfg.seed);
    println!("host {stamp}");

    let mut tr = Tracer::new(cfg.trace);
    let report = match run(&cfg, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.detail {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }

    let mut end_to_end = report.end_to_end.clone();
    end_to_end.push(metric("peak_rss_mb", host::peak_rss_mb(), "MB"));
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .filter_map(|(name, _)| end_to_end.iter().find(|m| m.name == *name).cloned())
        .collect();
    for m in &end_to_end {
        println!("end_to_end {} {} {}", m.name, m.value, m.unit);
    }
    let metrics = if cfg.trace {
        let layers = per_layer(&tr, cfg.processors);
        for m in &layers {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        let path = cfg
            .work_dir
            .join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
        match tr.write_chrome(&path, TRACE_EXPORT_LIMIT, &stamp) {
            Ok(n) => println!(
                "trace {} spans={} written={n} dropped={}",
                path.display(),
                tr.spans().len(),
                tr.dropped()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        layers
    } else {
        end_to_end
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} was not measured", bad.name);
        return ExitCode::from(2);
    }
    println!("{}", result_line(report.attempted, report.failed, &metrics));
    if report.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = 1.0;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let valid = seconds.is_finite() && seconds > 0.0 && scale > 0.0 && scale <= 1.0;
    if !valid {
        return Err("--seconds must be positive and --scale in (0, 1]".into());
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work_dir: PathBuf::from(WORK_DIR),
        processors: host::nproc(),
    })
}
