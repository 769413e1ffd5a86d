//! The parcsr benchmark: three workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from traced ones.
//!
//! * `ingest` times file-to-answer construction (Table II's path plus the
//!   `.pcsr` round trip), the write side of the system.
//! * `batch` times Algorithms 6, 7 and 8 over batches at `p = nproc`, the
//!   only path through the runtime's chunk planner and thread team. It runs
//!   on request but is not listed in `BENCHMARK.json`: on a host whose two
//!   vCPUs are not both its own, its run-to-run spread exceeds any bound.
//! * `serve` times single queries in a closed loop with one client over a
//!   hub-skewed graph, where decode speed and per-call overhead separate.
//!
//! See `README.md` beside this crate for why each workload exists, which
//! layers it loads and bypasses, and how the metric names map onto the
//! performance ledger's layers.

pub mod check;
pub mod gen;
pub mod host;
pub mod pass;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use trace::{Layers, Tracer};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name: `ingest`, `batch` or `serve`.
    pub workload: String,
    /// Seed of the graph and of the query streams.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input size as a share of the defined workload (1 = as defined;
    /// smaller values make the smoke test fast).
    pub scale: f64,
    /// Directory for generated inputs and the Chrome trace.
    pub work_dir: PathBuf,
    /// Threads the load may use (`nproc`).
    pub processors: usize,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bits_per_edge", "bit"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics the traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("graph.io.read_s", "s"),
    ("graph.io.read_mb_per_s", "MB/s"),
    ("graph.io.bytes", "B"),
    ("graph.sort.sort_s", "s"),
    ("core.degree.degree_s", "s"),
    ("scan.scan_s", "s"),
    ("core.build.fill_s", "s"),
    ("core.packed.pack_s", "s"),
    ("core.packed.packed_bytes", "B"),
    ("core.serial.write_s", "s"),
    ("core.serial.read_s", "s"),
    ("core.serial.read_mb_per_s", "MB/s"),
    ("core.query.neighbors_batch_s", "s"),
    ("core.query.edges_exist_batch_s", "s"),
    ("core.query.split_us", "us"),
    ("core.query.rows", "count"),
    ("core.query.edges_decoded", "count"),
    ("bitpack.decode_ns_per_edge_hub", "ns"),
    ("bitpack.decode_ns_per_edge_low", "ns"),
    ("core.packed.has_edge_ns", "ns"),
    ("runtime.efficiency", "ratio"),
    ("runtime.split_p1_us", "us"),
    ("bench.pick_ns", "ns"),
    ("bench.verify_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked (passes, batch rounds or queries).
    pub attempted: u64,
    /// Operations that failed, panicked or answered wrongly.
    pub failed: u64,
    /// The end-to-end metrics, untraced operations only.
    pub end_to_end: Vec<Metric>,
    /// The workload-specific metrics, printed by name.
    pub detail: Vec<Metric>,
    /// Lines explaining the metrics: sizes, sample counts, overhead.
    pub notes: Vec<String>,
}

/// Runs `setup` `SETUPS` times, keeping only the last result alive, and
/// returns it with the median set-up time in seconds.
fn repeated_setup<T>(mut setup: impl FnMut(u64) -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        // Free the previous set-up's result first, as a fresh process would
        // not have it.
        drop(kept.take());
        let t = Instant::now();
        let value = setup(i as u64)?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(value);
    }
    let value = kept.expect("SETUPS > 0");
    Ok((value, stats::median(&times)))
}

/// Runs one workload. Spans go to `tr` when `cfg.trace` is set.
pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Report, String> {
    use workloads::{batch, ingest, serve};
    match cfg.workload.as_str() {
        "ingest" => set_up_and_measure(cfg, tr, ingest::setup, ingest::measure),
        "batch" => set_up_and_measure(cfg, tr, batch::setup, batch::measure),
        "serve" => set_up_and_measure(cfg, tr, serve::setup, serve::measure),
        other => Err(format!("unknown workload {other:?} (ingest|batch|serve)")),
    }
}

/// Sets up `SETUPS` times (reporting the median as `setup_s`), then runs
/// the timed phase on the last set-up.
fn set_up_and_measure<P>(
    cfg: &Config,
    tr: &mut Tracer,
    setup: fn(&Config, &mut Tracer, u64) -> Result<P, String>,
    measure: fn(&P, &Config, &mut Tracer) -> Result<Report, String>,
) -> Result<Report, String> {
    let (prepared, setup_s) = repeated_setup(|i| setup(cfg, tr, i))?;
    let mut report = measure(&prepared, cfg, tr)?;
    report.end_to_end.push(metric("setup_s", setup_s, "s"));
    Ok(report)
}

/// The per-layer metrics, each from the self times of the spans named for
/// its layer (medians over spans unless stated).
pub fn per_layer(tr: &Tracer, processors: usize) -> Vec<Metric> {
    use stats::median;
    let l = Layers::new(tr);
    let s = |name| median(&l.self_times(name)) / 1e9;
    let mb_per_s = |name| median(&l.rate(name, "bytes")) / 1e6;
    let runtime_efficiency =
        s("runtime.neighbors_p1") / (processors as f64 * s("runtime.neighbors_pn"));
    let values = [
        s("graph.io.read"),
        mb_per_s("graph.io.read"),
        median(&l.counts("graph.io.read", "bytes")),
        s("graph.sort"),
        s("core.degree"),
        s("scan.scan"),
        s("core.build.fill"),
        s("core.packed.pack"),
        median(&l.counts("core.packed.pack", "bytes")),
        s("core.serial.write"),
        s("core.serial.read"),
        mb_per_s("core.serial.read"),
        s("core.query.neighbors_batch"),
        s("core.query.edges_exist_batch"),
        s("core.query.split") * 1e6,
        l.total("core.query.", "rows") as f64,
        l.total("core.query.", "edges") as f64,
        median(&l.self_per("bitpack.decode.hub", "edges")),
        median(&l.self_per("bitpack.decode.low", "edges")),
        median(&l.self_per("core.packed.has_edge", "calls")),
        runtime_efficiency,
        s("runtime.split_p1") * 1e6,
        median(&l.self_per("bench.pick", "calls")),
        l.self_times("bench.verify").iter().sum::<f64>() / 1e9,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect()
}

/// The last line of the output: the result object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small, short configuration whose files go to a directory of its
    /// own under the checkout's `.perfbench`.
    pub(crate) fn tiny(workload: &str, trace: bool) -> Config {
        let work_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.perfbench/test-{workload}-{trace}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&work_dir).expect("create test directory");
        Config {
            workload: workload.into(),
            seed: 5,
            seconds: 0.2,
            trace,
            scale: 0.02,
            work_dir,
            processors: 2,
        }
    }
}
