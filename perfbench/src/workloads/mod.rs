//! The three workloads.

pub mod batch;
pub mod ingest;
pub mod serve;

use std::path::{Path, PathBuf};

use parcsr_graph::io::write_edge_list_file;
use parcsr_graph::EdgeList;

/// Seed offset of the query streams, so they differ from the graph's.
pub(crate) const QUERY_STREAM: u64 = 0x7175_6572_7973_7472;

/// Input files of one run, named by process id so concurrent runs in one
/// checkout do not collide; removed when dropped.
pub(crate) struct InputFiles {
    pub text: PathBuf,
    pub pcsr: PathBuf,
}

impl InputFiles {
    pub fn new(dir: &Path, workload: &str) -> Self {
        let stem = format!("{workload}-{}", std::process::id());
        InputFiles {
            text: dir.join(format!("{stem}.txt")),
            pcsr: dir.join(format!("{stem}.pcsr")),
        }
    }

    /// Writes `graph` as SNAP text, the input of every pass.
    pub fn write_text(&self, graph: &EdgeList) -> Result<(), String> {
        write_edge_list_file(graph, &self.text)
            .map_err(|e| format!("writing {}: {e}", self.text.display()))
    }
}

impl Drop for InputFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.text);
        let _ = std::fs::remove_file(&self.pcsr);
    }
}

/// `value` with its difference from `base`, for the tracing-overhead lines.
pub(crate) fn overhead_line(name: &str, untraced: f64, traced: f64, unit: &str) -> String {
    format!(
        "overhead {name} untraced={untraced:.3} traced={traced:.3} diff={:.3} {unit} ({:+.1}%)",
        traced - untraced,
        (traced / untraced - 1.0) * 100.0
    )
}
