//! One file-to-answer pass: SNAP text → edge list → CSR → packed CSR →
//! `.pcsr` file → loaded packed CSR → first answers.
//!
//! This is the path `parcsr compress` followed by `parcsr query` takes, with
//! the CLI defaults (gap mode, `p` processors). `ingest` times it; `batch`
//! and `serve` run it in set-up to get the structure they query.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use parcsr::query::{edge_exists_split, edges_exist_batch_binary, neighbors_batch};
use parcsr::{BitPackedCsr, Csr, CsrBuilder, PackedCsrMode};
use parcsr_graph::io::read_edge_list_file;
use parcsr_graph::NodeId;

use crate::check;
use crate::trace::Tracer;

/// What a pass produced.
pub struct Loaded {
    /// The packed CSR read back from the `.pcsr` file.
    pub packed: BitPackedCsr,
    /// Size of the SNAP text parsed.
    pub text_bytes: u64,
    /// Size of the `.pcsr` file written and read.
    pub pcsr_bytes: u64,
}

/// Answers to the first query after load: Algorithm 6, 7 (binary) and 8
/// once each on the same pair.
pub struct FirstAnswers {
    /// `neighbors_batch(&[u])`.
    pub neighbors: Vec<Vec<NodeId>>,
    /// `edges_exist_batch_binary(&[(u, v)])`.
    pub edge: Vec<bool>,
    /// `edge_exists_split(u, v)`.
    pub split: bool,
}

/// Runs one pass at `p` processors (call it inside `with_processors(p, ..)`)
/// and, given `first`, answers the first query on the loaded structure.
/// `reference` supplies only the work counts recorded on the spans.
pub fn file_to_answer(
    text: &Path,
    pcsr: &Path,
    p: usize,
    first: Option<(NodeId, NodeId)>,
    reference: &Csr,
    tr: &mut Tracer,
    pass: u64,
) -> Result<(Loaded, Option<FirstAnswers>), String> {
    let root = tr.begin("bench.pass", pass);
    let out = stages(text, pcsr, p, first, reference, tr, pass);
    tr.end(root);
    out
}

fn stages(
    text: &Path,
    pcsr: &Path,
    p: usize,
    first: Option<(NodeId, NodeId)>,
    reference: &Csr,
    tr: &mut Tracer,
    pass: u64,
) -> Result<(Loaded, Option<FirstAnswers>), String> {
    let s = tr.begin("graph.io.read", pass);
    let graph =
        read_edge_list_file(text).map_err(|e| format!("parsing {}: {e}", text.display()))?;
    tr.end(s);
    let text_bytes = fs::metadata(text).map_err(|e| e.to_string())?.len();
    tr.count(s, "bytes", text_bytes);
    tr.count(s, "edges", graph.num_edges() as u64);

    let s = tr.begin("core.build", pass);
    let (csr, t) = CsrBuilder::new().processors(p).build_timed(&graph);
    tr.end(s);
    let mut offset = 0;
    for (name, ms) in [
        ("graph.sort", t.sort_ms),
        ("core.degree", t.degree_ms),
        ("scan.scan", t.scan_ms),
        ("core.build.fill", t.fill_ms),
    ] {
        let ns = Duration::from_secs_f64(ms / 1e3).as_nanos() as u64;
        tr.child(s, name, offset, ns);
        offset += ns;
    }
    drop(graph);

    let s = tr.begin("core.packed.pack", pass);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Gap, p);
    tr.end(s);
    tr.count(s, "bytes", packed.packed_bytes() as u64);
    tr.count(s, "edges", csr.num_edges() as u64);
    drop(csr);

    let s = tr.begin("core.serial.write", pass);
    write_pcsr(&packed, pcsr).map_err(|e| format!("writing {}: {e}", pcsr.display()))?;
    tr.end(s);
    drop(packed);
    let pcsr_bytes = fs::metadata(pcsr).map_err(|e| e.to_string())?.len();
    tr.count(s, "bytes", pcsr_bytes);

    let s = tr.begin("core.serial.read", pass);
    let file = File::open(pcsr).map_err(|e| format!("opening {}: {e}", pcsr.display()))?;
    let packed = BitPackedCsr::read_from(&mut BufReader::new(file))
        .map_err(|e| format!("loading {}: {e}", pcsr.display()))?;
    tr.end(s);
    tr.count(s, "bytes", pcsr_bytes);

    let answers = first.map(|(u, v)| first_answers(&packed, u, v, p, reference, tr, pass));
    let loaded = Loaded {
        packed,
        text_bytes,
        pcsr_bytes,
    };
    Ok((loaded, answers))
}

fn write_pcsr(packed: &BitPackedCsr, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    packed.write_to(&mut w)?;
    w.flush()
}

fn first_answers(
    packed: &BitPackedCsr,
    u: NodeId,
    v: NodeId,
    p: usize,
    reference: &Csr,
    tr: &mut Tracer,
    pass: u64,
) -> FirstAnswers {
    let s = tr.begin("core.query.neighbors_batch", pass);
    let neighbors = neighbors_batch(packed, &[u], p);
    tr.end(s);
    tr.count(s, "rows", 1);
    tr.count(s, "edges", reference.degree(u) as u64);

    let s = tr.begin("core.query.edges_exist_batch", pass);
    let edge = edges_exist_batch_binary(packed, &[(u, v)], p);
    tr.end(s);
    tr.count(s, "rows", 1);
    tr.count(s, "edges", check::decoded_by_probe(reference, u, v));

    let s = tr.begin("core.query.split", pass);
    let split = edge_exists_split(packed, u, v, p);
    tr.end(s);
    tr.count(s, "rows", 1);
    tr.count(s, "edges", reference.degree(u) as u64);

    FirstAnswers {
        neighbors,
        edge,
        split,
    }
}
