//! The line-based SNAP reader that `parcsr_graph::io` used before the
//! block-parallel byte scanner, kept verbatim as the differential-test
//! oracle: one `String` per line via `BufRead::lines`, `str::trim` and
//! `split_whitespace`, `u64::from_str` per field. On ASCII input the new
//! readers must agree with it on every edge and every error.
//!
//! Shared by the integration tests (`mod oracle;`) and by the block-size
//! unit tests in `src/io.rs` (`#[path]`-included); the including module
//! supplies `EdgeList`, `NodeId`, `ParseError`, `TemporalEdge` and
//! `TemporalEdgeList`. It also holds what both test sets share: the
//! comparable [`Outcome`] of a parse and a seeded text generator.

#![allow(dead_code)]

use std::io::BufRead;

use super::{EdgeList, NodeId, ParseError, TemporalEdge, TemporalEdgeList};

type Edge = (NodeId, NodeId);

fn parse_fields<const N: usize>(line: &str, lineno: usize) -> Result<Option<[u64; N]>, ParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut out = [0u64; N];
    let mut fields = trimmed.split_whitespace();
    for slot in out.iter_mut() {
        let f = fields.next().ok_or(ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "too few fields",
        })?;
        *slot = f.parse().map_err(|_| ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "field is not an unsigned integer",
        })?;
    }
    if fields.next().is_some() {
        return Err(ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "too many fields",
        });
    }
    Ok(Some(out))
}

fn check_node(x: u64, line: usize, content: &str) -> Result<NodeId, ParseError> {
    NodeId::try_from(x).map_err(|_| ParseError::Malformed {
        line,
        content: content.to_string(),
        reason: "node id exceeds u32",
    })
}

/// Parses SNAP edge-list text (`u v` per line, `#`/`%` comments, blank lines
/// allowed) from any reader. Node count is inferred from the maximum id.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<EdgeList, ParseError> {
    let mut edges: Vec<Edge> = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some([u, v]) = parse_fields::<2>(&line, i + 1)? {
            edges.push((check_node(u, i + 1, &line)?, check_node(v, i + 1, &line)?));
        }
    }
    Ok(EdgeList::from_pairs(edges))
}

/// Parses temporal triplet text (`u v t` per line, comments as above).
pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<TemporalEdgeList, ParseError> {
    let mut events = Vec::new();
    let mut max_node: u64 = 0;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some([u, v, t]) = parse_fields::<3>(&line, i + 1)? {
            max_node = max_node.max(u).max(v);
            let t = u32::try_from(t).map_err(|_| ParseError::Malformed {
                line: i + 1,
                content: line.to_string(),
                reason: "timestamp exceeds u32",
            })?;
            events.push(TemporalEdge::new(
                check_node(u, i + 1, &line)?,
                check_node(v, i + 1, &line)?,
                t,
            ));
        }
    }
    let num_nodes = if events.is_empty() {
        0
    } else {
        max_node as usize + 1
    };
    Ok(TemporalEdgeList::new(num_nodes, events))
}

/// A parse result in comparable form: the value, or a malformed line's
/// `(line, reason, content)`.
pub type Outcome<T> = Result<T, (usize, &'static str, String)>;

/// `result` as an [`Outcome`]; panics on an i/o error, which in-memory
/// test text cannot raise.
pub fn outcome<T>(result: Result<T, ParseError>) -> Outcome<T> {
    result.map_err(|e| match e {
        ParseError::Malformed {
            line,
            content,
            reason,
        } => (line, reason, content),
        ParseError::Io(e) => panic!("unexpected i/o error on in-memory text: {e}"),
    })
}

/// A splitmix64 stream: the seeded source of the generated test texts.
pub struct TextRng(u64);

impl TextRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TextRng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

const BLANKS: &[&str] = &[" ", " ", "\t", "\t", "\x0b", "\x0c", "\r"];
const GARBAGE: &[&str] = &[
    "x", "-1", "+", "++1", "1x", "1.5", "0x10", "+-3", "#", "%", "1#", "",
];

fn blanks(rng: &mut TextRng, min: u64, max: u64, out: &mut String) {
    for _ in 0..min + rng.below(max - min + 1) {
        out.push_str(rng.pick(BLANKS));
    }
}

fn field(rng: &mut TextRng, out: &mut String) {
    match rng.below(1000) {
        0..=849 => out.push_str(&rng.below(1000).to_string()),
        850..=919 => {
            out.push('+');
            out.push_str(&rng.below(1000).to_string());
        }
        920..=979 => {
            out.push_str(&"0".repeat(1 + rng.below(25) as usize));
            out.push_str(&rng.below(1000).to_string());
        }
        980..=987 => {
            let x = u64::from(u32::MAX) - 1 + rng.below(3);
            out.push_str(&x.to_string());
        }
        988..=993 => out.push_str(rng.pick(&[
            "18446744073709551615",
            "18446744073709551614",
            "18446744073709551616",
            "99999999999999999999",
        ])),
        _ => out.push_str(rng.pick(GARBAGE)),
    }
}

/// A seeded ASCII text in the SNAP shape with `n` fields per data line:
/// blank and `#`/`%` comment lines, every ASCII whitespace separator, `\n`
/// and `\r\n` endings, leading `+`, leading zeros, values at the `u32` and
/// `u64` limits, the odd garbage token or miscounted line, and sometimes a
/// last line without its newline. Roughly half the texts are malformed
/// somewhere, so both outcomes are exercised.
pub fn ascii_text(seed: u64, n: usize, max_lines: u64) -> String {
    let mut rng = TextRng::new(seed);
    let mut out = String::new();
    let lines = rng.below(max_lines + 1);
    for i in 0..lines {
        match rng.below(100) {
            0..=7 => blanks(&mut rng, 0, 3, &mut out),
            8..=15 => {
                blanks(&mut rng, 0, 2, &mut out);
                out.push_str(rng.pick(&["#", "%"]));
                for _ in 0..rng.below(20) {
                    out.push(char::from(b' ' + rng.below(95) as u8));
                }
            }
            _ => {
                let count = match rng.below(80) {
                    0 => n - 1,
                    1 => n + 1,
                    _ => n,
                };
                blanks(&mut rng, 0, 1, &mut out);
                for f in 0..count {
                    if f > 0 {
                        blanks(&mut rng, 1, 3, &mut out);
                    }
                    field(&mut rng, &mut out);
                }
                blanks(&mut rng, 0, 1, &mut out);
            }
        }
        if i + 1 < lines || rng.below(3) > 0 {
            out.push_str(if rng.below(5) == 0 { "\r\n" } else { "\n" });
        }
    }
    out
}
