//! SNAP text-format I/O.
//!
//! The evaluation datasets come from the Stanford SNAP collection, which
//! distributes graphs as whitespace-separated `u v` lines with `#` comment
//! headers. This module reads and writes that format (plus the `u v t`
//! triplet extension for temporal graphs), so the real datasets can be
//! dropped in next to the synthetic profiles.
//!
//! # Grammar
//!
//! The readers work on bytes, one `\n`-terminated line at a time (the last
//! line may lack its `\n`):
//!
//! * whitespace is ASCII space and `\t`–`\r` (so `\r\n` endings, vertical
//!   tabs and form feeds separate fields like spaces do);
//! * a line that is empty after whitespace, or whose first non-whitespace
//!   byte is `#` or `%`, is skipped — comment bodies may hold any bytes;
//! * every other line holds exactly `N` fields (`N = 2` for `u v`, `3` for
//!   `u v t`), each an optional `+` followed by ASCII digits whose value
//!   fits in `u64` — exactly what `u64::from_str` accepts on ASCII input —
//!   and node ids (and timestamps) must then fit in `u32`.
//!
//! Any other line is [`ParseError::Malformed`], carrying its 1-based line
//! number, its text (without the line ending) and the first problem found
//! reading it left to right. A non-ASCII byte in a data line is a field
//! that is not an unsigned integer.
//!
//! # Block-parallel parsing
//!
//! Parsing is the first stage of the file-to-answer path, and it is
//! bandwidth-bound work with no dependence between lines, so the readers
//! parse on the current rayon pool. The input streams through a buffer of
//! `BLOCK_BYTES` (256 KiB): each filled block is cut after its last `\n` and
//! the tail carries over to the next block, so memory stays bounded by the
//! block size whatever the file size (a single line longer than a block
//! grows the buffer to hold it). The block is split into one piece per
//! pool thread at newline boundaries, each piece is tokenized by an
//! allocation-free byte scanner under a `parse.chunk` span, and the pieces'
//! records are appended in file order — so the output is identical at
//! every pool width, and the error reported is the first malformed line in
//! file order even when a later piece also fails. At width 1 the whole
//! parse runs sequentially on the calling thread. The read is one `parse`
//! span carrying its `bytes`, `lines` and `edges` counts.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use parcsr_runtime::{chunk_ranges, run_chunked, Chunk};

use crate::temporal::{TemporalEdge, TemporalEdgeList};
use crate::types::{Edge, EdgeList, NodeId};

/// Read-buffer size: the unit of memory and of parallel work. Freed parse
/// buffers stay resident in the malloc heap through the build that
/// follows, so the block is kept small: on a 2-vCPU Xeon host, 4 MiB
/// blocks raised the perfbench `serve` workload's peak RSS by 7–11 MB,
/// while 256 KiB blocks left it at the line reader's level and parsed as
/// fast (the block fits in L2).
const BLOCK_BYTES: usize = 256 << 10;

const NOT_UINT: &str = "field is not an unsigned integer";

/// Errors from parsing SNAP-format text.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line: (1-based line number, content, problem).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed {
                line,
                content,
                reason,
            } => {
                write!(f, "line {line}: {reason}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Whitespace: ASCII space and `\t`–`\r` (which includes `\n`).
#[inline(always)]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Whitespace inside a line: [`is_space`] except `\n`.
#[inline(always)]
fn is_blank(b: u8) -> bool {
    b != b'\n' && is_space(b)
}

/// How many of the 8 bytes of `w` (first byte lowest) are ASCII digits
/// before the first non-digit: a byte is a digit iff its high nibble is 3
/// both as it stands and after adding 6. (An add carries into the next
/// byte only out of a byte ≥ 0xFA, which is itself a non-digit, so the
/// first non-digit is always found.)
#[inline(always)]
fn leading_digits(w: u64) -> usize {
    const HIGH_NIBBLES: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const THREES: u64 = 0x3030_3030_3030_3030;
    let as_is = (w & HIGH_NIBBLES) ^ THREES;
    let plus_six = (w.wrapping_add(0x0606_0606_0606_0606) & HIGH_NIBBLES) ^ THREES;
    ((as_is | plus_six).trailing_zeros() / 8) as usize
}

/// The value of the first `n` (1..=8) bytes of `w`, all ASCII digits: the
/// digits are shifted up so the missing ones read as leading zeros, then
/// combined into 2-, 4- and 8-digit groups by multiply-and-add.
#[inline(always)]
fn digits_value(w: u64, n: usize) -> u64 {
    let d = w.wrapping_sub(0x3030_3030_3030_3030) << (8 * (8 - n));
    let pairs = d.wrapping_mul(10).wrapping_add(d >> 8);
    let outer = (pairs & 0x0000_00FF_0000_00FF).wrapping_mul(100 + (1_000_000 << 32));
    let inner = ((pairs >> 16) & 0x0000_00FF_0000_00FF).wrapping_mul(1 + (10_000 << 32));
    outer.wrapping_add(inner) >> 32
}

/// Parses the field starting at `*i` (not whitespace): an optional `+`,
/// then ASCII digits whose value fits in `u64`, ending at whitespace or at
/// the end of `piece`. Advances `*i` past it; `None` if it is not such a
/// field.
// LINT: hot — per-field digit loop of the parse stage; must stay allocation-free.
#[inline(always)]
fn scan_field(piece: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i + usize::from(piece[*i] == b'+');
    let mut end = start;
    let mut value = 0u64;
    let mut more = true;
    if let Some(bytes) = piece[start..].first_chunk::<8>() {
        let w = u64::from_le_bytes(*bytes);
        let n = leading_digits(w);
        if n > 0 {
            value = digits_value(w, n);
        }
        end += n;
        more = n == 8;
    }
    while more {
        match piece.get(end).map(|b| b.wrapping_sub(b'0')) {
            Some(d) if d <= 9 => {
                value = value.wrapping_mul(10).wrapping_add(u64::from(d));
                end += 1;
            }
            _ => more = false,
        }
    }
    if end == start || piece.get(end).is_some_and(|&b| !is_space(b)) {
        return None;
    }
    if end - start > 19 {
        // Only a field this long can overflow: re-read it checked.
        value = piece[start..end].iter().try_fold(0u64, |acc, &b| {
            acc.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        })?;
    }
    *i = end;
    Some(value)
}

/// Tokenizes `piece` — whole lines, each `\n`-terminated except possibly
/// the last — appending `record(fields)` for every data line to `out`.
/// Returns the number of lines in the piece, or the 1-based line (within
/// the piece) and reason of the first malformed one.
// LINT: hot — per-line tokenizer of the parse stage; must stay allocation-free.
fn scan_piece<const N: usize, T>(
    piece: &[u8],
    out: &mut Vec<T>,
    record: &impl Fn([u64; N]) -> Result<T, &'static str>,
) -> Result<usize, (usize, &'static str)> {
    let len = piece.len();
    let skip_blanks = |mut i: usize| {
        while i < len && is_blank(piece[i]) {
            i += 1;
        }
        i
    };
    let mut i = 0;
    let mut line = 0;
    while i < len {
        line += 1;
        i = skip_blanks(i);
        match piece.get(i) {
            None => break,
            Some(b'\n') => {
                i += 1;
                continue;
            }
            Some(b'#' | b'%') => {
                i = piece[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(len, |k| i + k + 1);
                continue;
            }
            Some(_) => {}
        }
        let mut fields = [0u64; N];
        for slot in &mut fields {
            i = skip_blanks(i);
            if i == len || piece[i] == b'\n' {
                return Err((line, "too few fields"));
            }
            *slot = scan_field(piece, &mut i).ok_or((line, NOT_UINT))?;
        }
        i = skip_blanks(i);
        if i < len {
            if piece[i] != b'\n' {
                return Err((line, "too many fields"));
            }
            i += 1;
        }
        out.push(record(fields).map_err(|reason| (line, reason))?);
    }
    Ok(line)
}

/// Splits `block` into at most `pieces` non-empty ranges, each ending just
/// after a `\n` (or at the block's end).
fn piece_ranges(block: &[u8], pieces: usize) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for nominal in chunk_ranges(block.len(), pieces) {
        if nominal.end <= start {
            continue;
        }
        let end = block[nominal.end - 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(block.len(), |k| nominal.end + k);
        out.push(start..end);
        start = end;
    }
    out
}

/// The text of 1-based `line` of `piece`, without its line ending — what
/// `BufRead::lines` yields for it.
fn line_content(piece: &[u8], line: usize) -> String {
    let mut start = 0;
    for _ in 1..line {
        start += piece[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(piece.len() - start, |k| k + 1);
    }
    let rest = &piece[start..];
    let text = match rest.iter().position(|&b| b == b'\n') {
        Some(k) => rest[..k].strip_suffix(b"\r").unwrap_or(&rest[..k]),
        None => rest,
    };
    String::from_utf8_lossy(text).into_owned()
}

/// Parses every line of `reader` with `record`, streaming it through a
/// `block`-byte buffer (see the module docs). `block` is a parameter only
/// so tests can force lines across block boundaries.
fn read_records<const N: usize, T: Send>(
    mut reader: impl Read,
    block: usize,
    record: impl Fn([u64; N]) -> Result<T, &'static str> + Sync,
) -> Result<Vec<T>, ParseError> {
    let mut span = parcsr_obs::enter("parse");
    let width = rayon::current_num_threads().max(1);
    // The first piece of each block appends straight to `records`; the
    // others fill these buffers, appended after it in order. Each block
    // reserves room for a line every 8 bytes here, on the calling thread, so
    // workers rarely reallocate: a vector grown on a worker lives in that
    // thread's malloc arena, which kept several MB more resident through the
    // build stages that follow.
    let mut records: Vec<T> = Vec::new();
    let mut later: Vec<Vec<T>> = (1..width).map(|_| Vec::new()).collect();
    let mut buf = vec![0u8; block.max(1)];
    let (mut filled, mut lines, mut bytes) = (0, 0, 0);
    let mut eof = false;
    while !eof {
        while filled < buf.len() {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let cut = if eof {
            filled
        } else if let Some(k) = buf[..filled].iter().rposition(|&b| b == b'\n') {
            k + 1
        } else {
            // One line longer than the buffer: grow it and read on.
            buf.resize(buf.len() * 2, 0);
            continue;
        };
        let text = &buf[..cut];
        let pieces = piece_ranges(text, width);
        let outs = std::iter::once(&mut records).chain(&mut later);
        let work: Vec<_> = pieces
            .iter()
            .zip(outs)
            .enumerate()
            .map(|(index, (range, out))| {
                out.reserve(range.len() / 8);
                // A piece's edge count is unknown until it is parsed; its
                // byte length rides in the span's `chunk_len`.
                let chunk = Chunk {
                    index,
                    range: range.clone(),
                    edges: 0,
                };
                (chunk, (&text[range.clone()], out))
            })
            .collect();
        let results = run_chunked("parse.chunk", work, |_, (piece, out)| {
            scan_piece(piece, out, &record)
        });
        for (range, result) in pieces.iter().zip(results) {
            match result {
                Ok(n) => lines += n,
                Err((line, reason)) => {
                    return Err(ParseError::Malformed {
                        line: lines + line,
                        content: line_content(&text[range.clone()], line),
                        reason,
                    });
                }
            }
        }
        for out in &mut later {
            records.append(out);
        }
        bytes += cut;
        buf.copy_within(cut..filled, 0);
        filled -= cut;
    }
    span.set_args(
        parcsr_obs::SpanArgs::new()
            .bytes(bytes as u64)
            .lines(lines as u64)
            .edges(records.len() as u64),
    );
    Ok(records)
}

fn node(x: u64) -> Result<NodeId, &'static str> {
    NodeId::try_from(x).map_err(|_| "node id exceeds u32")
}

fn read_edge_list_blocks(reader: impl Read, block: usize) -> Result<EdgeList, ParseError> {
    let edges: Vec<Edge> = read_records(reader, block, |[u, v]| Ok((node(u)?, node(v)?)))?;
    Ok(EdgeList::from_pairs(edges))
}

fn read_temporal_blocks(reader: impl Read, block: usize) -> Result<TemporalEdgeList, ParseError> {
    let events = read_records(reader, block, |[u, v, t]| {
        let t = u32::try_from(t).map_err(|_| "timestamp exceeds u32")?;
        Ok(TemporalEdge::new(node(u)?, node(v)?, t))
    })?;
    let num_nodes = events
        .iter()
        .map(|e| e.u.max(e.v) as usize + 1)
        .max()
        .unwrap_or(0);
    Ok(TemporalEdgeList::new(num_nodes, events))
}

/// Parses SNAP edge-list text (`u v` per line, `#`/`%` comments, blank lines
/// allowed) from any reader, in parallel on the current rayon pool (see the
/// module docs). Node count is inferred from the maximum id.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<EdgeList, ParseError> {
    read_edge_list_blocks(reader, BLOCK_BYTES)
}

/// Reads a SNAP edge-list file.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, ParseError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Writes SNAP edge-list text (`u\tv` per line) with a small header comment.
pub fn write_edge_list<W: Write>(graph: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Nodes: {} Edges: {}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for &(u, v) in graph.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

/// Writes a SNAP edge-list file.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &EdgeList, path: P) -> io::Result<()> {
    write_edge_list(graph, File::create(path)?)
}

/// Parses temporal triplet text (`u v t` per line, comments as above).
pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<TemporalEdgeList, ParseError> {
    read_temporal_blocks(reader, BLOCK_BYTES)
}

/// Reads a temporal triplet file.
pub fn read_temporal_edge_list_file<P: AsRef<Path>>(
    path: P,
) -> Result<TemporalEdgeList, ParseError> {
    read_temporal_edge_list(BufReader::new(File::open(path)?))
}

/// Writes temporal triplet text (`u\tv\tt` per line).
pub fn write_temporal_edge_list<W: Write>(graph: &TemporalEdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Nodes: {} Events: {} Frames: {}",
        graph.num_nodes(),
        graph.num_events(),
        graph.num_frames()
    )?;
    for e in graph.events() {
        writeln!(w, "{}\t{}\t{}", e.u, e.v, e.t)?;
    }
    w.flush()
}

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::oracle::{outcome, Outcome};
    use parcsr_runtime::pool::with_processors;
    use std::io::Cursor;

    fn edges_in_blocks(text: &str, block: usize, p: usize) -> Outcome<EdgeList> {
        outcome(with_processors(p, || {
            read_edge_list_blocks(text.as_bytes(), block)
        }))
    }

    fn malformed_line(text: &str, block: usize, p: usize) -> (usize, &'static str, String) {
        edges_in_blocks(text, block, p).unwrap_err()
    }

    #[test]
    fn every_block_size_matches_the_line_reader() {
        let mut texts: Vec<String> = (0..12)
            .map(|seed| oracle::ascii_text(seed, 2, 30))
            .collect();
        texts.push(
            "0 1\n12345 67890\r\n# a comment far longer than the smallest blocks\n2 3".into(),
        );
        for text in &texts {
            let expected = outcome(oracle::read_edge_list(Cursor::new(text)));
            for block in 1..=64 {
                for p in [1, 2] {
                    assert_eq!(
                        edges_in_blocks(text, block, p),
                        expected,
                        "block {block}, p = {p}, text {text:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn temporal_blocks_match_the_line_reader() {
        for seed in 0..8 {
            let text = oracle::ascii_text(seed, 3, 30);
            let expected = outcome(oracle::read_temporal_edge_list(Cursor::new(&text)));
            for block in [1, 2, 3, 5, 8, 13, 21, 34, 55, 64] {
                let got = outcome(with_processors(2, || {
                    read_temporal_blocks(text.as_bytes(), block)
                }));
                assert_eq!(got, expected, "block {block}, text {text:?}");
            }
        }
    }

    #[test]
    fn a_line_straddling_two_blocks_is_parsed_whole() {
        // Block 8 ends inside "12345 67890": the tail carries over and the
        // buffer grows to hold the line.
        let text = "0 1\n12345 67890\n2 3\n";
        for block in [4, 8, 9] {
            let g = edges_in_blocks(text, block, 2).unwrap();
            assert_eq!(g.edges(), [(0, 1), (12345, 67890), (2, 3)]);
        }
    }

    #[test]
    fn a_comment_longer_than_a_block_is_skipped() {
        let text = format!("# {}\n0 1\n%{}\n2 3", "c".repeat(100), "%".repeat(70));
        for block in [1, 16, 64] {
            let g = edges_in_blocks(&text, block, 2).unwrap();
            assert_eq!(g.edges(), [(0, 1), (2, 3)]);
        }
    }

    #[test]
    fn an_error_in_a_later_block_counts_every_earlier_line() {
        let mut text: String = (0..50).map(|i| format!("{i} {i}\n")).collect();
        text.push_str("# comment\n\n7 x\r\n8 8\n");
        for block in [5, 16, 64] {
            for p in [1, 2, 3] {
                assert_eq!(
                    malformed_line(&text, block, p),
                    (53, NOT_UINT, "7 x".to_string()),
                    "block {block}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn the_first_malformed_line_in_file_order_wins() {
        // Two pieces at p = 2, each with its own malformed line; the later
        // piece fails too, but the earlier line is the one reported.
        let mut text = String::from("0 1\n0 x\n");
        text.push_str(&"1 2\n".repeat(200));
        text.push_str("3 4 5\n");
        let pieces = piece_ranges(text.as_bytes(), 2);
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].end < text.len() - 6, "both errors in one piece");
        for block in [BLOCK_BYTES, 400, 16] {
            assert_eq!(
                malformed_line(&text, block, 2),
                (2, NOT_UINT, "0 x".to_string())
            );
        }
        let fixed = text.replace("0 x", "0 9");
        assert_eq!(
            malformed_line(&fixed, BLOCK_BYTES, 2),
            (203, "too many fields", "3 4 5".to_string())
        );
    }

    #[test]
    fn pieces_end_at_newlines_and_cover_the_block() {
        let text = b"0 1\n2 3\n4 5\n";
        assert_eq!(piece_ranges(text, 2), [0..8, 8..12]);
        assert_eq!(piece_ranges(text, 1), vec![0..12]);
        assert_eq!(piece_ranges(text, 12), [0..4, 4..8, 8..12]);
        assert_eq!(piece_ranges(b"12345", 3), vec![0..5]);
        assert!(piece_ranges(b"", 3).is_empty());
    }

    #[test]
    fn error_content_drops_only_a_terminated_line_ending() {
        assert_eq!(malformed_line("0 1\r\nx\r\n", 64, 1).2, "x");
        assert_eq!(malformed_line("0 1\nx\r", 64, 1).2, "x\r");
        assert_eq!(
            malformed_line("\n\n 1 \t", 64, 1),
            (3, "too few fields", " 1 \t".to_string())
        );
    }

    #[test]
    fn word_digit_helpers_match_str_parse() {
        let word = |s: &[u8]| {
            let mut b = [b' '; 8];
            b[..s.len()].copy_from_slice(s);
            u64::from_le_bytes(b)
        };
        for text in [
            "7", "42", "901", "1234", "00005", "987654", "1000000", "99999999",
        ] {
            let w = word(text.as_bytes());
            assert_eq!(leading_digits(w), text.len(), "{text}");
            assert_eq!(
                digits_value(w, text.len()),
                text.parse::<u64>().unwrap(),
                "{text}"
            );
        }
        for byte in 0..=255u8 {
            let w = word(&[byte, b'1']);
            assert_eq!(leading_digits(w) > 0, byte.is_ascii_digit(), "{byte:#x}");
        }
        let mut i = 0;
        assert_eq!(scan_field(b"123456789012 ", &mut i), Some(123_456_789_012));
        assert_eq!(i, 12);
    }

    #[test]
    fn fields_follow_u64_from_str() {
        let ok = edges_in_blocks("+0 00000000000000000000000042\n", 64, 1).unwrap();
        assert_eq!(ok.edges(), [(0, 42)]);
        for bad in ["+ 1", "1 -1", "1 ++1", "1 1x", "1 18446744073709551616"] {
            assert_eq!(malformed_line(bad, 64, 1).1, NOT_UINT, "{bad:?}");
        }
        assert_eq!(
            malformed_line("1 18446744073709551615", 64, 1).1,
            "node id exceeds u32"
        );
        assert_eq!(
            malformed_line("1 4294967296", 64, 1).1,
            "node id exceeds u32"
        );
    }

    #[test]
    fn io_errors_surface_as_io() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        assert!(matches!(
            read_edge_list_blocks(Failing, 64),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn parses_snap_format() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 3\n0\t1\n1 2\n\n3   0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edges(), [(0, 1), (1, 2), (3, 0)]);
    }

    #[test]
    fn percent_comments_and_whitespace() {
        let text = "% matrix-market style comment\n  5 6  \n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.edges(), [(5, 6)]);
        assert_eq!(g.num_nodes(), 7);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list(Cursor::new("0 x\n")).unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 1, .. }),
            "{err}"
        );

        let err = read_edge_list(Cursor::new("0\n")).unwrap_err();
        assert!(err.to_string().contains("too few fields"));

        let err = read_edge_list(Cursor::new("0 1 2\n")).unwrap_err();
        assert!(err.to_string().contains("too many fields"));
    }

    #[test]
    fn rejects_oversized_node_ids() {
        let err = read_edge_list(Cursor::new("0 4294967296\n")).unwrap_err();
        assert!(err.to_string().contains("exceeds u32"));
    }

    #[test]
    fn roundtrip_edge_list() {
        let g = EdgeList::new(5, vec![(0, 1), (3, 4), (2, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn roundtrip_temporal() {
        let t = TemporalEdgeList::new(
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(2, 3, 1),
                TemporalEdge::new(0, 1, 2),
            ],
        );
        let mut buf = Vec::new();
        write_temporal_edge_list(&t, &mut buf).unwrap();
        let back = read_temporal_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn temporal_parse_checks_triplets() {
        let err = read_temporal_edge_list(Cursor::new("0 1\n")).unwrap_err();
        assert!(err.to_string().contains("too few fields"));
        let ok = read_temporal_edge_list(Cursor::new("# c\n1 2 3\n")).unwrap();
        assert_eq!(ok.num_events(), 1);
        assert_eq!(ok.events()[0], TemporalEdge::new(1, 2, 3));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("parcsr-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        write_edge_list_file(&g, &path).unwrap();
        let back = read_edge_list_file(&path).unwrap();
        assert_eq!(back.edges(), g.edges());
        std::fs::remove_file(&path).ok();
    }
}
