//! The block-parallel SNAP readers against the line-based reader they
//! replaced, and against mutated input.
//!
//! * Differential: on seeded ASCII texts the new readers return exactly
//!   what the old one did — the same edges (or events) and node count, or
//!   the same error line, reason and content — at pool widths 1, 2 and 7.
//! * Mutation: every truncation and every single-bit flip of a small
//!   corpus yields a typed error or a structure whose every id is below its
//!   node count, and never panics; mutants that stay ASCII still agree
//!   with the old reader.

mod oracle;

use std::io::Cursor;

use proptest::prelude::*;

use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::io::{
    read_edge_list, read_temporal_edge_list, write_edge_list, write_temporal_edge_list, ParseError,
};
use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};
use parcsr_runtime::pool::with_processors;

use oracle::{outcome, Outcome};

const WIDTHS: [usize; 3] = [1, 2, 7];

fn edges_at(p: usize, text: &[u8]) -> Outcome<EdgeList> {
    outcome(with_processors(p, || read_edge_list(Cursor::new(text))))
}

fn events_at(p: usize, text: &[u8]) -> Outcome<TemporalEdgeList> {
    outcome(with_processors(p, || {
        read_temporal_edge_list(Cursor::new(text))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edge_reader_matches_the_line_reader(seed in any::<u64>()) {
        let text = oracle::ascii_text(seed, 2, 40);
        let expected = outcome(oracle::read_edge_list(Cursor::new(&text)));
        for p in WIDTHS {
            prop_assert_eq!(&edges_at(p, text.as_bytes()), &expected, "p = {}, text {:?}", p, text);
        }
    }

    #[test]
    fn temporal_reader_matches_the_line_reader(seed in any::<u64>()) {
        let text = oracle::ascii_text(seed, 3, 40);
        let expected = outcome(oracle::read_temporal_edge_list(Cursor::new(&text)));
        for p in WIDTHS {
            prop_assert_eq!(&events_at(p, text.as_bytes()), &expected, "p = {}, text {:?}", p, text);
        }
    }
}

#[test]
fn generated_texts_exercise_both_outcomes() {
    let (mut ok, mut malformed) = (0, 0);
    for seed in 0..200 {
        let text = oracle::ascii_text(seed, 2, 40);
        match oracle::read_edge_list(Cursor::new(&text)) {
            Ok(_) => ok += 1,
            Err(ParseError::Malformed { .. }) => malformed += 1,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(
        ok >= 40 && malformed >= 40,
        "{ok} ok / {malformed} malformed"
    );
}

/// Every truncation, then every single-bit flip, of `text`.
fn mutants(text: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncations = (0..=text.len()).map(|n| text[..n].to_vec());
    let flips = (0..text.len() * 8).map(|bit| {
        let mut m = text.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    });
    truncations.chain(flips)
}

fn line_count(text: &[u8]) -> usize {
    text.split(|&b| b == b'\n').count()
}

fn check_mutant<T>(
    mutant: &[u8],
    p: usize,
    outcome: &Outcome<T>,
    ids: impl Fn(&T) -> (usize, Vec<NodeId>),
) {
    match outcome {
        Ok(value) => {
            let (num_nodes, ids) = ids(value);
            assert!(
                ids.iter().all(|&x| (x as usize) < num_nodes),
                "p = {p}: an id is >= {num_nodes} for {mutant:?}"
            );
        }
        Err((line, _, _)) => assert!(
            (1..=line_count(mutant)).contains(line),
            "p = {p}: error line {line} outside the text {mutant:?}"
        ),
    }
}

fn edge_corpus() -> Vec<Vec<u8>> {
    let mut written = Vec::new();
    write_edge_list(&rmat(RmatParams::new(64, 24, 7)), &mut written).unwrap();
    let hand = b"% header\r\n  0\t1\r\n\n+2 003\n# 4 5\n4294967295 0\n\x0b6\x0c7".to_vec();
    vec![written, hand]
}

#[test]
fn mutated_edge_text_gives_an_error_or_a_valid_edge_list() {
    for text in edge_corpus() {
        for mutant in mutants(&text) {
            let expected = mutant
                .is_ascii()
                .then(|| outcome(oracle::read_edge_list(Cursor::new(&mutant))));
            for p in [1, 2] {
                let got = edges_at(p, &mutant);
                check_mutant(&mutant, p, &got, |g| {
                    let ids = g.edges().iter().flat_map(|&(u, v)| [u, v]).collect();
                    (g.num_nodes(), ids)
                });
                if let Some(expected) = &expected {
                    assert_eq!(&got, expected, "p = {p}, mutant {mutant:?}");
                }
            }
        }
    }
}

#[test]
fn mutated_temporal_text_gives_an_error_or_a_valid_event_list() {
    let events = (0..12u32)
        .map(|i| TemporalEdge::new(i % 5, (i * 7) % 9, i / 3))
        .collect();
    let mut text = Vec::new();
    write_temporal_edge_list(&TemporalEdgeList::new(9, events), &mut text).unwrap();
    for mutant in mutants(&text) {
        let expected = mutant
            .is_ascii()
            .then(|| outcome(oracle::read_temporal_edge_list(Cursor::new(&mutant))));
        for p in [1, 2] {
            let got = events_at(p, &mutant);
            check_mutant(&mutant, p, &got, |t| {
                let ids = t.events().iter().flat_map(|e| [e.u, e.v]).collect();
                (t.num_nodes(), ids)
            });
            if let Some(expected) = &expected {
                assert_eq!(&got, expected, "p = {p}, mutant {mutant:?}");
            }
        }
    }
}

#[test]
fn non_ascii_bytes_differ_from_the_line_reader_only_as_documented() {
    // A non-ASCII byte in a data line is a malformed field (the line
    // reader failed the whole read with an invalid-UTF-8 i/o error) ...
    let err = read_edge_list(Cursor::new(b"0 1\n2 \xff3\n".as_slice())).unwrap_err();
    assert!(
        matches!(
            err,
            ParseError::Malformed {
                line: 2,
                reason: "field is not an unsigned integer",
                ..
            }
        ),
        "{err}"
    );
    // ... Unicode whitespace no longer separates fields ...
    let err = read_edge_list(Cursor::new("0\u{a0}1\n")).unwrap_err();
    assert!(
        matches!(err, ParseError::Malformed { line: 1, .. }),
        "{err}"
    );
    // ... and a comment body may hold any bytes.
    let g = read_edge_list(Cursor::new(b"# caf\xe9 \xff\n0 1\n".as_slice())).unwrap();
    assert_eq!(g.edges(), [(0, 1)]);
}
