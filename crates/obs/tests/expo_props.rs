//! Property tests for the exposition layer: arbitrary snapshots — with
//! hostile metric names — must render to a document the in-tree parser
//! accepts with every value intact, and hostile label values must survive
//! escape → parse. Runs without the `enabled`
//! feature: [`parcsr_obs::expo`] is pure string work over an already-built
//! [`MetricsSnapshot`].

use parcsr_obs::expo::{self, FamilyKind};
use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot};
use parcsr_obs::serve::{DegreeClass, QueryKind, WindowCell};
use proptest::prelude::*;

/// Name fragments chosen to stress sanitization: dots, dashes, spaces,
/// quotes, backslashes, unicode, empties, and near-collisions that only
/// differ in the character sanitization folds to `_`.
const NAME_PARTS: [&str; 10] = [
    "query",
    "win",
    "a.b",
    "a_b",
    "a-b",
    "",
    "has edge",
    "p99\"q",
    "back\\slash",
    "naïve",
];

/// Label values chosen to stress escaping, including the three escaped
/// characters and sequences that look like escapes.
const LABEL_VALUES: [&str; 8] = [
    "hub",
    "low",
    "",
    "he said \"hi\"",
    "a\\b",
    "line\nbreak",
    "\\n",
    "trailing\\",
];

fn dotted_name(parts: &[usize]) -> String {
    parts
        .iter()
        .map(|&i| NAME_PARTS[i % NAME_PARTS.len()])
        .collect::<Vec<_>>()
        .join(".")
}

fn arb_summary() -> impl Strategy<Value = HistogramSummary> {
    (0u64..1 << 40, 0u64..1 << 50, 0u64..1 << 40).prop_map(|(count, sum, max)| HistogramSummary {
        count,
        sum,
        max,
        p50: max / 2,
        p95: max.saturating_sub(max / 16),
        p99: max,
    })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    let name = prop::collection::vec(0usize..NAME_PARTS.len(), 1..4);
    let counters = prop::collection::vec((name.clone(), 0u64..1 << 50), 0..6);
    let gauges = prop::collection::vec(
        (
            prop::collection::vec(0usize..NAME_PARTS.len(), 1..4),
            -(1i64 << 50)..1 << 50,
        ),
        0..6,
    );
    let hists = prop::collection::vec(
        (
            prop::collection::vec(0usize..NAME_PARTS.len(), 1..4),
            arb_summary(),
        ),
        0..4,
    );
    let windows = prop::collection::vec((0usize..5, 0usize..3, arb_summary()), 0..5);
    (counters, gauges, hists, 0u64..1000, windows).prop_map(
        |(counters, gauges, hists, window, windows)| {
            let mut snap = MetricsSnapshot::default();
            for (parts, v) in counters {
                snap.counters.push((dotted_name(&parts), v));
            }
            for (parts, v) in gauges {
                snap.gauges.push((dotted_name(&parts), v));
            }
            for (parts, s) in hists {
                snap.histograms.push((dotted_name(&parts), s));
            }
            // (kind, class) cells are unique in a real `QuerySlabs::summarize`
            // (one cell per grid slot); duplicates are an upstream bug that
            // expo-check flags, not something render() merges away.
            let mut cells_seen = std::collections::BTreeSet::new();
            snap.window = window;
            for (k, c, s) in windows {
                if !cells_seen.insert((k, c)) {
                    continue;
                }
                snap.windows.push(WindowCell {
                    kind: QueryKind::ALL[k],
                    class: DegreeClass::ALL[c],
                    phases: [s; 3],
                    summary: s,
                });
            }
            snap
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The core round-trip: render → parse never fails, the document is
    /// EOF-terminated, and the sample count matches the snapshot exactly
    /// (1 liveness gauge, 1 per counter/gauge, 6 per summary family
    /// member: 3 quantiles + sum/count/max).
    #[test]
    fn render_parse_round_trip(snap in arb_snapshot()) {
        let text = expo::render(&snap);
        let expo = expo::parse(&text).unwrap();
        prop_assert!(expo.saw_eof);

        let expected = 1
            + snap.counters.len()
            + snap.gauges.len()
            + 6 * snap.histograms.len()
            + 6 * snap.windows.len();
        prop_assert_eq!(expo.samples.len(), expected);

        // Exposition names are unique per (name, label set).
        let mut keys: Vec<(String, Vec<(String, String)>)> = expo
            .samples
            .iter()
            .map(|s| {
                let mut labels = s.labels.clone();
                labels.sort();
                (s.name.clone(), labels)
            })
            .collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate (name, labels) series");

        // Values survive the trip: counter values as a multiset (names are
        // sanitized, values are not; all fit f64 exactly under 2^53).
        let mut want: Vec<f64> = snap.counters.iter().map(|&(_, v)| v as f64).collect();
        let counter_families: Vec<&str> = expo
            .types
            .iter()
            .filter(|t| t.kind == FamilyKind::Counter)
            .map(|t| t.name.as_str())
            .collect();
        let mut got: Vec<f64> = expo
            .samples
            .iter()
            .filter(|s| counter_families.contains(&s.name.as_str()))
            .map(|s| s.value)
            .collect();
        want.sort_by(f64::total_cmp);
        got.sort_by(f64::total_cmp);
        prop_assert_eq!(got, want);

        // Every sample belongs to a family declared earlier in the text.
        for s in &expo.samples {
            let family = expo.types.iter().find(|t| {
                t.name == s.name
                    || ["_sum", "_count", "_max"]
                        .iter()
                        .any(|suf| s.name == format!("{}{suf}", t.name))
            });
            prop_assert!(family.is_some(), "undeclared family for {}", s.name);
            prop_assert!(family.unwrap().line < s.line);
        }
    }

    /// Label escaping round-trips: any label value, hostile or not,
    /// survives `escape_label` → a labeled sample line → `parse` with its
    /// raw bytes intact, next to a second label and a quantile.
    #[test]
    fn escaped_label_values_round_trip_through_parse(
        picks in prop::collection::vec(0usize..LABEL_VALUES.len(), 1..4),
        other in 0usize..LABEL_VALUES.len(),
        value in 0u64..1 << 50,
    ) {
        let raw: String = picks.iter().map(|&i| LABEL_VALUES[i]).collect();
        let other = LABEL_VALUES[other];
        let text = format!(
            "m{{k=\"{}\",j=\"{}\",quantile=\"0.99\"}} {value}\n# EOF\n",
            expo::escape_label(&raw),
            expo::escape_label(other),
        );
        let doc = expo::parse(&text).unwrap();
        prop_assert_eq!(doc.samples.len(), 1);
        let sample = &doc.samples[0];
        prop_assert_eq!(sample.label("k"), Some(raw.as_str()));
        prop_assert_eq!(sample.label("j"), Some(other));
        prop_assert_eq!(sample.label("quantile"), Some("0.99"));
        prop_assert_eq!(sample.value, value as f64);
    }

    /// The JSON stats document built from the same snapshot always parses
    /// with the in-tree JSON parser (names go in verbatim, so string
    /// escaping is exercised by the same hostile inputs).
    #[test]
    fn stats_json_always_parses(snap in arb_snapshot()) {
        let doc = expo::snapshot_json(&snap);
        let text = doc.pretty();
        prop_assert!(parcsr_obs::json::Json::parse(&text).is_ok(), "unparseable: {text}");
    }
}
