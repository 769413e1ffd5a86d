//! Validator for admin-plane metric expositions (`cargo xtask expo-check`).
//!
//! CI runs the closed-loop smoke with `--admin-port`, scrapes it mid-run
//! with `parcsr watch --once --out <file>`, and feeds the scrape through
//! this gate — the cheapest end-to-end proof that the live exposition is
//! well-formed, the way `check-trace` proves the offline trace is.
//!
//! Structural parsing (grammar, label escaping, `# EOF` termination) lives
//! in [`parcsr_obs::expo::parse`], shared with the watch client; this
//! module adds the semantic rules:
//!
//! * every family is declared exactly once, with both a `# HELP` and a
//!   `# TYPE` line, before any of its samples;
//! * every sample belongs to a declared family — by exact name for
//!   counters/gauges, or via the `_sum` / `_count` / `_max` suffixes for
//!   summaries;
//! * series are unique: no two samples share a name and label set;
//! * values are finite; counter samples and summary `_sum` / `_count`
//!   series are non-negative (a negative count means the merge path lost
//!   its mind);
//! * summary base-name samples carry a `quantile` label in `(0, 1]`, and
//!   no other family kind uses one;
//! * the document has at least one sample (an empty scrape means the
//!   target served nothing, not that all is quiet — the renderer always
//!   emits `parcsr_up`).

use parcsr_obs::expo::{self, FamilyKind, Sample, TypeDecl};

/// Derived series suffixes a summary family owns.
const SUMMARY_SUFFIXES: [&str; 3] = ["_sum", "_count", "_max"];

fn find_family<'a>(types: &'a [TypeDecl], sample: &Sample) -> Option<&'a TypeDecl> {
    // Exact name first (covers counter/gauge/untyped and summary quantile
    // samples), then the summary suffix forms.
    types.iter().find(|t| t.name == sample.name).or_else(|| {
        types.iter().find(|t| {
            t.kind == FamilyKind::Summary
                && SUMMARY_SUFFIXES
                    .iter()
                    .any(|suf| sample.name == format!("{}{suf}", t.name))
        })
    })
}

fn at(sample: &Sample) -> String {
    format!("line {} (`{}`)", sample.line, sample.name)
}

/// Validates one exposition document. Returns the sample count on success,
/// the first violation on failure.
pub fn check_expo_text(text: &str) -> Result<usize, String> {
    let doc = expo::parse(text)?;

    // Family declarations: unique, and HELP/TYPE paired per name.
    let mut type_names: Vec<&str> = doc.types.iter().map(|t| t.name.as_str()).collect();
    type_names.sort_unstable();
    if let Some(dup) = type_names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("family `{}` has more than one TYPE line", dup[0]));
    }
    let mut help_names: Vec<&str> = doc.helps.iter().map(|(n, _)| n.as_str()).collect();
    help_names.sort_unstable();
    if let Some(dup) = help_names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("family `{}` has more than one HELP line", dup[0]));
    }
    for t in &doc.types {
        if help_names.binary_search(&t.name.as_str()).is_err() {
            return Err(format!(
                "family `{}` has a TYPE line but no HELP line",
                t.name
            ));
        }
    }
    for name in &help_names {
        if type_names.binary_search(name).is_err() {
            return Err(format!("family `{name}` has a HELP line but no TYPE line"));
        }
    }

    if doc.samples.is_empty() {
        return Err("exposition has no samples (empty scrape)".to_string());
    }

    // Series uniqueness: (name, sorted label set).
    let mut keys: Vec<(String, Vec<(String, String)>)> = doc
        .samples
        .iter()
        .map(|s| {
            let mut labels = s.labels.clone();
            labels.sort();
            (s.name.clone(), labels)
        })
        .collect();
    keys.sort();
    if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "duplicate series `{}` (same name and labels)",
            dup[0].0
        ));
    }

    for sample in &doc.samples {
        if !sample.value.is_finite() {
            return Err(format!("{}: non-finite value {}", at(sample), sample.value));
        }
        let family = find_family(&doc.types, sample)
            .ok_or_else(|| format!("{}: sample without a TYPE declaration", at(sample)))?;
        if family.line > sample.line {
            return Err(format!(
                "{}: sample appears before its TYPE line ({})",
                at(sample),
                family.line
            ));
        }

        let quantile = sample.label("quantile");
        let is_summary_base = family.kind == FamilyKind::Summary && sample.name == family.name;
        match family.kind {
            FamilyKind::Counter => {
                if sample.value < 0.0 {
                    return Err(format!("{}: negative counter value", at(sample)));
                }
            }
            FamilyKind::Summary => {
                if is_summary_base {
                    let q = quantile.ok_or_else(|| {
                        format!("{}: summary sample without a quantile label", at(sample))
                    })?;
                    match q.parse::<f64>() {
                        Ok(q) if q > 0.0 && q <= 1.0 => {}
                        _ => {
                            return Err(format!(
                                "{}: quantile label {q:?} is not in (0, 1]",
                                at(sample)
                            ))
                        }
                    }
                } else if sample.name != format!("{}_max", family.name) && sample.value < 0.0 {
                    return Err(format!("{}: negative summary aggregate value", at(sample)));
                }
            }
            FamilyKind::Gauge | FamilyKind::Untyped => {}
        }
        if quantile.is_some() && !is_summary_base {
            return Err(format!(
                "{}: quantile label on a non-summary series",
                at(sample)
            ));
        }
    }

    Ok(doc.samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot};
    use parcsr_obs::serve::{DegreeClass, QueryKind, WindowCell};

    fn live_render() -> String {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("queries.total".to_string(), 12));
        snap.gauges.push(("query.win.epoch".to_string(), 4));
        snap.histograms.push((
            "query.has_edge_ns".to_string(),
            HistogramSummary {
                count: 3,
                sum: 300,
                max: 200,
                p50: 50,
                p95: 200,
                p99: 200,
            },
        ));
        let summary = HistogramSummary {
            count: 7,
            sum: 700,
            max: 400,
            p50: 100,
            p95: 400,
            p99: 400,
        };
        snap.window = 3;
        snap.windows.push(WindowCell {
            kind: QueryKind::SplitSearch,
            class: DegreeClass::Hub,
            phases: [summary; 3],
            summary,
        });
        expo::render(&snap)
    }

    #[test]
    fn rendered_snapshot_passes() {
        let n = check_expo_text(&live_render()).unwrap();
        assert_eq!(n, 1 + 1 + 1 + 6 + 6);
    }

    #[test]
    fn duplicate_type_is_rejected() {
        let text = "# HELP m m\n# TYPE m counter\n# TYPE m counter\nm 1\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("more than one TYPE"));
    }

    #[test]
    fn type_without_help_is_rejected() {
        let text = "# TYPE m counter\nm 1\n# EOF\n";
        assert!(check_expo_text(text).unwrap_err().contains("no HELP"));
        let text = "# HELP m m\nm 1\n# EOF\n";
        assert!(check_expo_text(text).unwrap_err().contains("no TYPE"));
    }

    #[test]
    fn undeclared_sample_is_rejected() {
        let text = "# HELP m m\n# TYPE m counter\nm 1\nrogue 2\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("without a TYPE declaration"));
    }

    #[test]
    fn sample_before_its_declaration_is_rejected() {
        let text = "m 1\n# HELP m m\n# TYPE m counter\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("before its TYPE line"));
    }

    #[test]
    fn duplicate_series_is_rejected() {
        let text = "# HELP m m\n# TYPE m counter\nm 1\nm 2\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("duplicate series"));
        // Same name, different labels: fine.
        let text = "# HELP m m\n# TYPE m gauge\nm{k=\"a\"} 1\nm{k=\"b\"} 2\n# EOF\n";
        assert_eq!(check_expo_text(text), Ok(2));
    }

    #[test]
    fn negative_counter_is_rejected() {
        let text = "# HELP m m\n# TYPE m counter\nm -1\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("negative counter"));
    }

    #[test]
    fn non_finite_value_is_rejected() {
        let text = "# HELP m m\n# TYPE m gauge\nm NaN\n# EOF\n";
        assert!(check_expo_text(text).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn summary_quantile_rules_hold() {
        let text = "# HELP s s\n# TYPE s summary\ns 1\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("without a quantile label"));
        let text = "# HELP s s\n# TYPE s summary\ns{quantile=\"1.5\"} 1\n# EOF\n";
        assert!(check_expo_text(text).unwrap_err().contains("not in (0, 1]"));
        let text = "# HELP g g\n# TYPE g gauge\ng{quantile=\"0.5\"} 1\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("non-summary series"));
    }

    #[test]
    fn empty_scrape_is_rejected() {
        assert!(check_expo_text("# EOF\n")
            .unwrap_err()
            .contains("no samples"));
    }

    #[test]
    fn negative_summary_sum_is_rejected() {
        let text = "# HELP s s\n# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum -5\n# EOF\n";
        assert!(check_expo_text(text)
            .unwrap_err()
            .contains("negative summary aggregate"));
    }
}
