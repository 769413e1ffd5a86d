//! The spans each build path records. Presorted input takes the paper's
//! path alone (`degree` → `scan` → `scatter`, no sort); any other order
//! adds the per-row `sort`. One test function, because spans land in a
//! process-global sink; the span checks run only when `parcsr-obs` is
//! built with its `enabled` feature, the timing checks always.

use parcsr::CsrBuilder;
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::EdgeList;

/// Builds `graph` and returns the stage timings' `sort_ms`, the names of
/// the calling thread's top-level spans in order, and the names of every
/// other span recorded.
fn build_traced(graph: &EdgeList) -> (f64, Vec<&'static str>, Vec<&'static str>) {
    let _ = parcsr_obs::drain();
    let (_, timings) = CsrBuilder::new().processors(2).build_timed(graph);
    let (stages, nested): (Vec<_>, Vec<_>) = parcsr_obs::drain()
        .into_iter()
        .partition(|r| r.tid == 0 && r.depth == 0);
    let names = |v: Vec<parcsr_obs::SpanRecord>| v.into_iter().map(|r| r.name).collect();
    (timings.sort_ms, names(stages), names(nested))
}

#[test]
fn presorted_input_records_only_the_paper_stages() {
    parcsr_obs::set_enabled(true);
    parcsr_obs::set_trace_sample(1);
    // True only when recording is compiled in.
    let recording = parcsr_obs::is_enabled();
    let unsorted = rmat(RmatParams::new(1 << 10, 30_000, 4));
    let presorted = unsorted.sorted_by_source();
    assert!(!unsorted.is_sorted_by_source());

    let (sort_ms, stages, nested) = build_traced(&presorted);
    assert_eq!(sort_ms, 0.0);
    let (unsorted_sort_ms, unsorted_stages, unsorted_nested) = build_traced(&unsorted);
    assert!(unsorted_sort_ms > 0.0);
    parcsr_obs::set_enabled(false);

    if recording {
        assert_eq!(stages, ["degree", "scan", "scatter"]);
        assert!(!nested.iter().any(|n| n.starts_with("sort")), "{nested:?}");
        assert_eq!(unsorted_stages, ["degree", "scan", "scatter", "sort"]);
        assert!(
            unsorted_nested.contains(&"sort.chunk"),
            "{unsorted_nested:?}"
        );
    } else {
        assert!(stages.is_empty() && unsorted_stages.is_empty());
    }
}
