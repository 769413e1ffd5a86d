//! Regression test for the first global serving window's length: window 0
//! opens when the process-global slabs first record, not at the span-clock
//! origin (the first span anywhere in the process). Timing window 0 from
//! the origin understated `query.win.qps`, `parcsr_history_qps` and
//! `query.win.duration_ns` for the first window.
//!
//! Needs the `enabled` feature. Runs in its own integration-test binary
//! with exactly one `#[test]`, because the global slabs, history ring and
//! window log are process-wide.
#![cfg(feature = "enabled")]

use std::time::{Duration, Instant};

use parcsr_obs::{self as obs, serve};

const IDLE: Duration = Duration::from_millis(60);

#[test]
fn first_global_window_opens_at_the_first_record() {
    obs::set_enabled(true);
    let since_span = Instant::now();
    obs::with_span("setup", || std::hint::black_box(0));
    std::thread::sleep(IDLE);

    serve::query_start().finish(serve::QueryKind::Neighbors, || 3);
    assert_eq!(serve::rotate_window(), Some(0));
    let since_span = since_span.elapsed().as_nanos() as u64;

    let history = serve::history_snapshot();
    let logged = serve::drain_window_log();
    assert_eq!(history.len(), 1);
    assert_eq!(logged.len(), 1);
    for w in [&history[0], &logged[0]] {
        assert_eq!(w.window, 0);
        assert_eq!(w.queries(), 1);
        assert!(
            w.dur_ns() < since_span,
            "window 0 lasted {} ns, the span was {since_span} ns ago",
            w.dur_ns()
        );
        assert!(
            w.dur_ns() < IDLE.as_nanos() as u64 / 2,
            "window 0 lasted {} ns: it includes the idle time before the first record",
            w.dur_ns()
        );
    }
    let gauge = obs::snapshot_all()
        .gauges
        .into_iter()
        .find(|(name, _)| name == "query.win.duration_ns")
        .map(|(_, v)| v);
    assert_eq!(gauge, Some(history[0].dur_ns() as i64));
}
