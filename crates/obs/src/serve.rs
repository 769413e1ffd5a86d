//! Serving telemetry: sharded per-worker metric slabs and sliding-window
//! histograms for per-query SLO accounting.
//!
//! The build-time obs stack (spans, cumulative histograms) answers "where
//! did this run spend its time"; a query *server* needs a different shape:
//! "what were p50/p95/p99 and qps over the last few hundred milliseconds,
//! per query type, per degree class". This module provides that shape,
//! mirroring pelikan's metrics layout:
//!
//! * [`WindowedHistogram`] — a ring of the existing log-bucketed
//!   [`Histogram`]s with epoch rotation. Recording always lands in the live
//!   epoch's histogram; [`WindowedHistogram::rotate`] completes the live
//!   window and clears the oldest retained one for reuse. Completed windows
//!   stay readable for `windows - 1` further rotations.
//! * [`QuerySlabs`] — cache-line-padded per-worker shards, each holding one
//!   `(overall, windowed)` histogram pair per `(QueryKind, DegreeClass)`
//!   cell. Workers record into their own shard with no sharing; readers
//!   merge shards on demand ([`Histogram::merge_into`] — deterministic
//!   bucketing makes a sharded merge bit-identical to single-slab
//!   recording).
//! * Per-cell **phase decomposition** ([`QueryPhase`]): each cell carries a
//!   `queue`/`exec`/`reply` triple of `(overall, windowed)` histogram pairs
//!   next to the end-to-end pair, fed by [`QuerySlabs::record_query`]. The
//!   phases partition the end-to-end time exactly, so per-window phase sums
//!   never exceed the end-to-end sum (`check-trace` enforces this on the
//!   exported events).
//! * A per-shard **tail-exemplar reservoir** ([`Exemplar`]): the
//!   [`EXEMPLARS_PER_SHARD`] slowest queries of the live window with their
//!   full phase breakdown, rotated with the window. Admission is gated on a
//!   relaxed floor load, so the common (fast-query) path stays wait-free.
//! * **One record per window** ([`WindowSummary`]):
//!   [`QuerySlabs::summarize`] merges a window's non-empty cells (with their
//!   phases) and its tail exemplars once. Every view renders that record:
//!   the Chrome-trace counter events, the exposition and JSON scrapes, and
//!   the history endpoint.
//! * A **history ring** ([`HistoryRing`]): the last [`HISTORY_WINDOWS`]
//!   window summaries, the data behind the admin plane's `history`
//!   endpoint and `parcsr watch`'s sparklines.
//! * A process-global facade ([`query_start`], [`rotate_window`],
//!   [`drain_window_log`], [`serving_snapshot`], [`history_snapshot`])
//!   gated exactly like the rest of the crate: ZST no-ops without the
//!   `enabled` feature, one relaxed load when compiled in but runtime
//!   recording is off.
//!
//! # Concurrency contract
//!
//! Recording is wait-free (relaxed atomics into the recorder's own shard;
//! the exemplar reservoir takes its per-shard lock only for queries slower
//! than the current floor). Rotation is expected from a *single*
//! coordinator thread (the window reporter); concurrent rotators would race
//! on the epoch. A recorder that reads the epoch right at a rotation
//! boundary may land its sample in the just-completed window (or, if
//! descheduled for a full ring cycle, in a cleared one) — a one-sample
//! boundary smear that is acceptable for a statistical latency view and
//! never corrupts bucket counts. The same smear applies across the phase
//! histograms of one query (total and phases may straddle a rotation), so
//! consumers of per-window phase sums allow a small tolerance.

use std::collections::VecDeque;
// ORDERING: Relaxed throughout — slab cells are independent statistical
// histogram buckets (see metrics.rs), and the window epoch is a coarse
// phase indicator read at recording time; the boundary smear documented
// above is accepted, so no acquire/release pairing is needed. The exemplar
// admission floor is likewise a monotone-per-window hint: a stale read only
// costs one lock round or drops one borderline exemplar.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::OnceLock;
use std::sync::{Mutex, PoisonError};

use crate::metrics::{Histogram, HistogramSummary, MetricsSnapshot};

/// Query types the serving path accounts for, matching the paper's
/// query-algorithm families (Algorithms 6–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Algorithm 6: neighborhood materialization (`neighbors_batch`).
    Neighbors,
    /// Algorithm 7, linear variant: edge-existence row scan
    /// (`edges_exist_batch`).
    EdgeScan,
    /// Algorithm 7, binary variant: edge-existence binary search over the
    /// decoded row (`edges_exist_batch_binary`).
    EdgeBinary,
    /// Algorithm 8/9: split-row search (`edge_exists_split[_binary]`).
    SplitSearch,
    /// Whole-graph traversal entry points in `parcsr-algos` (BFS, SSSP).
    Traversal,
}

/// Number of [`QueryKind`] variants (slab cell dimension).
pub const NUM_QUERY_KINDS: usize = 5;

impl QueryKind {
    /// All kinds, in slab-index order.
    pub const ALL: [QueryKind; NUM_QUERY_KINDS] = [
        QueryKind::Neighbors,
        QueryKind::EdgeScan,
        QueryKind::EdgeBinary,
        QueryKind::SplitSearch,
        QueryKind::Traversal,
    ];

    /// Stable slab index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Neighbors => "neighbors",
            QueryKind::EdgeScan => "edge_scan",
            QueryKind::EdgeBinary => "edge_binary",
            QueryKind::SplitSearch => "split",
            QueryKind::Traversal => "traversal",
        }
    }
}

/// Degree class of a query's subject row. Social-network degree skew means
/// hub rows behave nothing like the long tail — the paper's split-row
/// algorithms exist *because* of that — so latency is attributed per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeClass {
    /// Degree < 32: the long tail; rows fit in one or two cache lines.
    Low,
    /// Degree 32..1024: mid-size rows.
    Mid,
    /// Degree ≥ 1024: hub rows (the imbalance graph's hubs are ~16 k).
    Hub,
}

/// Number of [`DegreeClass`] variants (slab cell dimension).
pub const NUM_DEGREE_CLASSES: usize = 3;

/// `Low`/`Mid` boundary (exclusive upper degree for `Low`).
pub const LOW_DEGREE_MAX: usize = 32;
/// `Mid`/`Hub` boundary (exclusive upper degree for `Mid`).
pub const MID_DEGREE_MAX: usize = 1024;

impl DegreeClass {
    /// All classes, in slab-index order.
    pub const ALL: [DegreeClass; NUM_DEGREE_CLASSES] =
        [DegreeClass::Low, DegreeClass::Mid, DegreeClass::Hub];

    /// Classifies a row degree.
    #[inline]
    #[must_use]
    pub fn classify(degree: usize) -> Self {
        if degree < LOW_DEGREE_MAX {
            DegreeClass::Low
        } else if degree < MID_DEGREE_MAX {
            DegreeClass::Mid
        } else {
            DegreeClass::Hub
        }
    }

    /// Stable slab index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegreeClass::Low => "low",
            DegreeClass::Mid => "mid",
            DegreeClass::Hub => "hub",
        }
    }
}

/// One phase of a request's lifecycle, as cut by the
/// `queued → dispatched → executed → replied` checkpoints of
/// [`PhaseNanos::from_checkpoints`]:
///
/// ```text
/// queued ──queue──▶ dispatched ──exec──▶ executed ──reply──▶ replied
/// ```
///
/// The three phases partition the end-to-end time exactly. The closed-loop
/// driver stamps all four checkpoints; the in-process query path
/// ([`query_start`]) has no queue or reply step, so it records everything
/// as `exec` ([`PhaseNanos::all_exec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPhase {
    /// `queued → dispatched`: time spent waiting for a worker.
    Queue,
    /// `dispatched → executed`: time spent executing the query.
    Exec,
    /// `executed → replied`: time spent delivering the result.
    Reply,
}

/// Number of [`QueryPhase`] variants (phase-slot dimension).
pub const NUM_QUERY_PHASES: usize = 3;

impl QueryPhase {
    /// All phases, in lifecycle (and slot-index) order.
    pub const ALL: [QueryPhase; NUM_QUERY_PHASES] =
        [QueryPhase::Queue, QueryPhase::Exec, QueryPhase::Reply];

    /// Stable slot index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in event/JSON schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryPhase::Queue => "queue",
            QueryPhase::Exec => "exec",
            QueryPhase::Reply => "reply",
        }
    }
}

/// One query's phase-decomposed timing, nanoseconds. The phases partition
/// `total_ns` (up to clock-saturation rounding), so
/// `queue_ns + exec_ns + reply_ns ≤ total_ns` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// End-to-end `queued → replied` time.
    pub total_ns: u64,
    /// `queued → dispatched` wait.
    pub queue_ns: u64,
    /// `dispatched → executed` service time.
    pub exec_ns: u64,
    /// `executed → replied` delivery time.
    pub reply_ns: u64,
}

impl PhaseNanos {
    /// Phase decomposition from the four checkpoint timestamps (span-clock
    /// ns). Checkpoints are clamped monotone, so a descheduled guard never
    /// produces phases that sum past the end-to-end time.
    #[must_use]
    pub fn from_checkpoints(queued: u64, dispatched: u64, executed: u64, replied: u64) -> Self {
        let dispatched = dispatched.clamp(queued, replied);
        let executed = executed.clamp(dispatched, replied);
        Self {
            total_ns: replied.saturating_sub(queued),
            queue_ns: dispatched.saturating_sub(queued),
            exec_ns: executed.saturating_sub(dispatched),
            reply_ns: replied.saturating_sub(executed),
        }
    }

    /// A sample with only a total (no checkpoints): everything counts as
    /// `exec`, as on the in-process query path (see [`QueryPhase`]).
    #[must_use]
    pub fn all_exec(total_ns: u64) -> Self {
        Self {
            total_ns,
            queue_ns: 0,
            exec_ns: total_ns,
            reply_ns: 0,
        }
    }

    /// The named phase's nanoseconds.
    #[must_use]
    pub fn phase(self, phase: QueryPhase) -> u64 {
        match phase {
            QueryPhase::Queue => self.queue_ns,
            QueryPhase::Exec => self.exec_ns,
            QueryPhase::Reply => self.reply_ns,
        }
    }
}

/// Ring of [`Histogram`]s with epoch rotation: the sliding-window latency
/// view. Always compiled (plain atomics, unit-testable without features).
#[derive(Debug)]
pub struct WindowedHistogram {
    ring: Box<[Histogram]>,
    epoch: AtomicU64,
}

impl WindowedHistogram {
    /// A ring retaining `windows` epochs (clamped to ≥ 2 so the live window
    /// is never the one being cleared at rotation).
    #[must_use]
    pub fn new(windows: usize) -> Self {
        let w = windows.max(2);
        Self {
            ring: (0..w).map(|_| Histogram::new()).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The live (currently recording) epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Records one observation into the live window.
    #[inline]
    pub fn record(&self, v: u64) {
        let e = self.epoch.load(Relaxed);
        self.ring[(e % self.ring.len() as u64) as usize].record(v);
    }

    /// Completes the live window and opens the next: clears the oldest
    /// retained histogram for reuse, then advances the epoch. Returns the
    /// epoch just completed (readable via [`Self::window`] for another
    /// `windows - 1` rotations). Single-rotator: call from one coordinator
    /// thread only.
    pub fn rotate(&self) -> u64 {
        let e = self.epoch.load(Relaxed);
        let next = ((e + 1) % self.ring.len() as u64) as usize;
        self.ring[next].reset();
        self.epoch.store(e + 1, Relaxed);
        e
    }

    /// The histogram for `epoch`, if still retained: the live epoch or one
    /// of the `windows - 1` most recently completed ones.
    #[must_use]
    pub fn window(&self, epoch: u64) -> Option<&Histogram> {
        let live = self.epoch.load(Relaxed);
        if epoch > live || live - epoch >= self.ring.len() as u64 {
            return None;
        }
        Some(&self.ring[(epoch % self.ring.len() as u64) as usize])
    }

    /// The live window's histogram.
    #[must_use]
    pub fn live(&self) -> &Histogram {
        &self.ring[(self.epoch() % self.ring.len() as u64) as usize]
    }

    /// Merges every retained window (completed + live) into `dst`: the
    /// sliding-window aggregate over the last `windows` epochs.
    pub fn merge_retained_into(&self, dst: &Histogram) {
        for h in &self.ring {
            h.merge_into(dst);
        }
    }
}

/// A lifetime histogram and the sliding-window view of the same
/// observations.
#[derive(Debug)]
struct HistPair {
    overall: Histogram,
    windowed: WindowedHistogram,
}

impl HistPair {
    fn new(windows: usize) -> Self {
        Self {
            overall: Histogram::new(),
            windowed: WindowedHistogram::new(windows),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.overall.record(v);
        self.windowed.record(v);
    }
}

/// One [`HistPair`] for the end-to-end latency plus one per [`QueryPhase`].
/// The phase pairs are boxed so their 15 KiB overall histograms stay off
/// the `ShardSlab` inline footprint.
#[derive(Debug)]
struct SlabCell {
    total: HistPair,
    phases: Box<[HistPair]>,
}

impl SlabCell {
    fn new(windows: usize) -> Self {
        Self {
            total: HistPair::new(windows),
            phases: (0..NUM_QUERY_PHASES)
                .map(|_| HistPair::new(windows))
                .collect(),
        }
    }

    /// Records one phase-decomposed observation: the total into the
    /// end-to-end pair and each phase into its pair, so every phase count
    /// equals the end-to-end count.
    #[inline]
    fn record(&self, ns: PhaseNanos) {
        self.total.record(ns.total_ns);
        for phase in QueryPhase::ALL {
            self.phases[phase.index()].record(ns.phase(phase));
        }
    }
}

/// The number of tail exemplars each shard retains per window: the K in
/// "K slowest queries". Readers merge shards and keep the global top K,
/// so the per-process bound is `shards × K` live + as many completed.
pub const EXEMPLARS_PER_SHARD: usize = 8;

/// One captured tail query: the full phase breakdown of one of the window's
/// slowest requests, with enough identity (kind, class, source vertex) to
/// re-run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Query kind.
    pub kind: QueryKind,
    /// Degree class of the source row.
    pub class: DegreeClass,
    /// Source vertex the query addressed.
    pub source: u64,
    /// Phase-decomposed timing.
    pub ns: PhaseNanos,
}

/// Bounded per-shard reservoir of the live window's slowest queries.
///
/// The admission test is one relaxed load of the floor (the smallest total
/// currently retained once the reservoir is full): queries at or below it
/// return without touching the lock, so the common path stays wait-free
/// and only genuine tail candidates pay for the mutex. `rotate` publishes
/// the live set as the completed window's exemplars and resets the floor.
#[derive(Debug)]
struct ExemplarReservoir {
    /// Admission floor: 0 while the live set is not full, else the smallest
    /// retained `total_ns`. A stale read only costs one lock round or drops
    /// one borderline exemplar (the boundary smear the module header
    /// documents).
    floor_ns: AtomicU64,
    live: Mutex<Vec<Exemplar>>,
    completed: Mutex<Vec<Exemplar>>,
}

impl ExemplarReservoir {
    fn new() -> Self {
        Self {
            floor_ns: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn offer(&self, ex: Exemplar) {
        if ex.ns.total_ns < self.floor_ns.load(Relaxed) {
            return;
        }
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if live.len() < EXEMPLARS_PER_SHARD {
            live.push(ex);
            if live.len() == EXEMPLARS_PER_SHARD {
                let min = live.iter().map(|e| e.ns.total_ns).min().unwrap_or(0);
                self.floor_ns.store(min, Relaxed);
            }
            return;
        }
        // Full: replace the current minimum if this query is slower.
        let (slot, min) = live
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.ns.total_ns)
            .map(|(i, e)| (i, e.ns.total_ns))
            .unwrap_or((0, 0));
        if ex.ns.total_ns > min {
            live[slot] = ex;
            let new_min = live.iter().map(|e| e.ns.total_ns).min().unwrap_or(0);
            self.floor_ns.store(new_min, Relaxed);
        }
    }

    /// Publishes the live set as the completed window and opens a fresh
    /// one. Single-rotator, like [`WindowedHistogram::rotate`].
    fn rotate(&self) {
        let taken = {
            let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *live)
        };
        self.floor_ns.store(0, Relaxed);
        *self
            .completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = taken;
    }
}

/// One worker's slab: a `(QueryKind, DegreeClass)` grid of cells plus the
/// shard's tail-exemplar reservoir, padded to its own cache-line
/// neighborhood so concurrent recorders never share a line across shards
/// (pelikan's per-worker metrics shape).
#[derive(Debug)]
#[repr(align(128))]
struct ShardSlab {
    cells: [[SlabCell; NUM_DEGREE_CLASSES]; NUM_QUERY_KINDS],
    exemplars: ExemplarReservoir,
}

impl ShardSlab {
    fn new(windows: usize) -> Self {
        Self {
            cells: std::array::from_fn(|_| std::array::from_fn(|_| SlabCell::new(windows))),
            exemplars: ExemplarReservoir::new(),
        }
    }
}

/// Per-window summary of one non-empty `(kind, class)` cell, merged across
/// shards: the end-to-end latency and its phase decomposition.
#[derive(Debug, Clone)]
pub struct WindowCell {
    /// Query kind.
    pub kind: QueryKind,
    /// Degree class.
    pub class: DegreeClass,
    /// Merged-across-shards end-to-end summary for the window.
    pub summary: HistogramSummary,
    /// Merged-across-shards summary of each phase, indexed by
    /// [`QueryPhase::index`].
    pub phases: [HistogramSummary; NUM_QUERY_PHASES],
}

/// One completed serving window: the single record every view renders
/// (trace counter events, `/metrics`, `/stats`, `/history`). Built once by
/// [`QuerySlabs::summarize`]; the global [`rotate_window`] stamps its open
/// and close times.
#[derive(Debug, Clone, Default)]
pub struct WindowSummary {
    /// The window's epoch.
    pub window: u64,
    /// Window open time, ns on the span clock: the previous rotation, or
    /// for window 0 the first record into the global slabs.
    pub start_ns: u64,
    /// Window close (rotation) time, ns on the span clock.
    pub end_ns: u64,
    /// Non-empty cells, slab-index order.
    pub cells: Vec<WindowCell>,
    /// The window's tail exemplars merged across shards, slowest first, at
    /// most [`EXEMPLARS_PER_SHARD`].
    pub exemplars: Vec<Exemplar>,
}

impl WindowSummary {
    /// Window length, nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Total queries across all cells.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.cells.iter().map(|c| c.summary.count).sum()
    }

    /// Achieved throughput over the window (0 when the window has no
    /// length).
    #[must_use]
    pub fn qps(&self) -> f64 {
        let dur_ns = self.dur_ns();
        if dur_ns > 0 {
            self.queries() as f64 * 1e9 / dur_ns as f64
        } else {
            0.0
        }
    }
}

/// Sharded per-worker query-latency slabs. Value type — the closed-loop
/// driver owns one per run (client-observed latencies work without any
/// feature); the gated global facade below owns another for the
/// instrumented query path.
#[derive(Debug)]
pub struct QuerySlabs {
    shards: Box<[ShardSlab]>,
}

impl QuerySlabs {
    /// `shards` slabs (clamped to ≥ 1), each retaining `windows` epochs.
    #[must_use]
    pub fn new(shards: usize, windows: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| ShardSlab::new(windows))
                .collect(),
        }
    }

    /// The live epoch (all cells rotate in lockstep, so any cell's epoch is
    /// the slab set's epoch).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shards[0].cells[0][0].total.windowed.epoch()
    }

    /// Records one phase-decomposed query from `shard` (reduced modulo the
    /// shard count, so callers can pass a raw worker/client index): the
    /// total into the end-to-end histograms, each phase into its phase
    /// slot, and the whole exemplar into the shard's tail reservoir.
    #[inline]
    pub fn record_query(&self, shard: usize, ex: Exemplar) {
        let slab = &self.shards[shard % self.shards.len()];
        slab.cells[ex.kind.index()][ex.class.index()].record(ex.ns);
        slab.exemplars.offer(ex);
    }

    /// Rotates every cell's window (end-to-end and phase slots) and every
    /// shard's exemplar reservoir in lockstep; returns the completed
    /// epoch. Single-rotator, like [`WindowedHistogram::rotate`].
    pub fn rotate(&self) -> u64 {
        let mut completed = 0;
        for shard in self.shards.iter() {
            for row in &shard.cells {
                for cell in row {
                    completed = cell.total.windowed.rotate();
                    for pair in cell.phases.iter() {
                        pair.windowed.rotate();
                    }
                }
            }
            shard.exemplars.rotate();
        }
        completed
    }

    /// The completed window's tail exemplars, merged across shards, slowest
    /// first, truncated to the global top [`EXEMPLARS_PER_SHARD`].
    fn completed_exemplars(&self) -> Vec<Exemplar> {
        let mut out: Vec<Exemplar> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.exemplars
                    .completed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            })
            .collect();
        out.sort_by_key(|b| std::cmp::Reverse(b.ns.total_ns));
        out.truncate(EXEMPLARS_PER_SHARD);
        out
    }

    /// Merges one histogram per selected cell (`pick` chooses it; `None`
    /// skips the cell) across every shard and summarizes the result. `None`
    /// for `kind`/`class` selects that whole dimension.
    fn merged<'a>(
        &'a self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
        pick: impl Fn(&'a SlabCell) -> Option<&'a Histogram>,
    ) -> HistogramSummary {
        let scratch = Histogram::new();
        for shard in self.shards.iter() {
            for k in QueryKind::ALL {
                if kind.is_some_and(|want| want != k) {
                    continue;
                }
                for c in DegreeClass::ALL {
                    if class.is_some_and(|want| want != c) {
                        continue;
                    }
                    if let Some(h) = pick(&shard.cells[k.index()][c.index()]) {
                        h.merge_into(&scratch);
                    }
                }
            }
        }
        scratch.summary()
    }

    /// Merged-across-shards summary of window `epoch` for the selected
    /// cells.
    #[must_use]
    pub fn window_summary(
        &self,
        epoch: u64,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        self.merged(kind, class, |cell| cell.total.windowed.window(epoch))
    }

    /// Merged-across-shards lifetime summary for the selected cells.
    #[must_use]
    pub fn overall_summary(
        &self,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        self.merged(kind, class, |cell| Some(&cell.total.overall))
    }

    /// Merged-across-shards summary of one phase of window `epoch` for the
    /// selected cells.
    #[must_use]
    pub fn window_phase_summary(
        &self,
        epoch: u64,
        phase: QueryPhase,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        self.merged(kind, class, |cell| {
            cell.phases[phase.index()].windowed.window(epoch)
        })
    }

    /// Merged-across-shards lifetime summary of one phase for the selected
    /// cells.
    #[must_use]
    pub fn overall_phase_summary(
        &self,
        phase: QueryPhase,
        kind: Option<QueryKind>,
        class: Option<DegreeClass>,
    ) -> HistogramSummary {
        self.merged(kind, class, |cell| {
            Some(&cell.phases[phase.index()].overall)
        })
    }

    /// Summarizes window `epoch`: every non-empty `(kind, class)` cell with
    /// its phases, merged across shards in slab-index order, plus the tail
    /// exemplars when `epoch` is the most recently completed window (the
    /// only one whose exemplars the reservoirs keep). The open and close
    /// times are left 0 for the caller that owns the clock to stamp.
    #[must_use]
    pub fn summarize(&self, epoch: u64) -> WindowSummary {
        let mut cells = Vec::new();
        for kind in QueryKind::ALL {
            for class in DegreeClass::ALL {
                let summary = self.window_summary(epoch, Some(kind), Some(class));
                if summary.count > 0 {
                    let phases = QueryPhase::ALL
                        .map(|p| self.window_phase_summary(epoch, p, Some(kind), Some(class)));
                    cells.push(WindowCell {
                        kind,
                        class,
                        summary,
                        phases,
                    });
                }
            }
        }
        let exemplars = if epoch + 1 == self.epoch() {
            self.completed_exemplars()
        } else {
            Vec::new()
        };
        WindowSummary {
            window: epoch,
            cells,
            exemplars,
            ..WindowSummary::default()
        }
    }
}

/// The canonical series name for one `(kind, class)` cell of the windowed
/// serving grid: `query.win.<kind>.<class>`. The *single* definition of
/// this naming — the Chrome-trace counter events
/// ([`crate::export::chrome_trace_with_counters`]) and the JSON stats
/// renderer ([`crate::expo::snapshot_json`]) both call here, so the name
/// cannot drift between exporters.
#[must_use]
pub fn window_series_name(kind: QueryKind, class: DegreeClass) -> String {
    format!("query.win.{}.{}", kind.name(), class.name())
}

/// The canonical series name for one phase of one `(kind, class)` cell:
/// `query.phase.<phase>.<kind>.<class>`. Single definition, like
/// [`window_series_name`].
#[must_use]
pub fn phase_series_name(phase: QueryPhase, kind: QueryKind, class: DegreeClass) -> String {
    format!(
        "query.phase.{}.{}.{}",
        phase.name(),
        kind.name(),
        class.name()
    )
}

/// The canonical series name for a tail exemplar of one `(kind, class)`
/// cell: `query.exemplar.<kind>.<class>`. Single definition, like
/// [`window_series_name`].
#[must_use]
pub fn exemplar_series_name(kind: QueryKind, class: DegreeClass) -> String {
    format!("query.exemplar.{}.{}", kind.name(), class.name())
}

/// Fixed-capacity ring of rotated window summaries: the time-series view
/// behind the admin plane's `history` endpoint. Pushing past capacity
/// evicts oldest-first, and [`HistoryRing::window`] returns `None` for
/// evicted (or never-pushed) epochs — the same retention semantics as
/// [`WindowedHistogram`], which the property tests pin.
#[derive(Debug)]
pub struct HistoryRing {
    cap: usize,
    ring: Mutex<VecDeque<WindowSummary>>,
}

impl HistoryRing {
    /// A ring retaining the last `cap` windows (clamped to ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap)),
        }
    }

    /// Ring capacity (maximum retained windows).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of currently retained windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one rotated window, evicting the oldest when full.
    pub fn push(&self, window: WindowSummary) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(window);
    }

    /// The retained summary for `epoch`, or `None` once it has been
    /// evicted (or was never pushed).
    #[must_use]
    pub fn window(&self, epoch: u64) -> Option<WindowSummary> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|w| w.window == epoch)
            .cloned()
    }

    /// Every retained window, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WindowSummary> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

/// Shards in the process-global slab set. Worker `tid`s map to
/// `1 + index`, reduced modulo this, and off-pool threads share shard 0 —
/// good enough isolation for the shim pool's widths while bounding memory.
#[cfg(feature = "enabled")]
const GLOBAL_SHARDS: usize = 8;
/// Retained epochs per cell in the process-global slab set.
#[cfg(feature = "enabled")]
const GLOBAL_WINDOWS: usize = 4;

/// Windows the process-global history ring retains. Sized so a default
/// watch cadence (250 ms windows) keeps ~16 s of history on screen — and
/// comfortably above the 30 sparkline columns `parcsr watch` renders.
pub const HISTORY_WINDOWS: usize = 64;

#[cfg(feature = "enabled")]
static GLOBAL_SLABS: OnceLock<QuerySlabs> = OnceLock::new();

#[cfg(feature = "enabled")]
static GLOBAL_HISTORY: OnceLock<HistoryRing> = OnceLock::new();

#[cfg(feature = "enabled")]
static WINDOW_LOG: Mutex<Vec<WindowSummary>> = Mutex::new(Vec::new());

/// Span-clock time the live global window opened: the first record into
/// the global slabs, then each [`rotate_window`].
#[cfg(feature = "enabled")]
static WINDOW_OPEN_NS: AtomicU64 = AtomicU64::new(0);

/// Wall-clock length of the most recently completed window, nanoseconds
/// (0 = no window completed yet). Lets [`serving_snapshot`] report a
/// `query.win.duration_ns` gauge so scrapers can turn per-window counts
/// into qps without knowing the reporter's `--window-ms`.
#[cfg(feature = "enabled")]
static LAST_WINDOW_DUR_NS: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "enabled")]
fn global_slabs() -> &'static QuerySlabs {
    GLOBAL_SLABS.get_or_init(|| {
        WINDOW_OPEN_NS.store(crate::span::now_ns(), Relaxed);
        QuerySlabs::new(GLOBAL_SHARDS, GLOBAL_WINDOWS)
    })
}

/// In-flight guard from [`query_start`]: construction stamps the start,
/// [`finish`](Self::finish) records the elapsed time into the global slabs.
/// The in-process query path has no queue or reply step, so the whole time
/// counts as `exec` (see [`QueryPhase`]). Zero-sized when the `enabled`
/// feature is off.
pub struct QueryStart {
    #[cfg(feature = "enabled")]
    armed: Option<QueryClock>,
}

/// The start time and source label of one armed [`QueryStart`].
#[cfg(feature = "enabled")]
#[derive(Clone, Copy)]
struct QueryClock {
    queued_ns: u64,
    source: u64,
}

impl QueryStart {
    /// Labels the source vertex for tail-exemplar capture (0, the default,
    /// when the caller never labels one).
    #[inline(always)]
    pub fn source(&mut self, vertex: u64) {
        #[cfg(feature = "enabled")]
        if let Some(clock) = self.armed.as_mut() {
            clock.source = vertex;
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = vertex;
        }
    }

    /// Completes the query: classifies `degree()` (only evaluated when a
    /// sample will actually be recorded) and records the sample —
    /// histograms plus the tail exemplar reservoir — into the global slabs.
    #[inline(always)]
    pub fn finish(self, kind: QueryKind, degree: impl FnOnce() -> usize) {
        #[cfg(feature = "enabled")]
        if let Some(clock) = self.armed {
            let ns = PhaseNanos::all_exec(crate::span::now_ns().saturating_sub(clock.queued_ns));
            let shard = rayon::current_thread_index().map_or(0, |i| i + 1);
            global_slabs().record_query(
                shard,
                Exemplar {
                    kind,
                    class: DegreeClass::classify(degree()),
                    source: clock.source,
                    ns,
                },
            );
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (kind, degree);
        }
    }
}

/// Starts timing one query against the process-global slabs. Compiles to a
/// ZST without the `enabled` feature; one relaxed load when compiled in but
/// runtime recording is off.
#[inline(always)]
#[must_use]
pub fn query_start() -> QueryStart {
    #[cfg(feature = "enabled")]
    {
        QueryStart {
            armed: crate::is_enabled().then(|| QueryClock {
                queued_ns: crate::span::now_ns(),
                source: 0,
            }),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        QueryStart {}
    }
}

/// Rotates the process-global slabs (single-rotator), summarizes the
/// completed window once ([`QuerySlabs::summarize`], stamped with its open
/// and close times) and hands that one [`WindowSummary`] to the history
/// ring and the trace log ([`drain_window_log`]). Returns the completed
/// epoch, or `None` when nothing was ever recorded (or the feature is off).
pub fn rotate_window() -> Option<u64> {
    #[cfg(feature = "enabled")]
    {
        let slabs = GLOBAL_SLABS.get()?;
        let end_ns = crate::span::now_ns();
        let start_ns = WINDOW_OPEN_NS.swap(end_ns, Relaxed);
        LAST_WINDOW_DUR_NS.store(end_ns.saturating_sub(start_ns), Relaxed);
        let completed = slabs.rotate();
        let summary = WindowSummary {
            start_ns,
            end_ns,
            ..slabs.summarize(completed)
        };
        GLOBAL_HISTORY
            .get_or_init(|| HistoryRing::new(HISTORY_WINDOWS))
            .push(summary.clone());
        WINDOW_LOG
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(summary);
        Some(completed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

/// Every retained window of the process-global history ring, oldest
/// first — the payload behind the admin plane's `history` endpoint.
/// Read-only and safe from any thread, like [`serving_snapshot`]. Empty
/// when the feature is off or no window ever rotated.
#[must_use]
pub fn history_snapshot() -> Vec<WindowSummary> {
    #[cfg(feature = "enabled")]
    {
        GLOBAL_HISTORY
            .get()
            .map(HistoryRing::snapshot)
            .unwrap_or_default()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Snapshot of the process-global serving slabs for live introspection
/// (the admin plane's scrape path): the summary of the most recently
/// *completed* window (the live, still-filling window when nothing has
/// rotated yet) as the snapshot's window cells, plus `query.win.epoch`
/// (live epoch) and `query.win.duration_ns` (length of the last completed
/// window) gauges. Read-only — never rotates, so it is safe to call from
/// any thread while a reporter owns rotation (a scrape that races a
/// rotation sees the one-sample boundary smear documented in the module
/// header, no worse). Empty when the feature is off or nothing was ever
/// recorded.
#[must_use]
pub fn serving_snapshot() -> MetricsSnapshot {
    #[cfg(feature = "enabled")]
    {
        let Some(slabs) = GLOBAL_SLABS.get() else {
            return MetricsSnapshot::default();
        };
        let live = slabs.epoch();
        let shown = slabs.summarize(live.saturating_sub(1));
        MetricsSnapshot {
            gauges: vec![
                ("query.win.epoch".to_string(), live as i64),
                (
                    "query.win.duration_ns".to_string(),
                    LAST_WINDOW_DUR_NS.load(Relaxed) as i64,
                ),
            ],
            window: shown.window,
            windows: shown.cells,
            ..MetricsSnapshot::default()
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        MetricsSnapshot::default()
    }
}

/// Takes every [`WindowSummary`] accumulated by [`rotate_window`] since the
/// last drain, in rotation order — the input of
/// [`crate::export::chrome_trace_with_counters`]. Empty without the
/// `enabled` feature.
#[must_use]
pub fn drain_window_log() -> Vec<WindowSummary> {
    #[cfg(feature = "enabled")]
    {
        std::mem::take(&mut *WINDOW_LOG.lock().unwrap_or_else(PoisonError::into_inner))
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_classes_partition_the_degree_axis() {
        assert_eq!(DegreeClass::classify(0), DegreeClass::Low);
        assert_eq!(DegreeClass::classify(LOW_DEGREE_MAX - 1), DegreeClass::Low);
        assert_eq!(DegreeClass::classify(LOW_DEGREE_MAX), DegreeClass::Mid);
        assert_eq!(DegreeClass::classify(MID_DEGREE_MAX - 1), DegreeClass::Mid);
        assert_eq!(DegreeClass::classify(MID_DEGREE_MAX), DegreeClass::Hub);
        assert_eq!(DegreeClass::classify(usize::MAX), DegreeClass::Hub);
    }

    #[test]
    fn kind_and_class_indices_are_dense_and_stable() {
        for (i, k) in QueryKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, c) in DegreeClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: Vec<_> = QueryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "neighbors",
                "edge_scan",
                "edge_binary",
                "split",
                "traversal"
            ]
        );
    }

    #[test]
    fn windowed_histogram_rotation_retains_and_expires() {
        let w = WindowedHistogram::new(3);
        w.record(10);
        w.record(20);
        assert_eq!(w.live().count(), 2);

        let completed = w.rotate();
        assert_eq!(completed, 0);
        assert_eq!(w.epoch(), 1);
        assert_eq!(w.window(0).unwrap().count(), 2);
        assert_eq!(w.live().count(), 0);

        w.record(30);
        w.rotate(); // completes epoch 1 (count 1)
        w.rotate(); // completes epoch 2 (empty); epoch 0 now expires
        assert!(w.window(0).is_none(), "epoch 0 fell out of the ring");
        assert_eq!(w.window(1).unwrap().count(), 1);
        assert_eq!(w.window(2).unwrap().count(), 0);
        assert!(w.window(4).is_none(), "future epoch");
    }

    #[test]
    fn windowed_histogram_retained_merge_is_sliding_aggregate() {
        let w = WindowedHistogram::new(2);
        w.record(100);
        w.rotate();
        w.record(200);
        let dst = Histogram::new();
        w.merge_retained_into(&dst);
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.max(), 200);
    }

    #[test]
    fn slabs_merge_across_shards_matches_single_slab() {
        let sharded = QuerySlabs::new(4, 2);
        let single = QuerySlabs::new(1, 2);
        let samples = [
            (0usize, QueryKind::Neighbors, DegreeClass::Low, 50u64),
            (1, QueryKind::Neighbors, DegreeClass::Low, 5_000),
            (2, QueryKind::EdgeScan, DegreeClass::Hub, 900),
            (7, QueryKind::Neighbors, DegreeClass::Low, 70), // 7 % 4 == 3
        ];
        for &(shard, kind, class, ns) in &samples {
            sharded.record_query(shard, query(kind, class, ns));
            single.record_query(0, query(kind, class, ns));
        }
        let a = sharded.window_summary(0, Some(QueryKind::Neighbors), Some(DegreeClass::Low));
        let b = single.window_summary(0, Some(QueryKind::Neighbors), Some(DegreeClass::Low));
        assert_eq!(a, b);
        assert_eq!(a.count, 3);
        // Merging across every dimension sees all four samples.
        assert_eq!(sharded.window_summary(0, None, None).count, 4);
        assert_eq!(sharded.overall_summary(None, None).count, 4);
    }

    /// One all-`exec` query sample with no source label.
    fn query(kind: QueryKind, class: DegreeClass, ns: u64) -> Exemplar {
        Exemplar {
            kind,
            class,
            source: 0,
            ns: PhaseNanos::all_exec(ns),
        }
    }

    #[test]
    fn window_series_names_are_canonical_and_snapshot_uses_them() {
        assert_eq!(
            window_series_name(QueryKind::EdgeBinary, DegreeClass::Hub),
            "query.win.edge_binary.hub"
        );
        let slabs = QuerySlabs::new(2, 3);
        slabs.record_query(0, query(QueryKind::Neighbors, DegreeClass::Low, 100));
        slabs.record_query(1, query(QueryKind::SplitSearch, DegreeClass::Hub, 9_000));
        let summary = slabs.summarize(slabs.rotate());
        let snap = MetricsSnapshot {
            window: summary.window,
            windows: summary.cells,
            ..MetricsSnapshot::default()
        };
        // Slab-index order, one definition of the naming.
        let text = crate::expo::snapshot_json(&snap).pretty();
        let at = |name| text.find(&format!("\"series\": \"{name}\""));
        assert!(at("query.win.neighbors.low") < at("query.win.split.hub"));
        assert!(at("query.win.neighbors.low").is_some());
    }

    #[test]
    fn slab_rotation_is_lockstep_and_window_cells_skip_empty() {
        let slabs = QuerySlabs::new(2, 3);
        slabs.record_query(0, query(QueryKind::Neighbors, DegreeClass::Low, 10));
        slabs.record_query(1, query(QueryKind::SplitSearch, DegreeClass::Hub, 10_000));
        let completed = slabs.rotate();
        assert_eq!(completed, 0);
        assert_eq!(slabs.epoch(), 1);
        let summary = slabs.summarize(completed);
        assert_eq!(summary.window, completed);
        let cells = &summary.cells;
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].kind, QueryKind::Neighbors);
        assert_eq!(cells[0].class, DegreeClass::Low);
        assert_eq!(cells[1].kind, QueryKind::SplitSearch);
        assert_eq!(cells[1].class, DegreeClass::Hub);
        // Every phase count equals the cell count; all time is `exec`.
        for cell in cells {
            for phase in QueryPhase::ALL {
                assert_eq!(cell.phases[phase.index()].count, cell.summary.count);
            }
            assert_eq!(cell.phases[QueryPhase::Exec.index()].sum, cell.summary.sum);
        }
        assert_eq!(summary.queries(), 2);
        // The completed window carries its exemplars, slowest first.
        let totals: Vec<_> = summary.exemplars.iter().map(|e| e.ns.total_ns).collect();
        assert_eq!(totals, [10_000, 10]);
        // Overall view survives rotation.
        assert_eq!(slabs.overall_summary(None, None).count, 2);
        // The new live window is empty and has no exemplars yet.
        let live = slabs.summarize(slabs.epoch());
        assert!(live.cells.is_empty() && live.exemplars.is_empty());
    }

    #[test]
    fn phase_indices_and_names_are_dense_and_stable() {
        for (i, p) in QueryPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<_> = QueryPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["queue", "exec", "reply"]);
        assert_eq!(
            phase_series_name(QueryPhase::Queue, QueryKind::SplitSearch, DegreeClass::Hub),
            "query.phase.queue.split.hub"
        );
        assert_eq!(
            exemplar_series_name(QueryKind::Neighbors, DegreeClass::Low),
            "query.exemplar.neighbors.low"
        );
    }

    #[test]
    fn phase_nanos_partition_the_end_to_end_time() {
        let ns = PhaseNanos::from_checkpoints(100, 150, 900, 1_000);
        assert_eq!(ns.total_ns, 900);
        assert_eq!(ns.queue_ns, 50);
        assert_eq!(ns.exec_ns, 750);
        assert_eq!(ns.reply_ns, 100);
        assert_eq!(ns.queue_ns + ns.exec_ns + ns.reply_ns, ns.total_ns);
        // Non-monotone checkpoints (clock smear) are clamped, never summing
        // past the end-to-end time.
        let ns = PhaseNanos::from_checkpoints(100, 90, 2_000, 1_000);
        assert!(ns.queue_ns + ns.exec_ns + ns.reply_ns <= ns.total_ns);
        // Degenerate guard: everything is exec.
        let ns = PhaseNanos::all_exec(777);
        assert_eq!((ns.queue_ns, ns.exec_ns, ns.reply_ns), (0, 777, 0));
    }

    #[test]
    fn record_query_feeds_phase_histograms_in_the_same_grid() {
        let slabs = QuerySlabs::new(2, 3);
        for (shard, source, queue, exec) in [(0usize, 7u64, 100u64, 900u64), (1, 9, 300, 1_700)] {
            slabs.record_query(
                shard,
                Exemplar {
                    kind: QueryKind::Neighbors,
                    class: DegreeClass::Hub,
                    source,
                    ns: PhaseNanos {
                        total_ns: queue + exec,
                        queue_ns: queue,
                        exec_ns: exec,
                        reply_ns: 0,
                    },
                },
            );
        }
        let epoch = slabs.epoch();
        let total = slabs.window_summary(epoch, Some(QueryKind::Neighbors), Some(DegreeClass::Hub));
        assert_eq!(total.count, 2);
        let queue = slabs.window_phase_summary(epoch, QueryPhase::Queue, None, None);
        let exec = slabs.window_phase_summary(epoch, QueryPhase::Exec, None, None);
        let reply = slabs.window_phase_summary(epoch, QueryPhase::Reply, None, None);
        assert_eq!(queue.count, 2);
        assert_eq!(exec.count, 2);
        assert_eq!(reply.count, 2);
        // The phase sums partition the end-to-end sum exactly.
        assert_eq!(queue.sum + exec.sum + reply.sum, total.sum);
        assert_eq!(queue.sum, 400);
        // Overall phase view matches while the window is live; both survive
        // rotation on the overall side only.
        assert_eq!(
            slabs
                .overall_phase_summary(QueryPhase::Exec, Some(QueryKind::Neighbors), None)
                .sum,
            2_600
        );
        slabs.rotate();
        slabs.rotate();
        slabs.rotate();
        assert_eq!(
            slabs
                .window_phase_summary(epoch, QueryPhase::Queue, None, None)
                .count,
            0,
            "phase windows rotate in lockstep with the end-to-end windows"
        );
        assert_eq!(
            slabs
                .overall_phase_summary(QueryPhase::Queue, None, None)
                .sum,
            400
        );
    }

    fn exemplar(total_ns: u64, source: u64) -> Exemplar {
        Exemplar {
            source,
            ..query(QueryKind::EdgeScan, DegreeClass::Mid, total_ns)
        }
    }

    #[test]
    fn exemplar_reservoir_keeps_the_k_slowest_per_window() {
        let slabs = QuerySlabs::new(1, 2);
        // 2×K queries with distinct totals: only the slowest K survive.
        let n = 2 * EXEMPLARS_PER_SHARD as u64;
        for i in 0..n {
            slabs.record_query(0, exemplar(1_000 + i, i));
        }
        assert!(
            slabs.completed_exemplars().is_empty(),
            "live exemplars publish only at rotation"
        );
        slabs.rotate();
        let kept = slabs.completed_exemplars();
        assert_eq!(kept.len(), EXEMPLARS_PER_SHARD);
        // Slowest first, and exactly the top half by total.
        let totals: Vec<_> = kept.iter().map(|e| e.ns.total_ns).collect();
        let want: Vec<_> = (0..EXEMPLARS_PER_SHARD as u64)
            .map(|i| 1_000 + n - 1 - i)
            .collect();
        assert_eq!(totals, want);
        // The next rotation replaces the completed set (empty this time).
        slabs.rotate();
        assert!(slabs.completed_exemplars().is_empty());
    }

    #[test]
    fn exemplars_merge_across_shards_to_the_global_top_k() {
        let slabs = QuerySlabs::new(4, 2);
        for shard in 0..4usize {
            for i in 0..EXEMPLARS_PER_SHARD as u64 {
                slabs.record_query(shard, exemplar(1_000 * (shard as u64 + 1) + i, i));
            }
        }
        slabs.rotate();
        let kept = slabs.completed_exemplars();
        assert_eq!(kept.len(), EXEMPLARS_PER_SHARD);
        // All survivors come from the slowest shard's range.
        assert!(kept.iter().all(|e| e.ns.total_ns >= 4_000));
    }

    fn history_window(epoch: u64) -> WindowSummary {
        WindowSummary {
            window: epoch,
            start_ns: epoch * 1_000,
            end_ns: (epoch + 1) * 1_000,
            ..WindowSummary::default()
        }
    }

    #[test]
    fn history_ring_evicts_oldest_first_like_the_windowed_histogram() {
        let ring = HistoryRing::new(3);
        assert!(ring.is_empty());
        assert!(ring.window(0).is_none(), "never pushed");
        for epoch in 0..5 {
            ring.push(history_window(epoch));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert!(ring.window(0).is_none(), "evicted");
        assert!(ring.window(1).is_none(), "evicted");
        for epoch in 2..5 {
            assert_eq!(ring.window(epoch).unwrap().window, epoch);
        }
        let ordinals: Vec<_> = ring.snapshot().iter().map(|w| w.window).collect();
        assert_eq!(ordinals, [2, 3, 4], "oldest first");
    }
}
