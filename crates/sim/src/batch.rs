//! The batch (trajectory-memoized) simulation engine for sweep workloads.
//!
//! In the paper's model an agent's walk is a *deterministic function of its
//! start node alone*: the program sees only local observations (degree,
//! entry port, its own clock), so two agents started on the same node always
//! trace the same position timeline, and the delay `δ` merely shifts when
//! the later agent's copy begins.  Sweeps that evaluate many STICs of one
//! graph therefore re-execute the same `n` trajectories over and over —
//! `O(n²·Δ)` full program runs for an all-pairs × delays sweep.
//!
//! This module computes each start node's wait-compressed timeline **once**
//! ([`Timeline::record`], the same segment representation the lockstep
//! engine materialises per call) and answers any `(u, v, δ)` STIC by merging
//! two cached timelines:
//!
//! * [`TrajectoryCache`] — per `(graph, program, horizon)` store of lazily
//!   recorded [`Timeline`]s, one per start node, thread-safe (`OnceLock`
//!   slots) so rayon sweeps can fan out over merges directly; the slots are
//!   paged and a page is allocated on its first write, so a cache's memory
//!   is O(touched pages), not O(n);
//! * [`merge_timelines`] — meeting detection over two cached timelines as a
//!   branch-light **two-cursor sort-merge** over the flat `starts`/`nodes`
//!   arrays: the intersection windows of the two segment sequences are
//!   visited in increasing time order, so the first equal-node window *is*
//!   the earliest meeting and a query costs `O(segments(earlier) +
//!   segments(later))` with no binary probes;
//! * [`merge_timelines_deltas_mapped`] — the one **δ-sweep kernel**: a
//!   pair's whole delay grid in one pass over the later timeline, each
//!   later segment resolved by one binary probe into the earlier
//!   timeline's per-node *occupancy-interval index* (CSR over
//!   struct-of-arrays interval bounds, rebuilt at record/load time); the
//!   later timeline may be viewed through a node map, which is how one
//!   recorded timeline serves every class of a vertex-transitive graph.
//!   It needs no scratch and keeps no telemetry: its callers count passes;
//! * [`merge_timelines_deltas`] — the same kernel under the identity map;
//! * `merge_timelines_reference` — the retained pre-kernel single-STIC
//!   merge (a binary occupancy probe per later segment), compiled only
//!   under `cfg(test)` or the `ref-oracle` feature as an independent
//!   oracle the differential suites pin both kernels against;
//! * [`SweepEngine`] — the sweep-facing façade: an [`EngineConfig`] plus a
//!   cache; [`EngineMode::Auto`] and [`EngineMode::Batch`] answer from the
//!   cache (constructing a `SweepEngine` *is* the caller's signal that
//!   timelines will be reused), while pinning `Streaming`/`Lockstep` falls
//!   back to per-call simulation (the differential-testing escape hatch);
//! * [`simulate_batch`] — one-shot convenience for a single STIC through
//!   the batch path.
//!
//! Outcomes are **bit-identical** to the streaming and lockstep engines
//! (asserted by `tests/property_engine_batch.rs` and the differential tests
//! below), with one contract the other engines share implicitly: agent
//! programs must propagate [`Stop`] errors outward
//! (every program in this repository does, via `?`).  That is what makes a
//! horizon-`h` run an exact prefix of a horizon-`H ≥ h` run, which in turn
//! lets one cached timeline at the cache horizon answer
//! [`TrajectoryCache::simulate_capped`] queries at any smaller horizon and
//! stand in for the later agent's `horizon − δ`-truncated execution.

use std::sync::OnceLock;

use anonrv_graph::{NodeId, PortGraph};

use crate::engine::{simulate_with, EngineConfig, EngineMode, Meeting, SimOutcome};
use crate::navigator::{AgentProgram, Event, EventSink, GraphNavigator, Stop};
use crate::stic::{Round, Stic};
use crate::symbolic::{detect_symbolic, merge_symbolic, SymbolicTimeline};

const INFINITY: Round = Round::MAX;

/// One stop of an agent's wait-compressed position timeline: the agent sits
/// at `node` during the local rounds `[start, end)`.  Consecutive segments
/// are contiguous (`end == next.start`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seg {
    /// Node occupied throughout the segment.
    pub(crate) node: NodeId,
    /// First round of the stop (inclusive).
    pub(crate) start: Round,
    /// One past the last round of the stop.
    pub(crate) end: Round,
    /// Edge traversals completed at rounds `<= start` (the move that opened
    /// this segment included).  Constant across the segment because the
    /// agent is parked for its whole duration.
    pub(crate) moves_before: u64,
}

/// Sink recording a full wait-compressed timeline as a `Seg` list
/// (consecutive waits merge into their segment, so memory is one entry per
/// *event*, not per round).  Used only by the lockstep engine, which
/// records the earlier agent through it on every call and reads a
/// segment's move count when it reports a meeting; [`Timeline::record`]
/// writes its columns through `ColumnSink` instead.
pub(crate) struct RecordSink {
    pub(crate) segs: Vec<Seg>,
    pub(crate) moves: u64,
}

impl RecordSink {
    pub(crate) fn new(start_node: NodeId) -> Self {
        RecordSink {
            segs: vec![Seg { node: start_node, start: 0, end: 1, moves_before: 0 }],
            moves: 0,
        }
    }
}

impl EventSink for RecordSink {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        let last = self.segs.last_mut().expect("timeline starts non-empty");
        match event {
            Event::Wait { rounds } => last.end += rounds,
            Event::Move { to, .. } => {
                let at = last.end;
                self.moves += 1;
                self.segs.push(Seg { node: to, start: at, end: at + 1, moves_before: self.moves });
            }
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

/// Sink recording a wait-compressed timeline straight into the `starts` and
/// `nodes` columns of a [`Timeline`]: a move opens a segment, a wait only
/// extends the open one, whose end `end` becomes the trailing sentinel when
/// the run stops.
struct ColumnSink {
    starts: Vec<Round>,
    nodes: Vec<u32>,
    /// One past the last round of the open segment.
    end: Round,
}

impl ColumnSink {
    fn new(start_node: NodeId) -> Self {
        ColumnSink { starts: vec![0], nodes: vec![start_node as u32], end: 1 }
    }
}

impl EventSink for ColumnSink {
    fn emit(&mut self, event: Event) -> Result<(), Stop> {
        match event {
            Event::Wait { rounds } => self.end += rounds,
            Event::Move { to, .. } => {
                self.starts.push(self.end);
                self.nodes.push(to as u32);
                self.end += 1;
            }
        }
        Ok(())
    }

    fn finish(&mut self) {}
}

/// One stop of a timeline in its public, serialisable form: the agent sits
/// at `node` during the local rounds `[start, end)`.  This is the exact
/// information [`Timeline::from_segments`] needs to rebuild a timeline —
/// move counts are derivable (every segment after the first is opened by
/// exactly one edge traversal), so they are not part of the exchange format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSeg {
    /// Node occupied throughout the segment.
    pub node: NodeId,
    /// First local round of the stop (inclusive).
    pub start: Round,
    /// One past the last local round of the stop ([`Round::MAX`] marks the
    /// parked-forever tail of a self-terminated program).
    pub end: Round,
}

/// A start node's full position timeline under one `(graph, program,
/// horizon)` triple, in the agent's *local* rounds (round 0 = its start),
/// stored as **flat struct-of-arrays** plus the per-node occupancy-interval
/// index used by the merge kernels.
///
/// Everything else a merge needs is *positional* and derived on the fly:
/// segment `i` occupies `nodes[i]` during `[starts[i], starts[i + 1])`
/// (contiguity makes every end its successor's start, so one dense array
/// with a trailing sentinel carries both bounds); a terminated run is
/// recognisable by its `INFINITY` sentinel; and because every segment after
/// the first (tail excepted) is opened by exactly one edge traversal, move
/// counts are `min(i, total_moves)`.  Only `starts` and `nodes` are
/// primary: they are the whole on-disk payload ([`TimelineParts`]), and the
/// occupancy index is rebuilt from them by one counting sort whenever a
/// timeline is recorded, truncated or loaded ([`Timeline::from_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The local horizon the run was recorded (or reconstructed) at; queries
    /// through this timeline are exact for any horizon `<=` this.
    recorded_horizon: Round,
    /// Segment starts plus one sentinel (the last segment's end; `INFINITY`
    /// when the program terminated and parks forever), length `nsegs + 1`.
    starts: Vec<Round>,
    /// Per-segment nodes, length `nsegs`.
    nodes: Vec<u32>,
    /// CSR offsets into the occupancy arrays, one slice per node (length
    /// `n + 1`).
    occ_starts: Vec<u32>,
    /// Occupancy-interval starts, grouped by node; each group is sorted by
    /// start (and, intervals being disjoint, by end).
    occ_start: Vec<Round>,
    /// Occupancy-interval ends, same indexing as `occ_start`.
    occ_end: Vec<Round>,
    /// Index of the segment realising each occupancy interval.
    occ_seg: Vec<u32>,
}

/// The two primary columns of a [`Timeline`] — the whole on-disk timeline
/// payload since format version 6.  [`Timeline::from_parts`] validates them
/// and rebuilds the occupancy index; the borrowed counterparts are
/// [`Timeline::starts`] and [`Timeline::seg_nodes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineParts {
    /// Segment starts plus the trailing sentinel (length `nsegs + 1`).
    pub starts: Vec<Round>,
    /// Per-segment nodes (length `nsegs`).
    pub nodes: Vec<u32>,
}

impl TimelineParts {
    /// Check the column invariants every block shares: one sentinel past
    /// the segments, a first segment at local round 0, strictly increasing
    /// starts (contiguous, non-empty segments) and nodes below `n`.
    pub(crate) fn check_columns(&self, n: usize) -> Result<(), String> {
        let nsegs = self.nodes.len();
        if nsegs > u32::MAX as usize {
            return Err("timeline exceeds the index width".into());
        }
        if self.starts.len() != nsegs + 1 {
            return Err("the start array carries one sentinel past the segments".into());
        }
        if self.starts[0] != 0 {
            return Err("the first segment must start at local round 0".into());
        }
        for i in 0..nsegs {
            if self.starts[i] >= self.starts[i + 1] {
                return Err(format!("segment {i}: empty or inverted interval"));
            }
            if (self.nodes[i] as usize) >= n {
                return Err(format!("segment {i}: node {} out of range (n = {n})", self.nodes[i]));
            }
        }
        Ok(())
    }

    /// Check every structural invariant [`Timeline::record`] guarantees of
    /// a run recorded at local `horizon` on an `n`-node graph: the shared
    /// column checks, at least one segment, the parked-forever tail
    /// conventions and a finite end within the horizon.  Allocates nothing,
    /// so a verifier can run it on a declared `n` it cannot trust.
    pub fn validate(&self, n: usize, horizon: Round) -> Result<(), String> {
        let nsegs = self.nodes.len();
        if nsegs == 0 {
            return Err("a timeline has at least its initial segment".into());
        }
        self.check_columns(n)?;
        let terminated = self.starts[nsegs] == INFINITY;
        if terminated {
            if nsegs < 2 {
                return Err("a terminated run records a finite segment before its tail".into());
            }
            if self.nodes[nsegs - 1] != self.nodes[nsegs - 2] {
                return Err("the parked-forever tail must stay on the final node".into());
            }
        }
        let finite_end = self.starts[nsegs - usize::from(terminated)];
        if finite_end > horizon.saturating_add(1) {
            return Err(format!(
                "finite timeline end {finite_end} exceeds the recorded horizon {horizon}"
            ));
        }
        Ok(())
    }
}

impl Timeline {
    /// Execute `program` from `start` once, up to the local `horizon`, and
    /// record its wait-compressed timeline.  The run's events are written
    /// straight into the `starts`/`nodes` columns (no intermediate segment
    /// list), which are shrunk to their exact length before the occupancy
    /// index is built.
    pub fn record(
        g: &PortGraph,
        program: &dyn AgentProgram,
        start: NodeId,
        horizon: Round,
    ) -> Self {
        assert!(start < g.num_nodes(), "start node out of range");
        let mut nav = GraphNavigator::new(g, start, horizon, ColumnSink::new(start));
        let terminated = program.run(&mut nav).is_ok();
        let total_moves = nav.moves();
        let ColumnSink { mut starts, mut nodes, end } = nav.into_sink();
        starts.push(end);
        if terminated {
            // the program ended by itself: it stays at its final node forever
            nodes.push(*nodes.last().expect("timeline starts non-empty"));
            starts.push(INFINITY);
        }
        starts.shrink_to_fit();
        nodes.shrink_to_fit();
        debug_assert_eq!(
            total_moves,
            (nodes.len() - 1 - usize::from(terminated)) as u64,
            "move counts are positional: every segment after the first (tail excepted) \
             is opened by exactly one traversal"
        );
        if anonrv_obs::enabled() {
            anonrv_obs::counter_add("record.timelines", 1);
            anonrv_obs::counter_add("record.segments", nodes.len() as u64);
            anonrv_obs::counter_add("record.moves", total_moves);
        }
        Self::assemble(g.num_nodes(), horizon, starts, nodes)
    }

    /// Rebuild a timeline from its serialisable segment list — the exact
    /// inverse of [`Timeline::segments`].  Contiguity is checked here, every
    /// other invariant by [`Timeline::from_parts`]; errors describe the
    /// first violated one.
    pub fn from_segments(n: usize, horizon: Round, segs: Vec<TimelineSeg>) -> Result<Self, String> {
        let Some(last) = segs.last() else {
            return Err("a timeline has at least its initial segment".into());
        };
        if let Some(i) = (1..segs.len()).find(|&i| segs[i - 1].end != segs[i].start) {
            return Err(format!("segment {i}: not contiguous with its predecessor"));
        }
        let mut starts: Vec<Round> = Vec::with_capacity(segs.len() + 1);
        starts.extend(segs.iter().map(|s| s.start));
        starts.push(last.end);
        let nodes = segs.iter().map(|s| u32::try_from(s.node)).collect::<Result<Vec<_>, _>>();
        let nodes = nodes.map_err(|_| "a segment node exceeds the index width".to_string())?;
        Self::from_parts(n, horizon, TimelineParts { starts, nodes })
    }

    /// The serialisable segment list (the exact input
    /// [`Timeline::from_segments`] rebuilds this timeline from).
    pub fn segments(&self) -> impl Iterator<Item = TimelineSeg> + '_ {
        (0..self.nodes.len()).map(move |i| TimelineSeg {
            node: self.nodes[i] as usize,
            start: self.starts[i],
            end: self.starts[i + 1],
        })
    }

    /// The local horizon this timeline was recorded (or reconstructed) at.
    pub fn recorded_horizon(&self) -> Round {
        self.recorded_horizon
    }

    /// The exact prefix of this timeline up to a smaller local `horizon`:
    /// **bit-identical** — segments included — to recording the same program
    /// fresh at `horizon`, because programs propagate [`Stop`] and a
    /// truncated run is therefore a prefix of the longer one (see the module
    /// docs).  This is what lets a persistent store record timelines once at
    /// the largest horizon ever requested and serve every smaller one.
    ///
    /// # Panics
    /// Panics if `horizon` exceeds the recorded horizon (a longer run cannot
    /// be synthesised from a shorter recording).
    pub fn truncate(&self, horizon: Round) -> Timeline {
        assert!(
            horizon <= self.recorded_horizon,
            "cannot extend a horizon-{} recording to {horizon}",
            self.recorded_horizon
        );
        if horizon == self.recorded_horizon {
            return self.clone();
        }
        if self.terminated() && self.finite_end() <= horizon + 1 {
            // the program ended by itself within the smaller horizon: the
            // truncated run is the whole run (tail included)
            let mut t = self.clone();
            t.recorded_horizon = horizon;
            return t;
        }
        // the run is cut at `horizon`: a segment opened by a move at local
        // round `horizon` (start = horizon + 1) never happens, and the
        // segment covering `horizon` ends at horizon + 1 exactly as a
        // horizon-cut wait records it
        let keep = self.starts[..self.nodes.len()].partition_point(|&s| s <= horizon);
        let mut starts: Vec<Round> = self.starts[..keep + 1].to_vec();
        starts[keep] = starts[keep].min(horizon + 1);
        let nodes: Vec<u32> = self.nodes[..keep].to_vec();
        Self::assemble(self.num_graph_nodes(), horizon, starts, nodes)
    }

    /// Node count of the graph the timeline was recorded on.
    pub fn num_graph_nodes(&self) -> usize {
        self.occ_starts.len() - 1
    }

    /// Build the per-node occupancy index from validated `starts`/`nodes`
    /// arrays (shared by [`Timeline::record`], [`Timeline::from_parts`]
    /// and [`Timeline::truncate`]).
    fn assemble(n: usize, recorded_horizon: Round, starts: Vec<Round>, nodes: Vec<u32>) -> Self {
        let nsegs = nodes.len();
        assert!(nsegs <= u32::MAX as usize, "timeline exceeds the index width");
        debug_assert_eq!(starts.len(), nsegs + 1);

        // per-node occupancy index (counting sort into CSR layout)
        let mut occ_starts = vec![0u32; n + 1];
        for &u in &nodes {
            occ_starts[u as usize + 1] += 1;
        }
        for i in 0..n {
            occ_starts[i + 1] += occ_starts[i];
        }
        let mut occ_start = vec![0 as Round; nsegs];
        let mut occ_end = vec![0 as Round; nsegs];
        let mut occ_seg = vec![0u32; nsegs];
        for (i, &u) in nodes.iter().enumerate() {
            // each node's offset doubles as its group's fill cursor
            let c = occ_starts[u as usize] as usize;
            occ_start[c] = starts[i];
            occ_end[c] = starts[i + 1];
            occ_seg[c] = i as u32;
            occ_starts[u as usize] += 1;
        }
        // every cursor now sits at the next group's offset: shift them back
        occ_starts.copy_within(0..n, 1);
        occ_starts[0] = 0;

        Timeline { recorded_horizon, starts, nodes, occ_starts, occ_start, occ_end, occ_seg }
    }

    /// Rebuild a timeline from its two primary columns — the exact inverse
    /// of [`Timeline::starts`]/[`Timeline::seg_nodes`], used by the
    /// persistent store to restore recorded runs without re-executing the
    /// program.  The columns pass [`TimelineParts::validate`], then the
    /// occupancy index is rebuilt by the counting sort recording runs, so
    /// the result is bit-identical to the original recording.
    ///
    /// `n` is the node count of the graph the run was recorded on (it sizes
    /// the per-node occupancy index) and `horizon` the local horizon of the
    /// recording.  Errors describe the first violated invariant; a cache
    /// treats any error as a miss and falls back to re-recording.
    /// (Byte-level corruption is the store frame checksum's job — this
    /// validation only guards the structural invariants the merge kernels
    /// rely on.)
    pub fn from_parts(n: usize, horizon: Round, parts: TimelineParts) -> Result<Self, String> {
        parts.validate(n, horizon)?;
        Ok(Self::assemble(n, horizon, parts.starts, parts.nodes))
    }

    /// Number of recorded segments (including the infinite tail, if any).
    pub fn num_segments(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the program terminated by itself within the horizon
    /// (recognisable by the `INFINITY` sentinel of the parked-forever tail).
    pub fn terminated(&self) -> bool {
        *self.starts.last().expect("timeline starts non-empty") == INFINITY
    }

    /// Full-run edge-traversal total: every segment after the first (tail
    /// excepted) is opened by exactly one traversal, so the count is
    /// positional.
    pub fn total_moves(&self) -> u64 {
        (self.nodes.len() - 1 - usize::from(self.terminated())) as u64
    }

    /// End of the last *finite* segment — one past the last local round the
    /// recorded run actually executed.
    fn finite_end(&self) -> Round {
        let nsegs = self.nodes.len();
        if self.terminated() {
            self.starts[nsegs - 1]
        } else {
            self.starts[nsegs]
        }
    }

    /// Index of the infinite tail segment, if any.
    #[inline]
    fn tail_index(&self) -> Option<usize> {
        self.terminated().then(|| self.nodes.len() - 1)
    }

    /// Edge traversals completed at rounds `<= starts[i]` (the move that
    /// opened segment `i` included) — positional, see [`Self::total_moves`].
    #[inline]
    fn moves_before(&self, i: usize) -> u64 {
        (i as u64).min(self.total_moves())
    }

    /// Segment starts plus the trailing sentinel (payload column).
    pub fn starts(&self) -> &[Round] {
        &self.starts
    }

    /// Per-segment nodes (payload column).
    pub fn seg_nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// CSR offsets of the per-node occupancy index (rebuilt on load).
    pub fn occ_starts(&self) -> &[u32] {
        &self.occ_starts
    }

    /// Occupancy-interval starts, grouped by node (rebuilt on load).
    pub fn occ_interval_starts(&self) -> &[Round] {
        &self.occ_start
    }

    /// Occupancy-interval ends, grouped by node (rebuilt on load).
    pub fn occ_interval_ends(&self) -> &[Round] {
        &self.occ_end
    }

    /// Segment index realising each occupancy interval (rebuilt on load).
    pub fn occ_segs(&self) -> &[u32] {
        &self.occ_seg
    }

    /// Index of the segment occupying `local` (which must be covered: below
    /// [`Self::finite_end`], or anywhere when the timeline has a tail).
    fn seg_at(&self, local: Round) -> usize {
        let nsegs = self.nodes.len();
        let idx = self.starts[1..=nsegs].partition_point(|&end| end <= local);
        debug_assert!(idx < nsegs, "round {local} beyond the recorded timeline");
        idx
    }

    /// `(moves, terminated)` of the same program run truncated at local
    /// horizon `cap <=` the recorded horizon — exact because programs
    /// propagate `Stop`, making the truncated run a prefix of this one.
    fn totals_up_to(&self, cap: Round) -> (u64, bool) {
        if cap >= self.finite_end() - 1 {
            (self.total_moves(), self.terminated())
        } else {
            (self.moves_before(self.seg_at(cap)), false)
        }
    }

    /// Earliest visit to `node` within the local window `[lo, hi)`: the
    /// occupancy-interval index finds the first interval at `node` ending
    /// after `lo` in one binary search (intervals per node are disjoint, so
    /// sorted by `start` *and* by `end`).  Returns the segment index and the
    /// first shared round.  (The reference oracle's probe; the δ-sweep
    /// kernel inlines the same search to cover a whole delay range.)
    #[cfg(any(test, feature = "ref-oracle"))]
    #[inline]
    fn first_visit(&self, node: NodeId, lo: Round, hi: Round) -> Option<(usize, Round)> {
        let s = self.occ_starts[node] as usize;
        let e = self.occ_starts[node + 1] as usize;
        let k = s + self.occ_end[s..e].partition_point(|&end| end <= lo);
        if k == e {
            return None;
        }
        (self.occ_start[k] < hi).then(|| (self.occ_seg[k] as usize, self.occ_start[k].max(lo)))
    }
}

/// Merge two cached timelines into the [`SimOutcome`] of the STIC that
/// starts the `earlier` timeline's program at global round 0 and the
/// `later` one's at `stic.delay`, up to the global `horizon` — bit-identical
/// to running the streaming or lockstep engine on the same STIC.
///
/// Both timelines must have been recorded with a local horizon of at least
/// `horizon` (the cache horizon); the merge clips them down to the query,
/// which is exact because truncated runs are prefixes (see the module docs).
///
/// The kernel is a branch-light two-cursor sort-merge over the flat
/// `starts`/`nodes` arrays (see `merge_forward`): `O(segments(earlier) +
/// segments(later))` with no binary probes, and the first equal-node window
/// it finds **is** the earliest meeting because the intersection windows are
/// visited in increasing time order.
pub fn merge_timelines(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    if anonrv_obs::enabled() {
        anonrv_obs::counter_add("merge.calls", 1);
        // upper bound: the two-cursor sweep visits at most every segment
        anonrv_obs::counter_add("merge.segments", (earlier.nodes.len() + later.nodes.len()) as u64);
    }
    if stic.delay > horizon {
        // the later agent never even appears within the horizon
        return SimOutcome::no_show(horizon);
    }
    merge_forward(earlier, later, stic.delay, horizon)
}

/// The two-cursor sweep behind [`merge_timelines`]: advance cursors `i`
/// (earlier) and `j` (later) from the first segments, comparing the earlier
/// segment's global interval `[sa[i], sa[i+1])` against the later segment's
/// delay-shifted, horizon-clipped interval; the nonempty intersections are
/// visited in strictly increasing time order, so the first one whose nodes
/// agree yields the earliest meeting.  The per-step cursor advance is a
/// pair of flag additions — no data-dependent branch beyond the meeting
/// test itself.
fn merge_forward(earlier: &Timeline, later: &Timeline, delay: Round, horizon: Round) -> SimOutcome {
    let (mut i, mut j) = (0, 0);
    // the later agent's run is truncated at this local round
    let later_cap = horizon - delay;
    let cap1 = later_cap.saturating_add(1);
    let na = earlier.nodes.len();
    let nb = later.nodes.len();
    let sa = earlier.starts.as_slice();
    let sb = later.starts.as_slice();
    while i < na && j < nb {
        let b_start = sb[j];
        if b_start > later_cap {
            break;
        }
        let a_hi = sa[i + 1];
        // clip the later window at the cap *before* shifting: b_start <=
        // later_cap keeps the shift overflow-free and bounds meetings by
        // the horizon (hi <= horizon + 1)
        let b_hi = sb[j + 1].min(cap1).saturating_add(delay);
        let lo = sa[i].max(b_start + delay);
        let hi = a_hi.min(b_hi);
        if lo < hi && earlier.nodes[i] == later.nodes[j] {
            return merge_outcome(earlier, later, delay, Some((lo, i, j)), horizon);
        }
        i += usize::from(a_hi <= b_hi);
        j += usize::from(b_hi <= a_hi);
    }
    merge_outcome(earlier, later, delay, None, horizon)
}

/// The [`SimOutcome`] of one merged STIC at `delay`: a meeting at global
/// round `at` between earlier segment `i` and later segment `j`, or — for
/// `None` — no meeting, each agent's totals taken from its run truncated
/// at the horizon (the later one's at local round `horizon - delay`).
/// Shared by both kernels.
fn merge_outcome(
    earlier: &Timeline,
    later: &Timeline,
    delay: Round,
    meeting: Option<(Round, usize, usize)>,
    horizon: Round,
) -> SimOutcome {
    let Some((at, i, j)) = meeting else {
        let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
        let (later_moves, later_terminated) = later.totals_up_to(horizon - delay);
        return SimOutcome {
            meeting: None,
            earlier_moves,
            later_moves,
            earlier_terminated,
            later_terminated,
            horizon,
        };
    };
    SimOutcome {
        meeting: Some(Meeting {
            global_round: at,
            later_round: at - delay,
            node: earlier.nodes[i] as usize,
        }),
        earlier_moves: earlier.moves_before(i),
        later_moves: later.moves_before(j),
        earlier_terminated: earlier.tail_index() == Some(i),
        later_terminated: later.tail_index() == Some(j),
        horizon,
    }
}

/// Merge two cached timelines for a whole **delay sweep** of one `(u, v)`
/// pair: one pass over the later timeline resolves every `δ` in `deltas` at
/// once, returning outcomes in input order, each bit-identical to
/// [`merge_timelines`] at that delay.  The kernel is
/// [`merge_timelines_deltas_mapped`] under the identity map.
pub fn merge_timelines_deltas(
    earlier: &Timeline,
    later: &Timeline,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    merge_timelines_deltas_mapped(earlier, later, |v| v, deltas, horizon)
}

/// The δ-sweep kernel: [`merge_timelines_deltas`] against a
/// **node-relabelled** later timeline, without materialising it — outcomes
/// are bit-identical to merging `earlier` with a copy of `later` whose
/// `nodes` array was rewritten through `map` (same `starts`, same segment
/// structure).
///
/// This is the sweep workloads' inner loop: all of a pair's delays share
/// the occupancy lookups and the later-timeline sweep, so `k` delays cost
/// about one merge instead of `k`.  Each later segment costs one binary
/// probe into the earlier timeline's occupancy index (over the earlier
/// agent's visits to that node) plus the entries it touches, so the kernel
/// needs no per-merge setup and no scratch.
///
/// The map is what **streaming all-pairs planning** on vertex-transitive
/// graphs needs: there, the walk from node `φ(0)` is the `φ`-image of the
/// walk from node `0` (the program observes only degrees, entry ports and
/// its clock — all `φ`-invariant), so the later agent's timeline for class
/// `c` is exactly `timeline(0)` with nodes mapped through the group element
/// `c`, and one recorded timeline serves *all* `n` classes immutably.
/// Meeting nodes come from `earlier`'s segments and are therefore already
/// true graph nodes; only the later side is viewed through `map`.
///
/// The kernel emits no telemetry: its callers add the `merge.*` counters
/// once per call ([`TrajectoryCache::simulate_deltas_capped`]) or once per
/// chunk of classes (the streamed planner).
pub fn merge_timelines_deltas_mapped(
    earlier: &Timeline,
    later: &Timeline,
    map: impl Fn(usize) -> usize,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    if deltas.is_sorted() {
        return merge_deltas_sorted(earlier, later, &map, deltas, horizon);
    }
    // the sweep needs ascending delays; reorder through a sorted copy
    // (sweeps pass ascending delay lists, so the hot path never gets here)
    let mut order: Vec<usize> = (0..deltas.len()).collect();
    order.sort_by_key(|&i| deltas[i]);
    let sorted: Vec<Round> = order.iter().map(|&i| deltas[i]).collect();
    let outcomes = merge_deltas_sorted(earlier, later, &map, &sorted, horizon);
    let mut out = vec![outcomes[0]; deltas.len()];
    for (k, &i) in order.iter().enumerate() {
        out[i] = outcomes[k];
    }
    out
}

/// The sorted-deltas body of [`merge_timelines_deltas_mapped`].
fn merge_deltas_sorted<F: Fn(usize) -> usize>(
    earlier: &Timeline,
    later: &Timeline,
    map: &F,
    deltas: &[Round],
    horizon: Round,
) -> Vec<SimOutcome> {
    let horizon1 = horizon.saturating_add(1);
    // delays beyond the horizon sit at the tail and are never swept
    let active = deltas.partition_point(|&d| d <= horizon);
    // per-active-delay best meeting: (meeting round, earlier seg, later seg)
    let mut best: Vec<(Round, usize, usize)> = vec![(INFINITY, 0, 0); active];
    if active > 0 {
        let delta_min = deltas[0];
        let delta_max = deltas[active - 1];
        // the later sweep may stop once every delay's window is closed:
        // segment j is useful for delay δ only while start + δ < min(best_lo,
        // horizon + 1)
        let stop_at = |best: &[(Round, usize, usize)]| -> Round {
            deltas[..active]
                .iter()
                .zip(best)
                .map(|(&d, &(lo, ..))| lo.min(horizon1).saturating_sub(d))
                .max()
                .expect("active is non-zero")
        };
        let mut stop = stop_at(&best);
        for jb in 0..later.nodes.len() {
            let b_start = later.starts[jb];
            if b_start >= stop {
                break;
            }
            // the later agent parks on the image of its recorded node
            let node = map(later.nodes[jb] as usize);
            let s = earlier.occ_starts[node] as usize;
            let e = earlier.occ_starts[node + 1] as usize;
            if s == e {
                continue; // the earlier agent never visits this node at all
            }
            let b_end = later.starts[jb + 1];
            // An earlier visit `[occ_start, occ_end)` overlaps this (parked)
            // later segment under delay δ iff
            //   occ_end > b_start + δ  and  occ_start < b_end + δ,
            // i.e. for δ in [(occ_start+1) − b_end, occ_end − b_start);
            // the horizon additionally caps δ ≤ horizon − b_start.  Each
            // entry is charged once for the whole delay range instead of
            // being re-probed per delay.
            // delta_cap > 0: b_start <= horizon here
            let delta_cap = horizon1 - b_start;
            // the first visit still open at b_start + delta_min (intervals
            // per node are disjoint, so sorted by start *and* by end)
            let k = s + earlier.occ_end[s..e].partition_point(|&end| end <= b_start + delta_min);
            // a useful entry must satisfy occ_start < b_end + δ for some
            // valid δ *and* occ_start <= horizon (a meeting round never
            // exceeds the horizon); entries are sorted by start, so the
            // first one beyond either bound ends the scan
            let entry_stop = b_end.saturating_add(delta_max.min(delta_cap - 1)).min(horizon1);
            let mut updated = false;
            for kk in k..e {
                let e_start = earlier.occ_start[kk];
                if e_start >= entry_stop {
                    break;
                }
                let d_lo = (e_start + 1).saturating_sub(b_end).max(delta_min);
                // d_hi is exclusive
                let d_hi = (earlier.occ_end[kk] - b_start).min(delta_cap);
                // the active delays inside [d_lo, d_hi) — a handful, so a
                // linear scan beats binary search
                for (slot, &delta) in deltas[..active].iter().enumerate() {
                    if delta >= d_hi {
                        break;
                    }
                    if delta < d_lo {
                        continue;
                    }
                    let at = e_start.max(b_start + delta);
                    if at < best[slot].0 {
                        best[slot] = (at, earlier.occ_seg[kk] as usize, jb);
                        updated = true;
                    }
                }
            }
            if updated {
                stop = stop_at(&best);
            }
        }
    }

    // assemble outcomes in input order
    deltas
        .iter()
        .enumerate()
        .map(|(slot, &delta)| match best.get(slot) {
            // the later agent never even appears within the horizon
            None => SimOutcome::no_show(horizon),
            Some(&(at, si, jb)) => merge_outcome(
                earlier,
                later,
                delta,
                (at < INFINITY).then_some((at, si, jb)),
                horizon,
            ),
        })
        .collect()
}

/// The retained pre-kernel [`merge_timelines`]: sweeps the later agent's
/// segments and resolves each against the earlier timeline's occupancy
/// index with a **binary probe** per segment.  Kept solely as the reference
/// oracle the differential suites pin the sort-merge kernel against
/// (`ref-oracle` feature, always on under `cfg(test)`).
#[cfg(any(test, feature = "ref-oracle"))]
pub fn merge_timelines_reference(
    earlier: &Timeline,
    later: &Timeline,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    if stic.delay > horizon {
        // the later agent never even appears within the horizon
        return SimOutcome::no_show(horizon);
    }
    let delay = stic.delay;
    // the later agent's run is truncated at this local round
    let later_cap = horizon - delay;

    // Sweep the later agent's segments in time order; every segment is a
    // parked interval, so the earliest meeting inside it is the earlier
    // agent's first visit to that node within the (global) window.  Stop as
    // soon as the next window opens at or after the best meeting so far.
    let mut best_lo = INFINITY;
    let mut best: Option<(usize, usize)> = None;
    let cap1 = later_cap.saturating_add(1);
    for jb in 0..later.nodes.len() {
        let b_start = later.starts[jb];
        if b_start > later_cap {
            break;
        }
        let lo = b_start + delay; // <= horizon, exact
        if lo >= best_lo {
            break;
        }
        let hi = later.starts[jb + 1].min(cap1).saturating_add(delay);
        if let Some((si, at)) = earlier.first_visit(later.nodes[jb] as usize, lo, hi) {
            if at < best_lo {
                best_lo = at;
                best = Some((si, jb));
            }
        }
    }

    match best.map(|(si, jb)| (best_lo, si, jb)) {
        Some((at, si, jb)) => SimOutcome {
            meeting: Some(Meeting {
                global_round: at,
                later_round: at - delay,
                node: earlier.nodes[si] as usize,
            }),
            earlier_moves: earlier.moves_before(si),
            later_moves: later.moves_before(jb),
            earlier_terminated: earlier.tail_index() == Some(si),
            later_terminated: later.tail_index() == Some(jb),
            horizon,
        },
        None => {
            let (earlier_moves, earlier_terminated) = earlier.totals_up_to(horizon);
            let (later_moves, later_terminated) = later.totals_up_to(later_cap);
            SimOutcome {
                meeting: None,
                earlier_moves,
                later_moves,
                earlier_terminated,
                later_terminated,
                horizon,
            }
        }
    }
}

/// Nodes per page of a [`PagedSlots`] store.
const PAGE: usize = 1024;

/// One write-once slot per node of an `n`-node graph, allocated a page of
/// [`PAGE`] slots at a time on first write: a session that touches a few
/// start nodes of a million-node graph holds a few pages, not `n` empty
/// slots.  The last page holds only the `n mod PAGE` real nodes.  Reads
/// never allocate; writes allocate their page through `get_or_init`, so
/// concurrent first touches of one page need no lock.
struct PagedSlots<T> {
    n: usize,
    pages: Box<[OnceLock<Page<T>>]>,
}

/// The slots of [`PAGE`] consecutive nodes (fewer on the last page).
type Page<T> = Box<[OnceLock<T>]>;

impl<T> PagedSlots<T> {
    fn new(n: usize) -> Self {
        PagedSlots { n, pages: (0..n.div_ceil(PAGE)).map(|_| OnceLock::new()).collect() }
    }

    /// The value held for `u`, without allocating; panics when `u >= n`.
    fn get(&self, u: NodeId) -> Option<&T> {
        assert!(u < self.n, "start node out of range");
        self.pages[u / PAGE].get()?[u % PAGE].get()
    }

    /// The slot of `u`, allocating its page on first touch; panics when
    /// `u >= n`.
    fn slot(&self, u: NodeId) -> &OnceLock<T> {
        assert!(u < self.n, "start node out of range");
        let first = u - u % PAGE;
        let page = self.pages[u / PAGE]
            .get_or_init(|| (first..self.n.min(first + PAGE)).map(|_| OnceLock::new()).collect());
        &page[u % PAGE]
    }

    /// Every held `(node, value)` pair in ascending node order, visiting
    /// only resident pages.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p * PAGE, page.get()?)))
            .flat_map(|(first, page)| {
                page.iter().enumerate().filter_map(move |(i, s)| Some((first + i, s.get()?)))
            })
    }
}

/// Per-`(graph, program, horizon)` store of start-node timelines, computed
/// lazily (at most once per node) and shared across threads: `timeline`
/// takes `&self`, so a rayon sweep can fan out over
/// [`TrajectoryCache::simulate`] calls directly.  Slots are paged and
/// allocated on first write, so a cache holds memory for the pages of
/// nodes it has touched, not for all `n` nodes.
pub struct TrajectoryCache<'a> {
    graph: &'a PortGraph,
    program: &'a dyn AgentProgram,
    horizon: Round,
    slots: PagedSlots<Timeline>,
    /// Per-start symbolic (prefix + cycle) timelines, detected lazily for
    /// finite-state programs; `Some(None)` caches a failed detection so the
    /// budgeted search runs at most once per start.
    symbolic: PagedSlots<Option<SymbolicTimeline>>,
}

/// Largest horizon the batch engine resolves by explicit unrolling.  Queries
/// beyond this cap route through the symbolic (prefix + cycle) path when the
/// program exposes a [`FiniteStateProgram`](crate::navigator::FiniteStateProgram)
/// view — closed-form cycle merges whose cost is independent of the horizon —
/// and only fall back to explicit recording when no symbolic form exists.
/// Everything at or below the cap takes the explicit path unchanged.
pub const UNROLL_CAP: Round = 1 << 22;

impl<'a> TrajectoryCache<'a> {
    /// Create an empty cache; no trajectory is computed until queried.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, horizon: Round) -> Self {
        let (slots, symbolic) =
            (PagedSlots::new(graph.num_nodes()), PagedSlots::new(graph.num_nodes()));
        TrajectoryCache { graph, program, horizon, slots, symbolic }
    }

    /// The cache horizon: every query must use a horizon `<=` this.
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// The graph the cache simulates on.
    pub fn graph(&self) -> &'a PortGraph {
        self.graph
    }

    /// The program both agents run.
    pub fn program(&self) -> &'a dyn AgentProgram {
        self.program
    }

    /// The timeline of the agent started at `start`, produced on first use:
    /// materialised from the node's symbolic (prefix + cycle) timeline when
    /// one is already held (warm-loaded or previously detected) —
    /// bit-identical to a fresh recording and free of program execution —
    /// and recorded by running the program otherwise.  Laziness is the
    /// point: a store warming thousands of symbolic entries pays nothing
    /// here until a node's explicit path is actually queried.
    pub fn timeline(&self, start: NodeId) -> &Timeline {
        self.slots.slot(start).get_or_init(|| match self.get_symbolic(start) {
            Some(s) => s.materialize(self.horizon),
            None => Timeline::record(self.graph, self.program, start, self.horizon),
        })
    }

    /// Number of start nodes whose timeline has been recorded so far.
    pub fn computed(&self) -> usize {
        self.slots.iter().count()
    }

    /// The already-recorded timeline of `start`, without recording one.
    pub fn get(&self, start: NodeId) -> Option<&Timeline> {
        self.slots.get(start)
    }

    /// Every recorded `(start node, timeline)` pair, in node order — what a
    /// persistent store serialises after a sweep.
    pub fn computed_timelines(&self) -> impl Iterator<Item = (NodeId, &Timeline)> + '_ {
        self.slots.iter()
    }

    /// `true` when `start` already holds an explicit timeline (recorded or
    /// preloaded), without recording one.
    pub fn has_timeline(&self, start: NodeId) -> bool {
        self.slots.get(start).is_some()
    }

    /// Install a previously recorded timeline for `start` (a warm persistent
    /// cache restoring trajectories from disk), so later queries skip the
    /// program execution entirely.
    ///
    /// Returns `false` — leaving the cache untouched — when the timeline
    /// cannot stand in for a fresh recording: wrong graph size, a recorded
    /// horizon below this cache's, or a slot that is already populated.
    /// Rejection is not an error; the affected node simply falls back to
    /// recording on first use.
    pub fn preload(&self, start: NodeId, timeline: Timeline) -> bool {
        if start >= self.graph.num_nodes()
            || timeline.num_graph_nodes() != self.graph.num_nodes()
            || timeline.recorded_horizon() < self.horizon
        {
            return false;
        }
        self.slots.slot(start).set(timeline).is_ok()
    }

    /// Record every start node's timeline (sequentially; parallel callers
    /// can equivalently fan `timeline` calls out over their own thread
    /// pool).
    pub fn warm_all(&self) {
        for u in 0..self.graph.num_nodes() {
            self.timeline(u);
        }
    }

    /// The symbolic (prefix + cycle) timeline of `start`, detecting it on
    /// first use.  `None` when the program has no finite-state view or the
    /// budgeted cycle detection did not converge; the failure is cached, so
    /// the search runs at most once per start.
    pub fn symbolic_timeline(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        assert!(start < self.graph.num_nodes(), "start node out of range");
        let fs = self.program.finite_state()?;
        self.symbolic.slot(start).get_or_init(|| detect_symbolic(self.graph, fs, start)).as_ref()
    }

    /// The already-detected symbolic timeline of `start`, without running a
    /// detection.
    pub fn get_symbolic(&self, start: NodeId) -> Option<&SymbolicTimeline> {
        self.symbolic.get(start).and_then(|s| s.as_ref())
    }

    /// Number of start nodes holding a symbolic timeline (detected or
    /// preloaded) so far.
    pub fn computed_symbolic(&self) -> usize {
        self.computed_symbolic_timelines().count()
    }

    /// Every held `(start node, symbolic timeline)` pair, in node order —
    /// what a persistent store serialises after a symbolic sweep.
    pub fn computed_symbolic_timelines(
        &self,
    ) -> impl Iterator<Item = (NodeId, &SymbolicTimeline)> + '_ {
        self.symbolic.iter().filter_map(|(u, o)| o.as_ref().map(|s| (u, s)))
    }

    /// Install a previously detected symbolic timeline for `start` (a warm
    /// persistent cache restoring cycle structure from disk), so later
    /// symbolic queries skip the detection entirely.  Returns `false` —
    /// leaving the cache untouched — on a graph-size mismatch or an already
    /// populated slot; rejection is not an error, the node simply falls back
    /// to detection on first use.
    pub fn preload_symbolic(&self, start: NodeId, symbolic: SymbolicTimeline) -> bool {
        if start >= self.graph.num_nodes() || symbolic.num_graph_nodes() != self.graph.num_nodes() {
            return false;
        }
        self.symbolic.slot(start).set(Some(symbolic)).is_ok()
    }

    /// Resolve one STIC through the symbolic path at an arbitrary `horizon`
    /// (no cache-horizon cap: the closed-form cycle merge never unrolls
    /// past its bounded alignment window).  `None` when either start lacks
    /// a symbolic timeline, or when the merge declines because resolving
    /// exactly would exceed [`crate::symbolic::MERGE_SEG_CAP`] segments per
    /// side (the caller falls back to the explicit path); a returned
    /// outcome is bit-identical to the explicit `simulate_capped` at the
    /// same horizon.
    pub fn simulate_symbolic(&self, stic: &Stic, horizon: Round) -> Option<SimOutcome> {
        if stic.delay > horizon {
            return Some(SimOutcome::no_show(horizon));
        }
        let earlier = self.symbolic_timeline(stic.earlier)?;
        let later = self.symbolic_timeline(stic.later)?;
        merge_symbolic(earlier, later, stic, horizon)
    }

    /// Simulate one STIC at the cache horizon.
    pub fn simulate(&self, stic: &Stic) -> SimOutcome {
        self.simulate_capped(stic, self.horizon)
    }

    /// Simulate one STIC at `horizon <= self.horizon()` (exact for any
    /// smaller horizon because truncated runs are prefixes; see the module
    /// docs).
    pub fn simulate_capped(&self, stic: &Stic, horizon: Round) -> SimOutcome {
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        assert!(stic.earlier < self.graph.num_nodes(), "earlier start node out of range");
        assert!(stic.later < self.graph.num_nodes(), "later start node out of range");
        if stic.delay > horizon {
            // answered without touching (or recording) any timeline,
            // mirroring the other engines' early return
            return SimOutcome::no_show(horizon);
        }
        if horizon > UNROLL_CAP {
            if let Some(outcome) = self.simulate_symbolic(stic, horizon) {
                return outcome;
            }
        }
        merge_timelines(self.timeline(stic.earlier), self.timeline(stic.later), stic, horizon)
    }

    /// Simulate one `(u, v)` pair under **every** delay in `deltas` in a
    /// single pass over the cached timelines (see
    /// [`merge_timelines_deltas`]); outcome `i` is bit-identical to
    /// `simulate(&Stic::new(u, v, deltas[i]))`.
    pub fn simulate_deltas(&self, u: NodeId, v: NodeId, deltas: &[Round]) -> Vec<SimOutcome> {
        self.simulate_deltas_capped(u, v, deltas, self.horizon)
    }

    /// [`TrajectoryCache::simulate_deltas`] at `horizon <= self.horizon()`
    /// (exact for any smaller horizon because truncated runs are prefixes);
    /// outcome `i` is bit-identical to
    /// `simulate_capped(&Stic::new(u, v, deltas[i]), horizon)`.  A pass
    /// through the δ-sweep kernel adds one to `merge.delta_passes`, the
    /// grid size to `merge.deltas` and both timelines' segment counts to
    /// `merge.segments`.
    pub fn simulate_deltas_capped(
        &self,
        u: NodeId,
        v: NodeId,
        deltas: &[Round],
        horizon: Round,
    ) -> Vec<SimOutcome> {
        assert!(
            horizon <= self.horizon,
            "query horizon {horizon} exceeds the cache horizon {}",
            self.horizon
        );
        assert!(u < self.graph.num_nodes(), "earlier start node out of range");
        assert!(v < self.graph.num_nodes(), "later start node out of range");
        if deltas.iter().all(|&d| d > horizon) {
            // answered without recording any timeline, like `simulate_capped`
            return deltas.iter().map(|_| SimOutcome::no_show(horizon)).collect();
        }
        if horizon > UNROLL_CAP && self.program.finite_state().is_some() {
            let symbolic: Option<Vec<SimOutcome>> = deltas
                .iter()
                .map(|&delta| self.simulate_symbolic(&Stic::new(u, v, delta), horizon))
                .collect();
            if let Some(outcomes) = symbolic {
                return outcomes;
            }
        }
        let (earlier, later) = (self.timeline(u), self.timeline(v));
        if anonrv_obs::enabled() {
            anonrv_obs::counter_add("merge.delta_passes", 1);
            anonrv_obs::counter_add("merge.deltas", deltas.len() as u64);
            // upper bound: the pass visits at most every segment of both
            let segments = earlier.nodes.len() + later.nodes.len();
            anonrv_obs::counter_add("merge.segments", segments as u64);
        }
        merge_timelines_deltas(earlier, later, deltas, horizon)
    }
}

/// Sweep-facing engine façade: a [`TrajectoryCache`] plus the
/// [`EngineConfig`] that selects how queries are answered.
///
/// Constructing a `SweepEngine` is the caller's signal that many STICs of
/// one `(graph, program)` pair will be simulated, so [`EngineMode::Auto`]
/// resolves to the batch path here (unlike in
/// [`simulate_with`], where a single call cannot amortise a cache).
/// Pinning [`EngineMode::Streaming`] or [`EngineMode::Lockstep`] makes every
/// query fall through to the per-call engines — the escape hatch the
/// differential tests flip.
pub struct SweepEngine<'a> {
    cache: TrajectoryCache<'a>,
    config: EngineConfig,
}

impl<'a> SweepEngine<'a> {
    /// Create an engine for sweeping STICs of `graph` under `program`.
    pub fn new(graph: &'a PortGraph, program: &'a dyn AgentProgram, config: EngineConfig) -> Self {
        SweepEngine { cache: TrajectoryCache::new(graph, program, config.horizon), config }
    }

    /// The underlying trajectory cache.
    pub fn cache(&self) -> &TrajectoryCache<'a> {
        &self.cache
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The program both agents run.
    pub fn program(&self) -> &'a dyn AgentProgram {
        self.cache.program()
    }

    /// Simulate one STIC at the configured horizon.
    pub fn simulate(&self, stic: &Stic) -> SimOutcome {
        self.simulate_capped(stic, self.config.horizon)
    }

    /// Simulate one STIC at `horizon <= config.horizon` (sweeps whose cases
    /// use heterogeneous horizons build one engine at the maximum and cap
    /// every query).
    pub fn simulate_capped(&self, stic: &Stic, horizon: Round) -> SimOutcome {
        match self.config.mode {
            EngineMode::Auto | EngineMode::Batch => self.cache.simulate_capped(stic, horizon),
            EngineMode::Streaming | EngineMode::Lockstep => {
                let program = self.cache.program();
                let config = EngineConfig { horizon, ..self.config };
                simulate_with(self.cache.graph(), program, program, stic, config)
            }
        }
    }

    /// Simulate one `(u, v)` pair under every delay in `deltas`: on the
    /// batch path a single pass over the cached timelines resolves the whole
    /// delay sweep ([`TrajectoryCache::simulate_deltas`]); pinned per-call
    /// modes simulate each delay separately.  Outcome `i` is bit-identical
    /// to `simulate(&Stic::new(u, v, deltas[i]))`.
    pub fn simulate_deltas(&self, u: NodeId, v: NodeId, deltas: &[Round]) -> Vec<SimOutcome> {
        self.simulate_deltas_capped(u, v, deltas, self.config.horizon)
    }

    /// [`SweepEngine::simulate_deltas`] at `horizon <= config.horizon`;
    /// outcome `i` is bit-identical to
    /// `simulate_capped(&Stic::new(u, v, deltas[i]), horizon)`.
    pub fn simulate_deltas_capped(
        &self,
        u: NodeId,
        v: NodeId,
        deltas: &[Round],
        horizon: Round,
    ) -> Vec<SimOutcome> {
        match self.config.mode {
            EngineMode::Auto | EngineMode::Batch => {
                self.cache.simulate_deltas_capped(u, v, deltas, horizon)
            }
            EngineMode::Streaming | EngineMode::Lockstep => deltas
                .iter()
                .map(|&delta| self.simulate_capped(&Stic::new(u, v, delta), horizon))
                .collect(),
        }
    }
}

/// Simulate a single STIC through the batch engine (both agents run
/// `program`).  One-shot convenience over [`TrajectoryCache`]; sweeps should
/// hold on to a cache (or a [`SweepEngine`]) instead, which is where the
/// `O(n)`-executions-per-graph payoff comes from.
pub fn simulate_batch(
    g: &PortGraph,
    program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    TrajectoryCache::new(g, program, horizon).simulate(stic)
}

/// Batch path of [`simulate_with`] (`EngineMode::Batch` with possibly
/// different programs per agent): record the two timelines and merge.
pub(crate) fn simulate_batch_with(
    g: &PortGraph,
    earlier_program: &dyn AgentProgram,
    later_program: &dyn AgentProgram,
    stic: &Stic,
    horizon: Round,
) -> SimOutcome {
    let earlier = Timeline::record(g, earlier_program, stic.earlier, horizon);
    let later = Timeline::record(g, later_program, stic.later, horizon);
    merge_timelines(&earlier, &later, stic, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::navigator::{Navigator, StepAction, StepDecision};
    use anonrv_graph::generators::{oriented_ring, oriented_torus, two_node_graph};

    fn mover() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.move_via(0)?;
            }
        }
    }

    fn waiter() -> impl AgentProgram {
        |nav: &mut dyn Navigator| -> Result<(), Stop> {
            loop {
                nav.wait(Round::MAX)?;
            }
        }
    }

    #[test]
    fn timeline_records_waits_compressed_and_moves_counted() {
        let g = oriented_ring(5).unwrap();
        let program = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.wait(3)?;
            nav.wait(2)?;
            nav.move_via(0)?;
            Ok(())
        };
        let t = Timeline::record(&g, &program, 0, 100);
        // [0,1)@0, [1,7)@1 (move + merged waits), [7,8)@2, tail [8,inf)@2
        assert_eq!(t.num_segments(), 4);
        assert!(t.terminated());
        assert_eq!(t.total_moves(), 2);
        assert_eq!(t.finite_end(), 8);
        assert_eq!(t.first_visit(1, 0, 100), Some((1, 1)));
        assert_eq!(t.first_visit(2, 0, 8), Some((2, 7)));
        assert_eq!(t.first_visit(2, 8, 100), Some((3, 8))); // the tail
        assert_eq!(t.first_visit(3, 0, 100), None);
        assert_eq!(t.totals_up_to(0), (0, false));
        assert_eq!(t.totals_up_to(6), (1, false));
        assert_eq!(t.totals_up_to(7), (2, true));
        assert_eq!(t.totals_up_to(50), (2, true));
    }

    #[test]
    fn batch_agrees_with_the_engine_unit_scenarios() {
        // the same scenarios engine.rs pins for lockstep/streaming
        let two = two_node_graph();
        let ring = oriented_ring(6).unwrap();
        let cases: Vec<(&PortGraph, Stic, Round)> = vec![
            (&two, Stic::new(0, 1, 3), 100),
            (&two, Stic::new(0, 1, 2), 10_000),
            (&two, Stic::simultaneous(0, 1), 10_000),
            (&ring, Stic::new(0, 2, 2), 100),
            (&ring, Stic::new(0, 2, 1_000), 10),
        ];
        for (g, stic, horizon) in cases {
            let batch = simulate_batch(g, &mover(), &stic, horizon);
            let reference = simulate(g, &mover(), &stic, horizon);
            assert_eq!(batch, reference, "{stic} horizon {horizon}");
        }
    }

    #[test]
    fn asymmetric_programs_through_engine_mode_batch() {
        let g = oriented_ring(6).unwrap();
        for delay in [0 as Round, 2, 5] {
            for horizon in [10 as Round, 200] {
                let stic = Stic::new(0, 3, delay);
                let batch =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::batch(horizon));
                let reference =
                    simulate_with(&g, &waiter(), &mover(), &stic, EngineConfig::lockstep(horizon));
                assert_eq!(batch, reference, "delay {delay} horizon {horizon}");
            }
        }
    }

    #[test]
    fn cache_records_each_start_node_at_most_once() {
        let g = oriented_torus(3, 4).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 64);
        assert_eq!(cache.computed(), 0);
        cache.simulate(&Stic::new(0, 5, 1));
        assert_eq!(cache.computed(), 2);
        cache.simulate(&Stic::new(0, 5, 3));
        cache.simulate(&Stic::new(5, 0, 2));
        assert_eq!(cache.computed(), 2);
        cache.warm_all();
        assert_eq!(cache.computed(), g.num_nodes());
    }

    #[test]
    fn capped_queries_match_rerecording_at_the_smaller_horizon() {
        let g = oriented_ring(7).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 500);
        for horizon in [0 as Round, 1, 3, 17, 100, 500] {
            for delay in [0 as Round, 1, 5] {
                let stic = Stic::new(0, 3, delay);
                let capped = cache.simulate_capped(&stic, horizon);
                let fresh = simulate_batch(&g, &program, &stic, horizon);
                let lockstep =
                    simulate_with(&g, &program, &program, &stic, EngineConfig::lockstep(horizon));
                assert_eq!(capped, fresh, "{stic} horizon {horizon}");
                assert_eq!(capped, lockstep, "{stic} horizon {horizon}");
            }
        }
    }

    #[test]
    fn sweep_engine_auto_uses_the_cache_and_pinned_modes_bypass_it() {
        let g = oriented_ring(8).unwrap();
        let program = mover();
        let auto = SweepEngine::new(&g, &program, EngineConfig::with_horizon(100));
        let pinned = SweepEngine::new(&g, &program, EngineConfig::streaming(100));
        let stic = Stic::new(0, 4, 3);
        let a = auto.simulate(&stic);
        let b = pinned.simulate(&stic);
        assert_eq!(a, b);
        assert_eq!(auto.cache().computed(), 2);
        assert_eq!(pinned.cache().computed(), 0);
    }

    #[test]
    fn delay_beyond_horizon_is_answered_without_recording() {
        let g = oriented_ring(5).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 10);
        let out = cache.simulate(&Stic::new(0, 2, 1_000));
        assert!(!out.met());
        assert_eq!(cache.computed(), 0);
    }

    #[test]
    fn delta_sweep_queries_match_per_delta_queries() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for (lifetime, horizon) in [(None, 40 as Round), (Some(9), 25)] {
            let program = ScriptedStepper { lifetime };
            let cache = TrajectoryCache::new(&g, &program, horizon);
            // ascending, unsorted and beyond-horizon delay lists
            let delta_lists: Vec<Vec<Round>> = vec![
                vec![0, 1, 2, 3, 4],
                vec![3, 0, 7, 1, 1],
                vec![horizon, horizon + 1, 0],
                vec![5],
                vec![],
            ];
            for u in 0..n {
                for v in [0usize, 5, 11] {
                    for deltas in &delta_lists {
                        let swept = cache.simulate_deltas(u, v, deltas);
                        assert_eq!(swept.len(), deltas.len());
                        for (i, &delta) in deltas.iter().enumerate() {
                            let single = cache.simulate(&Stic::new(u, v, delta));
                            assert_eq!(
                                swept[i], single,
                                "delta sweep diverged: ({u}, {v}) delta {delta}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Deterministic mover/waiter mix used by the delta-sweep test (waits
    /// make segments longer than one round, exercising the δ-interval
    /// arithmetic).
    struct ScriptedStepper {
        lifetime: Option<u64>,
    }

    impl AgentProgram for ScriptedStepper {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            let mut state = 0xDEAD_BEEFu64;
            let mut actions = 0u64;
            loop {
                if let Some(lifetime) = self.lifetime {
                    if actions >= lifetime {
                        return Ok(());
                    }
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = state >> 33;
                if roll.is_multiple_of(3) {
                    nav.wait((roll % 5 + 1) as Round)?;
                } else {
                    nav.move_via(roll as usize % nav.degree())?;
                }
                actions += 1;
            }
        }
    }

    #[test]
    fn timeline_round_trips_through_its_segment_list() {
        let g = oriented_torus(3, 4).unwrap();
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let original = Timeline::record(&g, &program, start, 40);
                let segs: Vec<TimelineSeg> = original.segments().collect();
                let rebuilt = Timeline::from_segments(g.num_nodes(), 40, segs).unwrap();
                assert_eq!(rebuilt.num_segments(), original.num_segments());
                assert_eq!(rebuilt.terminated(), original.terminated());
                assert_eq!(rebuilt.total_moves(), original.total_moves());
                assert_eq!(rebuilt.recorded_horizon(), original.recorded_horizon());
                assert_eq!(rebuilt.num_graph_nodes(), g.num_nodes());
                // the rebuilt timeline must answer every merge bit-identically
                let other = Timeline::record(&g, &program, (start + 1) % g.num_nodes(), 40);
                for delta in [0 as Round, 1, 3, 7] {
                    let stic = Stic::new(start, (start + 1) % g.num_nodes(), delta);
                    assert_eq!(
                        merge_timelines(&rebuilt, &other, &stic, 40),
                        merge_timelines(&original, &other, &stic, 40),
                        "rebuilt timeline diverged on {stic}"
                    );
                }
            }
        }
    }

    /// The streaming kernel: merging `t0` against itself viewed through a
    /// group element is bit-identical to (a) merging against a materialised
    /// relabeling of `t0`, (b) merging against a *cold recording* from the
    /// image start node (vertex-transitivity), and (c) the plain per-STIC
    /// merge — for every class, every delay, met and unmet alike.
    #[test]
    fn mapped_delta_merge_is_bit_identical_to_materialised_relabeling() {
        let g = oriented_torus(3, 4).unwrap();
        let group = anonrv_graph::group::SymmetryGroup::of(&g);
        assert!(group.is_implicit());
        let horizon: Round = 48;
        let deltas: &[Round] = &[0, 1, 2, 5, 9, 50];
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            let t0 = Timeline::record(&g, &program, 0, horizon);
            for c in 0..g.num_nodes() {
                let streamed =
                    merge_timelines_deltas_mapped(&t0, &t0, |v| group.apply(c, v), deltas, horizon);
                // (a) materialised relabeling of the same timeline
                let segs: Vec<TimelineSeg> = t0
                    .segments()
                    .map(|mut s| {
                        s.node = group.apply(c, s.node);
                        s
                    })
                    .collect();
                let mapped = Timeline::from_segments(g.num_nodes(), horizon, segs).unwrap();
                assert_eq!(streamed, merge_timelines_deltas(&t0, &mapped, deltas, horizon));
                // (b) the walk actually recorded from node c
                let tc = Timeline::record(&g, &program, c, horizon);
                assert_eq!(streamed, merge_timelines_deltas(&t0, &tc, deltas, horizon));
                // (c) STIC by STIC against the single-delay kernel
                for (slot, &delta) in deltas.iter().enumerate() {
                    let stic = Stic::new(0, c, delta);
                    assert_eq!(streamed[slot], merge_timelines(&t0, &tc, &stic, horizon), "{stic}");
                }
                // the unsorted-deltas reorder path agrees too
                let shuffled: &[Round] = &[5, 0, 50, 2];
                let reordered = merge_timelines_deltas_mapped(
                    &t0,
                    &t0,
                    |v| group.apply(c, v),
                    shuffled,
                    horizon,
                );
                for (k, &d) in shuffled.iter().enumerate() {
                    let slot = deltas.iter().position(|&x| x == d).unwrap();
                    assert_eq!(reordered[k], streamed[slot]);
                }
            }
        }
    }

    #[test]
    fn truncate_is_bit_identical_to_a_cold_recording_at_the_smaller_horizon() {
        let g = oriented_torus(3, 4).unwrap();
        for lifetime in [None, Some(4), Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let long = Timeline::record(&g, &program, start, 40);
                for horizon in [0 as Round, 1, 2, 7, 15, 39, 40] {
                    let truncated = long.truncate(horizon);
                    let cold = Timeline::record(&g, &program, start, horizon);
                    assert_eq!(
                        truncated.segments().collect::<Vec<_>>(),
                        cold.segments().collect::<Vec<_>>(),
                        "start {start} lifetime {lifetime:?} horizon {horizon}: segments diverged"
                    );
                    assert_eq!(truncated.recorded_horizon(), horizon);
                    assert_eq!(truncated.terminated(), cold.terminated());
                    assert_eq!(truncated.total_moves(), cold.total_moves());
                    // and the truncated timeline answers merges identically
                    let other = Timeline::record(&g, &program, (start + 3) % g.num_nodes(), 40);
                    for delta in [0 as Round, 1, 5] {
                        if delta > horizon {
                            continue;
                        }
                        let stic = Stic::new(start, (start + 3) % g.num_nodes(), delta);
                        assert_eq!(
                            merge_timelines(&truncated, &other, &stic, horizon),
                            merge_timelines(&cold, &other, &stic, horizon),
                            "merge diverged on {stic} at horizon {horizon}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn truncate_refuses_to_extend_a_recording() {
        let g = oriented_ring(5).unwrap();
        let t = Timeline::record(&g, &mover(), 0, 10);
        let _ = t.truncate(11);
    }

    #[test]
    fn from_segments_rejects_malformed_segment_lists() {
        let seg = |node: NodeId, start: Round, end: Round| TimelineSeg { node, start, end };
        // empty
        assert!(Timeline::from_segments(4, 10, vec![]).is_err());
        // first segment not at round 0
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 1, 2)]).is_err());
        // node out of range
        assert!(Timeline::from_segments(4, 10, vec![seg(9, 0, 2)]).is_err());
        // inverted interval
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 0)]).is_err());
        // gap between segments
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 1), seg(1, 2, 3)]).is_err());
        // infinite tail not in final position
        assert!(Timeline::from_segments(
            4,
            10,
            vec![seg(0, 0, 1), seg(1, 1, INFINITY), seg(1, INFINITY, INFINITY)]
        )
        .is_err());
        // tail wandering off the final node
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 1), seg(1, 1, INFINITY)]).is_err());
        // finite end beyond the declared horizon
        assert!(Timeline::from_segments(4, 10, vec![seg(0, 0, 40)]).is_err());
        // a well-formed list passes
        assert!(Timeline::from_segments(
            4,
            10,
            vec![seg(0, 0, 3), seg(1, 3, 4), seg(1, 4, INFINITY)]
        )
        .is_ok());
    }

    #[test]
    fn preload_installs_compatible_timelines_and_rejects_the_rest() {
        let g = oriented_ring(6).unwrap();
        let program = mover();
        let cache = TrajectoryCache::new(&g, &program, 50);
        // a timeline recorded at a *larger* horizon is an exact superset
        let longer = Timeline::record(&g, &program, 2, 80);
        assert!(cache.preload(2, longer));
        assert_eq!(cache.computed(), 1);
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_none());
        // occupied slot
        assert!(!cache.preload(2, Timeline::record(&g, &program, 2, 80)));
        // too-short recording
        assert!(!cache.preload(3, Timeline::record(&g, &program, 3, 10)));
        // wrong graph size
        let other = oriented_ring(5).unwrap();
        assert!(!cache.preload(4, Timeline::record(&other, &program, 4, 80)));
        // the preloaded slot answers queries bit-identically to a fresh cache
        let fresh = TrajectoryCache::new(&g, &program, 50);
        for delta in [0 as Round, 2, 5] {
            let stic = Stic::new(2, 4, delta);
            assert_eq!(cache.simulate(&stic), fresh.simulate(&stic));
        }
        assert_eq!(
            cache.computed_timelines().map(|(u, _)| u).collect::<Vec<_>>(),
            vec![2, 4],
            "computed_timelines reports recorded slots in node order"
        );
    }

    #[test]
    fn meeting_on_the_earlier_agents_terminated_tail_is_flagged() {
        let g = oriented_ring(6).unwrap();
        let two_steps = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            nav.move_via(0)?;
            nav.move_via(0)?;
            Ok(())
        };
        let stic = Stic::new(0, 5, 50);
        let batch = simulate_with(&g, &two_steps, &mover(), &stic, EngineConfig::batch(10_000));
        let reference =
            simulate_with(&g, &two_steps, &mover(), &stic, EngineConfig::lockstep(10_000));
        assert_eq!(batch, reference);
        assert!(batch.earlier_terminated);
        assert_eq!(batch.meeting.unwrap().node, 2);
    }

    #[test]
    fn sort_merge_kernel_matches_the_reference_oracle() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for (lifetime, horizon) in [(None, 48 as Round), (Some(7), 30)] {
            let program = ScriptedStepper { lifetime };
            let timelines: Vec<Timeline> =
                (0..n).map(|u| Timeline::record(&g, &program, u, horizon)).collect();
            for u in 0..n {
                for v in [0usize, 5, 11] {
                    for delta in [0 as Round, 1, 3, 9, horizon, horizon + 1] {
                        let stic = Stic::new(u, v, delta);
                        for h in [0 as Round, 1, horizon / 2, horizon] {
                            assert_eq!(
                                merge_timelines(&timelines[u], &timelines[v], &stic, h),
                                merge_timelines_reference(&timelines[u], &timelines[v], &stic, h),
                                "kernel vs reference on {stic} at horizon {h}"
                            );
                        }
                    }
                    // the δ-sweep kernel, slot by slot, against the
                    // reference's independent per-STIC probes
                    let deltas: Vec<Round> = vec![0, 2, 5, 11, horizon + 1];
                    let swept =
                        merge_timelines_deltas(&timelines[u], &timelines[v], &deltas, horizon);
                    for (slot, &delta) in deltas.iter().enumerate() {
                        let stic = Stic::new(u, v, delta);
                        assert_eq!(
                            swept[slot],
                            merge_timelines_reference(&timelines[u], &timelines[v], &stic, horizon),
                            "delta kernel vs reference on {stic}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_malformed_columns() {
        let g = oriented_torus(3, 4).unwrap();
        let n = g.num_nodes();
        for lifetime in [None, Some(9)] {
            let program = ScriptedStepper { lifetime };
            for start in [0usize, 5, 11] {
                let original = Timeline::record(&g, &program, start, 40);
                let parts = || TimelineParts {
                    starts: original.starts().to_vec(),
                    nodes: original.seg_nodes().to_vec(),
                };
                // the rebuilt occupancy index equals the recorded one, so
                // the whole timeline does
                assert_eq!(Timeline::from_parts(n, 40, parts()).unwrap(), original);

                // a node out of range is caught
                let mut bad = parts();
                bad.nodes[0] = n as u32;
                assert!(Timeline::from_parts(n, 40, bad).is_err());
                // a missing sentinel is caught
                let mut bad = parts();
                bad.starts.pop();
                assert!(Timeline::from_parts(n, 40, bad).is_err());
                // an empty (non-increasing) interval is caught
                let mut bad = parts();
                bad.starts[1] = 0;
                assert!(Timeline::from_parts(n, 40, bad).is_err());
                // a start array that does not begin at round 0 is caught
                let mut bad = parts();
                bad.starts[0] += 1;
                assert!(Timeline::from_parts(n, 40, bad).is_err());
                // a recording longer than its declared horizon is caught
                if !original.terminated() {
                    assert!(Timeline::from_parts(n, 20, parts()).is_err());
                }
            }
        }
        // a tail that wanders off the final node is caught
        let wandering = TimelineParts { starts: vec![0, 3, INFINITY], nodes: vec![0, 1] };
        assert!(Timeline::from_parts(4, 10, wandering).is_err());
        // no segments at all is caught
        assert!(
            Timeline::from_parts(4, 10, TimelineParts { starts: vec![0], nodes: vec![] }).is_err()
        );
    }

    /// Seeded mover/waiter mix for the recording differential: waits of
    /// zero (a no-op), a few and very many rounds, and an optional
    /// self-termination after `lifetime` actions.
    struct SeededProgram {
        seed: u64,
        lifetime: Option<u64>,
    }

    impl AgentProgram for SeededProgram {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            let mut state = self.seed;
            for _ in 0..self.lifetime.unwrap_or(u64::MAX) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = state >> 33;
                match roll % 8 {
                    0 => nav.wait(0)?,
                    1 | 2 => nav.wait((roll % 9 + 1) as Round)?,
                    3 => nav.wait((roll % 1000 + 100) as Round)?,
                    _ => {
                        nav.move_via(roll as usize % nav.degree())?;
                    }
                }
            }
            Ok(())
        }
    }

    /// The lockstep engine's recording of `start`: the `RecordSink` segment
    /// list plus the parked-forever tail it appends for a terminated run,
    /// rebuilt into a timeline through its public segment format.
    fn lockstep_recording(
        g: &PortGraph,
        program: &dyn AgentProgram,
        start: NodeId,
        horizon: Round,
    ) -> Timeline {
        let mut nav = GraphNavigator::new(g, start, horizon, RecordSink::new(start));
        let terminated = program.run(&mut nav).is_ok();
        let mut segs: Vec<TimelineSeg> = nav
            .into_sink()
            .segs
            .iter()
            .map(|s| TimelineSeg { node: s.node, start: s.start, end: s.end })
            .collect();
        if terminated {
            let last = *segs.last().unwrap();
            segs.push(TimelineSeg { node: last.node, start: last.end, end: INFINITY });
        }
        Timeline::from_segments(g.num_nodes(), horizon, segs).unwrap()
    }

    #[test]
    fn column_recording_is_bit_identical_to_the_lockstep_segment_list() {
        let mut rng = 0x5EED_CAFEu64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let (mut terminated, mut cut) = (0, 0);
        for case in 0..120u64 {
            let n = 2 + next() as usize % 9;
            let extra = (next() as usize % 4).min(n * (n - 1) / 2 - (n - 1));
            let g = anonrv_graph::generators::random_connected(n, extra, next()).unwrap();
            let horizon = match case % 4 {
                0 => 0,
                1 => 1,
                _ => (next() % 5000) as Round,
            };
            let lifetime = (case % 3 == 0).then(|| next() % 40);
            let program = SeededProgram { seed: next(), lifetime };
            for start in g.nodes() {
                let recorded = Timeline::record(&g, &program, start, horizon);
                assert_eq!(
                    recorded,
                    lockstep_recording(&g, &program, start, horizon),
                    "case {case}: start {start}, horizon {horizon}, lifetime {lifetime:?}"
                );
                // both columns are held at their exact length
                assert_eq!(recorded.starts.capacity(), recorded.starts.len());
                assert_eq!(recorded.nodes.capacity(), recorded.nodes.len());
                if recorded.terminated() {
                    terminated += 1;
                } else {
                    cut += 1;
                }
            }
        }
        // both kinds of run end occur: the `INFINITY` tail and the horizon cut
        assert!(terminated > 0 && cut > 0, "{terminated} terminated, {cut} cut");
    }

    /// Number of allocated pages of a slot store.
    fn resident<T>(slots: &PagedSlots<T>) -> usize {
        slots.pages.iter().filter(|p| p.get().is_some()).count()
    }

    #[test]
    fn concurrent_reverse_order_recording_iterates_in_node_order() {
        let n = 2 * PAGE + 3;
        let g = oriented_ring(n).unwrap();
        let program = crate::workload::SweepWalker { seed: 7 };
        let cache = TrajectoryCache::new(&g, &program, 40);
        // two threads interleave on every page, so first touches race
        std::thread::scope(|s| {
            for parity in 0..2 {
                let cache = &cache;
                s.spawn(move || {
                    (0..n).rev().filter(|u| u % 2 == parity).for_each(|u| {
                        cache.timeline(u);
                    })
                });
            }
        });
        assert_eq!(cache.computed(), n);
        let order: Vec<NodeId> = cache.computed_timelines().map(|(u, _)| u).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
        for (u, t) in cache.computed_timelines() {
            assert_eq!(*t, Timeline::record(&g, &program, u, 40), "start {u}");
        }
        assert_eq!(cache.slots.pages.len(), 3);
        let last = cache.slots.pages[2].get().expect("the last page is resident");
        assert_eq!(last.len(), 3, "the last page holds only the real nodes");
        assert_eq!(resident(&cache.symbolic), 0, "recording never writes a symbolic slot");
    }

    #[test]
    fn one_recording_allocates_one_explicit_page_and_no_symbolic_page() {
        let g = oriented_torus(256, 256).unwrap();
        let program = crate::workload::SweepWalker { seed: 0x5EED };
        let cache = TrajectoryCache::new(&g, &program, 64);
        assert_eq!(cache.slots.pages.len(), g.num_nodes() / PAGE);
        assert_eq!((resident(&cache.slots), resident(&cache.symbolic)), (0, 0));
        // reads allocate nothing
        assert!(cache.get(70_000 % g.num_nodes()).is_none());
        assert!(!cache.has_timeline(0));
        assert!(cache.get_symbolic(0).is_none());
        assert_eq!((resident(&cache.slots), resident(&cache.symbolic)), (0, 0));
        cache.timeline(0);
        assert_eq!((resident(&cache.slots), resident(&cache.symbolic)), (1, 0));
        assert_eq!(cache.computed(), 1);
    }

    #[test]
    fn programs_without_a_finite_state_view_never_allocate_a_symbolic_page() {
        let n = 2 * PAGE + 3;
        let g = oriented_ring(n).unwrap();
        let program = mover();
        assert!(program.finite_state().is_none());
        let cache = TrajectoryCache::new(&g, &program, 32);
        for u in (0..n).step_by(97).chain([n - 1]) {
            let v = (u + 500) % n;
            cache.simulate_deltas(u, v, &[0, 1, 2]);
            cache.simulate(&Stic::new(v, u, 4));
            assert!(cache.symbolic_timeline(u).is_none());
        }
        assert_eq!(resident(&cache.slots), 3);
        assert_eq!(resident(&cache.symbolic), 0);
        assert_eq!(cache.computed_symbolic(), 0);
    }

    #[test]
    fn racing_preload_and_record_on_a_fresh_page_install_exactly_one_timeline() {
        let n = 2 * PAGE + 3;
        let g = oriented_ring(n).unwrap();
        let program = mover();
        let u = PAGE + 5;
        // the preloaded recording is longer than the cache horizon, so the
        // held timeline tells which side won
        let longer = Timeline::record(&g, &program, u, 30);
        for _ in 0..32 {
            let cache = TrajectoryCache::new(&g, &program, 20);
            let barrier = std::sync::Barrier::new(2);
            let (won, seen) = std::thread::scope(|s| {
                let preload = s.spawn(|| {
                    barrier.wait();
                    cache.preload(u, longer.clone())
                });
                let record = s.spawn(|| {
                    barrier.wait();
                    cache.timeline(u)
                });
                (preload.join().unwrap(), record.join().unwrap())
            });
            let held = cache.get(u).unwrap();
            assert!(std::ptr::eq(seen, held), "both sides observe the installed timeline");
            assert_eq!(held.recorded_horizon(), if won { 30 } else { 20 });
            assert_eq!(cache.computed(), 1);
            assert_eq!(resident(&cache.slots), 1);
        }
    }

    /// A cache on a graph whose last page holds 3 real nodes, with that
    /// page resident when `touch_last_page` is set.
    fn padded_cache<'a>(
        g: &'a PortGraph,
        program: &'a dyn AgentProgram,
        touch_last_page: bool,
    ) -> TrajectoryCache<'a> {
        assert_eq!(g.num_nodes(), PAGE + 3);
        let cache = TrajectoryCache::new(g, program, 8);
        if touch_last_page {
            cache.timeline(PAGE + 2);
        }
        cache
    }

    #[test]
    #[should_panic(expected = "start node out of range")]
    fn timeline_panics_on_a_start_in_the_last_pages_padding() {
        let (g, program) = (oriented_ring(PAGE + 3).unwrap(), mover());
        padded_cache(&g, &program, true).timeline(PAGE + 3);
    }

    #[test]
    #[should_panic(expected = "start node out of range")]
    fn get_panics_on_a_start_in_an_unallocated_last_page() {
        let (g, program) = (oriented_ring(PAGE + 3).unwrap(), mover());
        padded_cache(&g, &program, false).get(PAGE + 4);
    }

    #[test]
    #[should_panic(expected = "start node out of range")]
    fn has_timeline_panics_on_a_start_in_the_last_pages_padding() {
        let (g, program) = (oriented_ring(PAGE + 3).unwrap(), mover());
        padded_cache(&g, &program, true).has_timeline(2 * PAGE - 1);
    }

    /// Waits forever on its start node: a finite-state program whose cycle
    /// detection converges at once on any graph.
    struct Parker;

    impl crate::navigator::FiniteStateProgram for Parker {
        fn initial_state(&self) -> u64 {
            0
        }
        fn decide(&self, _state: u64, _degree: usize, _entry: Option<usize>) -> StepDecision {
            StepDecision { action: StepAction::Wait(1), next: 0 }
        }
    }

    impl AgentProgram for Parker {
        fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
            crate::navigator::drive_finite_state(self, nav)
        }
        fn finite_state(&self) -> Option<&dyn crate::navigator::FiniteStateProgram> {
            Some(self)
        }
    }

    #[test]
    fn preloads_refuse_starts_out_of_range() {
        let g = oriented_ring(PAGE + 3).unwrap();
        let program = Parker;
        let symbolic = detect_symbolic(&g, &program, 0).expect("a parked walk is periodic");
        for touch_last_page in [false, true] {
            let cache = padded_cache(&g, &program, touch_last_page);
            let before = resident(&cache.slots);
            for start in [PAGE + 3, 2 * PAGE - 1, 2 * PAGE, usize::MAX] {
                let t = Timeline::record(&g, &program, 0, 8);
                assert!(!cache.preload(start, t), "preload({start})");
                assert!(!cache.preload_symbolic(start, symbolic.clone()), "symbolic {start}");
            }
            assert_eq!(cache.computed(), usize::from(touch_last_page));
            assert_eq!((resident(&cache.slots), resident(&cache.symbolic)), (before, 0));
        }
    }
}
