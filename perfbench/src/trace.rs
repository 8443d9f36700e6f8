//! Span recording from outside the program, through public hooks only:
//! a [`Recorder`] that timestamps phase boundaries, forwarding wrappers
//! around each [`Policy`] layer, an [`InstanceSource`] wrapper, a
//! recorder wrapper around the JSONL sink, and the policy's
//! [`Snapshot::save_state`].
//!
//! Everything runs on the benchmark's one thread, so the wrappers share
//! one [`Tracer`] through an `Rc` of `Cell`s. A *stealing* span (policy,
//! stream source, sink) runs inside an engine phase; its time is
//! subtracted from that phase so each phase reports its self time.
//! Nested policy spans are reduced to per-layer self times the same way.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use rrs_core::{AlgoMetrics, ColorBook, Footprint, Instrumented, StateFootprint};
use rrs_engine::{Observation, Phase, Policy, Recorder, Slot, Snapshot};
use rrs_model::{
    ColorId, ColorTable, InstanceSource, Request, SnapError, SnapReader, SnapWriter, StreamError,
};

/// Span kinds the tracer accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// The whole policy stack, entered from the engine (`VarBatch` and below).
    Policy,
    /// `Distribute` and below.
    Distribute,
    /// `ΔLRU-EDF` alone.
    DlruEdf,
    /// The tracer's own book probe (touched and eligible counts).
    Probe,
    /// `InstanceSource::advance` + `current` inside rounds.
    Source,
    /// JSONL trace writes.
    Sink,
    /// `Snapshot::save_state` of the policy stack.
    PolicySave,
}

const SPANS: usize = 7;

/// One traced round, for tail attribution.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord {
    pub round: u64,
    pub total_s: f64,
    pub drop_s: f64,
    pub policy_s: f64,
}

/// Shared span and count accumulator for one traced pass.
pub struct Tracer {
    phase: Cell<Option<usize>>,
    phase_t0: Cell<Instant>,
    phase_stolen_t0: Cell<f64>,
    round_t0: Cell<Instant>,
    last_round_end: Cell<Option<Instant>>,
    in_round: Cell<bool>,
    round_drop_s: Cell<f64>,
    round_policy_s: Cell<f64>,
    resume_mark: Cell<Option<Instant>>,
    phase_s: [Cell<f64>; 4],
    stolen_s: [Cell<f64>; 4],
    span_s: [Cell<f64>; SPANS],
    pub resume_s: Cell<f64>,
    /// Time from one round's end to the next round's start within a
    /// session: the checkpoint hook (snapshot encode, policy save, the
    /// in-memory copy) plus loop bookkeeping.
    pub round_gap_s: Cell<f64>,
    pub rounds: Cell<u64>,
    pub jobs_dropped: Cell<u64>,
    pub jobs_executed: Cell<u64>,
    pub reconfigs: Cell<u64>,
    pub drop_colors: Cell<u64>,
    pub pending_colors: Cell<u64>,
    pub policy_calls: Cell<u64>,
    pub touched: Cell<u64>,
    pub eligible: Cell<u64>,
    pub round_log: RefCell<Vec<RoundRecord>>,
}

fn add(cell: &Cell<f64>, v: f64) {
    cell.set(cell.get() + v);
}

fn bump(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

impl Tracer {
    /// A fresh tracer whose round log holds `rounds` records without
    /// reallocating.
    pub fn new(rounds: usize) -> Rc<Self> {
        let now = Instant::now();
        Rc::new(Tracer {
            phase: Cell::new(None),
            phase_t0: Cell::new(now),
            phase_stolen_t0: Cell::new(0.0),
            round_t0: Cell::new(now),
            last_round_end: Cell::new(None),
            in_round: Cell::new(false),
            round_drop_s: Cell::new(0.0),
            round_policy_s: Cell::new(0.0),
            resume_mark: Cell::new(None),
            phase_s: Default::default(),
            stolen_s: Default::default(),
            span_s: Default::default(),
            resume_s: Cell::new(0.0),
            round_gap_s: Cell::new(0.0),
            rounds: Cell::new(0),
            jobs_dropped: Cell::new(0),
            jobs_executed: Cell::new(0),
            reconfigs: Cell::new(0),
            drop_colors: Cell::new(0),
            pending_colors: Cell::new(0),
            policy_calls: Cell::new(0),
            touched: Cell::new(0),
            eligible: Cell::new(0),
            round_log: RefCell::new(Vec::with_capacity(rounds)),
        })
    }

    /// Add `secs` to span `kind`. A stealing span is also charged to the
    /// engine phase it ran in, so that phase reports its self time.
    pub fn span(&self, kind: Span, secs: f64, steal: bool) {
        add(&self.span_s[kind as usize], secs);
        if steal {
            if let Some(p) = self.phase.get() {
                add(&self.stolen_s[p], secs);
            }
            if kind == Span::Policy {
                add(&self.round_policy_s, secs);
            }
        }
    }

    /// Total seconds of one span kind.
    pub fn span_total(&self, kind: Span) -> f64 {
        self.span_s[kind as usize].get()
    }

    /// Engine phase self time: the phase minus the stealing spans in it.
    pub fn phase_self(&self, phase: Phase) -> f64 {
        let i = phase.index();
        self.phase_s[i].get() - self.stolen_s[i].get()
    }

    /// Whether a round is in progress (stream fast-forward on resume runs
    /// outside rounds and is part of the resume cost, not the source's).
    pub fn in_round(&self) -> bool {
        self.in_round.get()
    }

    /// Mark the call into a resumed session; the time until its first
    /// round starts is the resume cost (snapshot decode, policy restore
    /// and the stream fast-forward).
    pub fn mark_resume(&self) {
        self.last_round_end.set(None);
        self.resume_mark.set(Some(Instant::now()));
    }

    fn open_phase(&self, phase: Phase, now: Instant) {
        self.close_phase(now);
        let p = phase.index();
        self.phase.set(Some(p));
        self.phase_t0.set(now);
        self.phase_stolen_t0.set(self.stolen_s[p].get());
    }

    fn close_phase(&self, now: Instant) {
        if let Some(p) = self.phase.take() {
            let secs = (now - self.phase_t0.get()).as_secs_f64();
            add(&self.phase_s[p], secs);
            if p == Phase::Drop.index() {
                let stolen = self.stolen_s[p].get() - self.phase_stolen_t0.get();
                add(&self.round_drop_s, secs - stolen);
            }
        }
    }
}

/// The engine-side recorder of a traced pass: timestamps every phase start
/// and round end, and counts the events the engine reports.
pub struct PhaseClock(pub Rc<Tracer>);

impl Recorder for PhaseClock {
    fn on_round_start(&mut self, _round: u64) {
        let t = &self.0;
        let now = Instant::now();
        if let Some(mark) = t.resume_mark.take() {
            add(&t.resume_s, (now - mark).as_secs_f64());
        }
        if let Some(end) = t.last_round_end.get() {
            add(&t.round_gap_s, (now - end).as_secs_f64());
        }
        t.in_round.set(true);
        t.round_t0.set(now);
        t.round_drop_s.set(0.0);
        t.round_policy_s.set(0.0);
    }
    fn on_phase_start(&mut self, _round: u64, _mini: u32, phase: Phase) {
        self.0.open_phase(phase, Instant::now());
    }
    fn on_drop(&mut self, _round: u64, _color: ColorId, count: u64) {
        bump(&self.0.drop_colors, 1);
        bump(&self.0.jobs_dropped, count);
    }
    fn on_reconfig(&mut self, _round: u64, _mini: u32, _loc: usize, _from: Slot, to: Slot) {
        if to.is_some() {
            bump(&self.0.reconfigs, 1);
        }
    }
    fn on_execute(&mut self, _round: u64, _mini: u32, _color: ColorId, count: u64) {
        bump(&self.0.jobs_executed, count);
    }
    fn on_round_end(&mut self, round: u64) {
        let t = &self.0;
        let now = Instant::now();
        t.close_phase(now);
        t.in_round.set(false);
        t.last_round_end.set(Some(now));
        bump(&t.rounds, 1);
        t.round_log.borrow_mut().push(RoundRecord {
            round,
            total_s: (now - t.round_t0.get()).as_secs_f64(),
            drop_s: t.round_drop_s.get(),
            policy_s: t.round_policy_s.get(),
        });
    }
}

/// The untraced run's only recorder: one timestamp per round end, so each
/// round's time (including any checkpoint taken at its top) is the gap
/// between consecutive round ends.
pub struct RoundClock<'a> {
    last: Option<Instant>,
    /// Per-round wall time in microseconds.
    pub samples_us: &'a mut Vec<f64>,
}

impl<'a> RoundClock<'a> {
    pub fn new(samples_us: &'a mut Vec<f64>) -> Self {
        RoundClock { last: None, samples_us }
    }
}

impl Recorder for RoundClock<'_> {
    fn on_round_start(&mut self, _round: u64) {
        if self.last.is_none() {
            self.last = Some(Instant::now());
        }
    }
    fn on_round_end(&mut self, _round: u64) {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            self.samples_us.push((now - last).as_secs_f64() * 1e6);
        }
    }
}

/// A forwarding recorder that charges the wrapped recorder's time (the
/// JSONL sink) to [`Span::Sink`].
pub struct TimedSink<R> {
    pub inner: R,
    pub tracer: Rc<Tracer>,
}

impl<R: Recorder> TimedSink<R> {
    fn timed(&mut self, f: impl FnOnce(&mut R)) {
        let t0 = Instant::now();
        f(&mut self.inner);
        self.tracer.span(Span::Sink, t0.elapsed().as_secs_f64(), true);
    }
}

impl<R: Recorder> Recorder for TimedSink<R> {
    fn on_round_start(&mut self, round: u64) {
        self.timed(|r| r.on_round_start(round));
    }
    fn on_drop(&mut self, round: u64, color: ColorId, count: u64) {
        self.timed(|r| r.on_drop(round, color, count));
    }
    fn on_arrive(&mut self, round: u64, color: ColorId, count: u64) {
        self.timed(|r| r.on_arrive(round, color, count));
    }
    fn on_reconfig(&mut self, round: u64, mini: u32, location: usize, from: Slot, to: Slot) {
        self.timed(|r| r.on_reconfig(round, mini, location, from, to));
    }
    fn on_execute(&mut self, round: u64, mini: u32, color: ColorId, count: u64) {
        self.timed(|r| r.on_execute(round, mini, color, count));
    }
}

/// A forwarding instance source that charges in-round `advance` and
/// `current` calls to [`Span::Source`].
pub struct TimedSource<S> {
    pub inner: S,
    pub tracer: Rc<Tracer>,
}

impl<S: InstanceSource> InstanceSource for TimedSource<S> {
    fn delta(&self) -> u64 {
        self.inner.delta()
    }
    fn colors(&self) -> &ColorTable {
        self.inner.colors()
    }
    fn advance(&mut self, round: u64) -> Result<(), StreamError> {
        if !self.tracer.in_round() {
            return self.inner.advance(round);
        }
        let t0 = Instant::now();
        let r = self.inner.advance(round);
        self.tracer.span(Span::Source, t0.elapsed().as_secs_f64(), true);
        r
    }
    fn current(&self) -> &Request {
        let t0 = Instant::now();
        let r = self.inner.current();
        self.tracer.span(Span::Source, t0.elapsed().as_secs_f64(), true);
        r
    }
    fn horizon(&self) -> u64 {
        self.inner.horizon()
    }
}

/// Which policy layer a [`Timed`] wrapper encloses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The outermost wrapper: the whole stack as the engine sees it.
    Stack,
    /// Around `Distribute` (inside `VarBatch`).
    Distribute,
    /// Around `ΔLRU-EDF` (inside `Distribute`); also probes its book.
    DlruEdf,
}

/// A forwarding policy wrapper that times `reconfigure` (and, around the
/// whole stack, `save_state`). The name is the wrapped policy's, so
/// snapshots written through the wrapper match the bare stack's.
pub struct Timed<P> {
    pub inner: P,
    pub layer: Layer,
    pub tracer: Rc<Tracer>,
}

impl<P> Timed<P> {
    pub fn new(inner: P, layer: Layer, tracer: &Rc<Tracer>) -> Self {
        Timed { inner, layer, tracer: Rc::clone(tracer) }
    }
}

impl<P: Policy + Instrumented> Policy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, delta: u64, n_locations: usize) {
        self.inner.init(delta, n_locations);
    }
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        let t0 = Instant::now();
        self.inner.reconfigure(obs, out);
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        let t = &self.tracer;
        match self.layer {
            Layer::Stack => {
                t.span(Span::Policy, secs, true);
                bump(&t.policy_calls, 1);
                bump(&t.pending_colors, obs.pending.num_colors() as u64);
            }
            Layer::Distribute => t.span(Span::Distribute, secs, false),
            Layer::DlruEdf => {
                t.span(Span::DlruEdf, secs, false);
                if let Some(book) = self.inner.book() {
                    bump(&t.touched, book.touched_len() as u64);
                    bump(&t.eligible, book.eligible_colors().count() as u64);
                }
                t.span(Span::Probe, t1.elapsed().as_secs_f64(), false);
            }
        }
    }
}

impl<P: Snapshot + Instrumented> Snapshot for Timed<P> {
    fn save_state(&self, w: &mut SnapWriter) {
        if self.layer != Layer::Stack {
            return self.inner.save_state(w);
        }
        let t0 = Instant::now();
        self.inner.save_state(w);
        self.tracer.span(Span::PolicySave, t0.elapsed().as_secs_f64(), false);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

impl<P: Footprint> Footprint for Timed<P> {
    fn footprint(&self) -> StateFootprint {
        self.inner.footprint()
    }
}

impl<P: Instrumented> Instrumented for Timed<P> {
    fn book(&self) -> Option<&ColorBook> {
        self.inner.book()
    }
    fn metrics(&self) -> AlgoMetrics {
        self.inner.metrics()
    }
}
