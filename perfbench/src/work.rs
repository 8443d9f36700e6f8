//! The four workloads: input construction, one untraced pass, one traced
//! pass, and the output checks every pass is held to.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rrs_core::{full_algorithm, DeltaLruEdf, Distribute, Footprint, Instrumented, VarBatch};
use rrs_engine::{
    parse_trace, run_stream_session, CheckpointPolicy, JsonlSink, NoWatcher, Outcome, Phase,
    Scratch, SessionResult, Simulator, StreamOptions,
};
use rrs_model::{to_text, Instance, TextStream};
use rrs_offline::solve_opt_memoized;
use rrs_search::{run_search, EvalConfig, PolicyKind, SearchConfig, SearchReport};
use rrs_workloads::genome::random_genome;
use rrs_workloads::{zipf_popularity, ZipfConfig};

use crate::stats::{fnv, fnv_u64s, median, quantile_sorted, FNV_SEED};
use crate::trace::{Layer, PhaseClock, RoundClock, Span, Timed, TimedSink, TimedSource, Tracer};

/// Locations given to the online policy (Theorem 1's `n = 8m`, `m = 1`).
pub const LOCATIONS: usize = 8;
/// Reconfiguration cost Δ of every workload.
pub const DELTA: u64 = 4;
/// Snapshot cadence of `stream-resume`.
pub const SNAPSHOT_EVERY: u64 = 64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ZipfWide,
    ZipfNarrow,
    StreamResume,
    AdversarySearch,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::ZipfWide, Kind::ZipfNarrow, Kind::StreamResume, Kind::AdversarySearch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfWide => "zipf-wide",
            Kind::ZipfNarrow => "zipf-narrow",
            Kind::StreamResume => "stream-resume",
            Kind::AdversarySearch => "adversary-search",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. [`Size::full`] is what the benchmark measures;
/// [`Size::small`] is the self-test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    pub rounds: u64,
    pub colors: usize,
    pub population: usize,
    pub generations: u32,
    /// Independent searches per pass, each seeded from the workload seed.
    pub searches: u64,
    /// Give the OPT referee a tiny state budget (self-test speed).
    pub starved_referee: bool,
}

impl Size {
    pub fn full(kind: Kind) -> Size {
        let colors = match kind {
            Kind::ZipfWide => 100_000,
            Kind::ZipfNarrow => 100,
            Kind::StreamResume => 1_000,
            Kind::AdversarySearch => 0,
        };
        Size {
            rounds: 2048,
            colors,
            population: 24,
            generations: 1,
            searches: 16,
            starved_referee: false,
        }
    }

    pub fn small(kind: Kind) -> Size {
        Size {
            rounds: 256,
            colors: Size::full(kind).colors.min(1_000),
            population: 6,
            generations: 1,
            searches: 2,
            starved_referee: true,
        }
    }
}

/// Outcome digests of every workload at the default seed and full size.
/// A pass whose digest differs is counted as failed.
pub fn pinned_digest(kind: Kind, seed: u64, size: Size) -> Option<u64> {
    if seed != crate::DEFAULT_SEED || size != Size::full(kind) {
        return None;
    }
    Some(match kind {
        Kind::ZipfWide => 0xcac7_02e4_c36d_aa4c,
        Kind::ZipfNarrow => 0xc097_c764_3c35_ffb7,
        Kind::StreamResume => 0x503d_1077_6b4c_8e90,
        Kind::AdversarySearch => 0xcac3_8798_ccda_e4c5,
    })
}

/// What one pass did and whether its outputs passed their checks.
#[derive(Clone, Copy, Debug)]
pub struct PassOut {
    /// Operations completed: simulated rounds, or fitness evaluations.
    pub ops: u64,
    /// Digest of every output the pass produced.
    pub digest: u64,
    /// Whether the pass's self-contained checks held.
    pub ok: bool,
}

/// Per-layer metrics of one traced pass, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A traced pass: its outputs, its layer metrics and the rounds that set
/// its tail.
pub struct TracedOut {
    pub pass: PassOut,
    pub layers: Layers,
    pub tail_rounds: Vec<u64>,
}

/// A constructed workload.
pub trait Workload {
    /// Operations one pass performs (capacity for the per-op samples).
    fn ops_hint(&self) -> usize;
    /// One untraced pass, pushing each operation's time in µs.
    fn pass(&mut self, samples_us: &mut Vec<f64>) -> PassOut;
    /// One traced pass.
    fn traced_pass(&mut self) -> TracedOut;
}

/// A constructed workload plus the share of its construction spent in
/// `rrs_workloads` generation.
pub struct Built {
    pub bench: Box<dyn Workload>,
    pub generate_s: f64,
}

/// Construct a workload's input from its seed.
pub fn build(kind: Kind, size: Size, seed: u64) -> Built {
    let t0 = Instant::now();
    match kind {
        Kind::ZipfWide | Kind::ZipfNarrow => {
            let inst = zipf_instance(size, seed);
            let generate_s = t0.elapsed().as_secs_f64();
            Built { bench: Box::new(ZipfBench { inst, scratch: Scratch::new() }), generate_s }
        }
        Kind::StreamResume => {
            let inst = zipf_instance(size, seed);
            let generate_s = t0.elapsed().as_secs_f64();
            let text = to_text(&inst);
            let bench = StreamBench {
                text,
                jobs: inst.total_jobs(),
                rounds: inst.horizon() + 1,
                trace_cap: 0,
                scratch: Scratch::new(),
            };
            Built { bench: Box::new(bench), generate_s }
        }
        Kind::AdversarySearch => {
            // Genome seeding: draw and decode one population of random
            // genomes, the construction `run_search` starts every search
            // with. The traced run splits their evaluation into policy and
            // referee time.
            let pool: Vec<Instance> = (0..size.population as u64)
                .map(|i| random_genome(seed.wrapping_mul(1_000_003).wrapping_add(i)).decode())
                .collect();
            let generate_s = t0.elapsed().as_secs_f64();
            let mut eval = EvalConfig::default();
            if size.starved_referee {
                eval.opt.max_states = 500;
                eval.opt.state_budget = Some(2_000);
            }
            let cfg = SearchConfig {
                seed: 0,
                generations: size.generations,
                population: size.population,
                policy: PolicyKind::DeltaLruEdf,
                eval,
                ..SearchConfig::default()
            };
            let seeds = (0..size.searches).map(|i| fnv_u64s(FNV_SEED, &[seed, i])).collect();
            Built { bench: Box::new(SearchBench { cfg, seeds, pool }), generate_s }
        }
    }
}

fn zipf_instance(size: Size, seed: u64) -> Instance {
    let cfg = ZipfConfig {
        delta: DELTA,
        num_colors: size.colors,
        exponent: 1.1,
        rounds: size.rounds,
        draws_per_round: 32,
        bounds: vec![4, 8, 16, 32],
    };
    zipf_popularity(&cfg, seed)
}

/// Conservation, the ledger identity, every job of the input arrived, and
/// the run reached the horizon.
fn outcome_ok(out: &Outcome, jobs: u64, rounds: u64) -> bool {
    out.conserved()
        && out.arrived == jobs
        && out.cost.drops == out.dropped
        && out.cost.total() == out.cost.delta * out.cost.reconfigs + out.cost.drops
        && out.rounds == rounds
}

fn outcome_digest(out: &Outcome) -> u64 {
    let slots: Vec<u64> =
        out.final_slots.iter().map(|s| s.map_or(u64::MAX, |c| u64::from(c.0))).collect();
    let h = fnv_u64s(
        FNV_SEED,
        &[
            out.cost.delta,
            out.cost.reconfigs,
            out.cost.drops,
            out.arrived,
            out.executed,
            out.dropped,
            out.rounds,
        ],
    );
    fnv_u64s(h, &slots)
}

type TracedStack = Timed<VarBatch<Timed<Distribute<Timed<DeltaLruEdf>>>>>;

/// `VarBatch∘Distribute∘ΔLRU-EDF` with a timing wrapper around each layer.
fn traced_stack(tracer: &Rc<Tracer>) -> TracedStack {
    let dlru = Timed::new(DeltaLruEdf::new(), Layer::DlruEdf, tracer);
    let dist = Timed::new(Distribute::new(dlru), Layer::Distribute, tracer);
    Timed::new(VarBatch::new(dist), Layer::Stack, tracer)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine-phase and policy-layer metrics of a traced simulation, plus the
/// rounds whose time is at or above the traced p99.
fn sim_layers(t: &Tracer, stack: &TracedStack, m: &mut Layers) -> Vec<u64> {
    let calls = t.policy_calls.get() as f64;
    let rounds = t.rounds.get() as f64;
    m.insert("engine.drop_s", t.phase_self(Phase::Drop));
    m.insert("engine.arrival_s", t.phase_self(Phase::Arrival));
    m.insert("engine.reconfig_self_s", t.phase_self(Phase::Reconfig));
    m.insert("engine.execute_s", t.phase_self(Phase::Execution));
    m.insert("engine.rounds", rounds);
    m.insert("engine.jobs_dropped", t.jobs_dropped.get() as f64);
    m.insert("engine.jobs_executed", t.jobs_executed.get() as f64);
    m.insert("engine.reconfigs", t.reconfigs.get() as f64);
    let pending = ratio(t.pending_colors.get() as f64, calls);
    let dropping = ratio(t.drop_colors.get() as f64, rounds);
    m.insert("engine.pending_colors_mean", pending);
    m.insert("engine.drop_colors_mean", dropping);
    m.insert("engine.drop_hit_ratio", ratio(dropping, pending));

    let policy = t.span_total(Span::Policy);
    let dist = t.span_total(Span::Distribute);
    let dlru = t.span_total(Span::DlruEdf);
    let probe = t.span_total(Span::Probe);
    m.insert("varbatch.self_s", policy - dist);
    m.insert("varbatch.calls", calls);
    m.insert("distribute.self_s", dist - dlru - probe);
    m.insert("distribute.subcolors", stack.inner.inner().inner.virtual_colors() as f64);
    m.insert("dlru_edf.self_s", dlru);
    m.insert("dlru_edf.touched_mean", ratio(t.touched.get() as f64, calls));
    m.insert("dlru_edf.eligible_ratio", ratio(t.eligible.get() as f64, t.touched.get() as f64));
    let metrics = stack.metrics();
    m.insert("dlru_edf.epochs", metrics.num_epochs() as f64);
    m.insert("dlru_edf.counter_wraps", metrics.counter_wraps as f64);
    let fp = stack.footprint();
    m.insert("policy.colorset_leaf_words", fp.colorset_leaf_words as f64);
    m.insert("policy.colormap_live_pages", fp.colormap_live_pages as f64);
    m.insert("trace.probe_s", probe);
    m.insert("engine.round_gap_s", t.round_gap_s.get());

    // Tail attribution: which rounds reach the traced p99, and where their
    // time went.
    let log = t.round_log.borrow();
    let mut totals: Vec<f64> = log.iter().map(|r| r.total_s).collect();
    totals.sort_by(f64::total_cmp);
    let cut = quantile_sorted(&totals, 0.99);
    let tail: Vec<_> = log.iter().filter(|r| r.total_s >= cut).collect();
    let tail_total: f64 = tail.iter().map(|r| r.total_s).sum();
    let tail_rounds: Vec<u64> = tail.iter().map(|r| r.round).collect();
    let idx: Vec<f64> = tail_rounds.iter().map(|&r| r as f64).collect();
    m.insert("tail.rounds", tail.len() as f64);
    m.insert("tail.round_median", median(&idx));
    m.insert("tail.drop_share", ratio(tail.iter().map(|r| r.drop_s).sum(), tail_total));
    m.insert("tail.policy_share", ratio(tail.iter().map(|r| r.policy_s).sum(), tail_total));
    tail_rounds
}

/// Wall time, and the share of it no span accounts for.
fn close_wall(t: &Tracer, wall: f64, extra_attributed: f64, m: &mut Layers) {
    let attributed = Phase::ALL.iter().map(|&p| t.phase_self(p)).sum::<f64>()
        + t.span_total(Span::Policy)
        + t.span_total(Span::Source)
        + t.span_total(Span::Sink)
        + t.round_gap_s.get()
        + t.resume_s.get()
        + extra_attributed;
    m.insert("trace.wall_s", wall);
    m.insert("trace.unattributed_s", wall - attributed);
}

struct ZipfBench {
    inst: Instance,
    scratch: Scratch,
}

impl Workload for ZipfBench {
    fn ops_hint(&self) -> usize {
        self.inst.horizon() as usize + 1
    }

    fn pass(&mut self, samples_us: &mut Vec<f64>) -> PassOut {
        let mut policy = full_algorithm();
        let out = Simulator::new(&self.inst, LOCATIONS).run_traced_with(
            &mut policy,
            &mut RoundClock::new(samples_us),
            &mut self.scratch,
        );
        PassOut {
            ops: out.rounds,
            digest: outcome_digest(&out),
            ok: outcome_ok(&out, self.inst.total_jobs(), self.inst.horizon() + 1),
        }
    }

    fn traced_pass(&mut self) -> TracedOut {
        let tracer = Tracer::new(self.ops_hint());
        let mut stack = traced_stack(&tracer);
        let t0 = Instant::now();
        let out = Simulator::new(&self.inst, LOCATIONS).run_traced_with(
            &mut stack,
            &mut PhaseClock(Rc::clone(&tracer)),
            &mut self.scratch,
        );
        let wall = t0.elapsed().as_secs_f64();
        let mut layers = Layers::new();
        let tail_rounds = sim_layers(&tracer, &stack, &mut layers);
        close_wall(&tracer, wall, 0.0, &mut layers);
        let pass = PassOut {
            ops: out.rounds,
            digest: outcome_digest(&out),
            ok: outcome_ok(&out, self.inst.total_jobs(), self.inst.horizon() + 1),
        };
        TracedOut { pass, layers, tail_rounds }
    }
}

struct StreamBench {
    text: String,
    jobs: u64,
    rounds: u64,
    /// Trace size of the previous pass, so the in-memory sink is sized
    /// once instead of growing inside the timed region.
    trace_cap: usize,
    scratch: Scratch,
}

fn stream_opts(resume_from: Option<&[u8]>) -> StreamOptions<'_> {
    StreamOptions {
        n_locations: LOCATIONS,
        speed: 1,
        resume_from,
        plan: if resume_from.is_some() {
            CheckpointPolicy::Never
        } else {
            CheckpointPolicy::EveryN(SNAPSHOT_EVERY)
        },
        stop_before: None,
    }
}

fn completed(r: Result<SessionResult, rrs_engine::SessionError>) -> Option<Outcome> {
    match r {
        Ok(SessionResult::Completed(out)) => Some(out),
        _ => None,
    }
}

/// The checks shared by both stream passes: straight run sound, stitched
/// resume equal to it, parsed trace totals equal to it. Returns the pass
/// digest and whether every check held.
fn stream_verdict(
    bench: &StreamBench,
    straight: &Option<Outcome>,
    stitched: &Option<Outcome>,
    trace: &[u8],
    snaps: &[(u64, Vec<u8>)],
    parse_s: &mut f64,
) -> (u64, bool) {
    let (Some(out), Some(stitched)) = (straight, stitched) else {
        return (0, false);
    };
    let t0 = Instant::now();
    let parsed = std::str::from_utf8(trace).ok().and_then(|s| parse_trace(s).ok());
    *parse_s = t0.elapsed().as_secs_f64();
    let trace_ok = parsed.is_some_and(|p| {
        p.arrived() == out.arrived
            && p.executed() == out.executed
            && p.dropped() == out.dropped
            && p.reconfigs() == out.cost.reconfigs
            && p.rounds == out.rounds
    });
    let mid = &snaps[snaps.len() / 2];
    let digest = fnv_u64s(outcome_digest(out), &[snaps.len() as u64, mid.0]);
    let digest = fnv(fnv(digest, trace), &mid.1);
    (digest, outcome_ok(out, bench.jobs, bench.rounds) && stitched == out && trace_ok)
}

impl Workload for StreamBench {
    fn ops_hint(&self) -> usize {
        self.rounds as usize * 2
    }

    fn pass(&mut self, samples_us: &mut Vec<f64>) -> PassOut {
        let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut keep = |round: u64, bytes: &[u8]| snaps.push((round, bytes.to_vec()));
        let mut sink = JsonlSink::new(Vec::with_capacity(self.trace_cap));
        let straight = {
            let mut src = TextStream::new(self.text.as_bytes()).expect("encoded text is valid");
            let mut rec = (RoundClock::new(samples_us), &mut sink);
            completed(run_stream_session(
                &mut src,
                &mut full_algorithm(),
                &mut rec,
                &mut self.scratch,
                &mut NoWatcher,
                stream_opts(None),
                Some(&mut keep),
            ))
        };
        let trace = sink.finish().unwrap_or_default();
        self.trace_cap = trace.len();
        if snaps.is_empty() {
            return PassOut { ops: 0, digest: 0, ok: false };
        }
        let (k, mid) = &snaps[snaps.len() / 2];
        let stitched = {
            let mut src = TextStream::new(self.text.as_bytes()).expect("encoded text is valid");
            completed(run_stream_session(
                &mut src,
                &mut full_algorithm(),
                &mut RoundClock::new(samples_us),
                &mut self.scratch,
                &mut NoWatcher,
                stream_opts(Some(mid)),
                None,
            ))
        };
        let ops = straight.as_ref().map_or(0, |o| 2 * o.rounds - k);
        let (digest, ok) = stream_verdict(self, &straight, &stitched, &trace, &snaps, &mut 0.0);
        PassOut { ops, digest, ok }
    }

    fn traced_pass(&mut self) -> TracedOut {
        let tracer = Tracer::new(self.ops_hint());
        let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut keep = |round: u64, bytes: &[u8]| snaps.push((round, bytes.to_vec()));
        let mut stack = traced_stack(&tracer);
        let t0 = Instant::now();
        let mut rec = (
            PhaseClock(Rc::clone(&tracer)),
            TimedSink {
                inner: JsonlSink::new(Vec::with_capacity(self.trace_cap)),
                tracer: Rc::clone(&tracer),
            },
        );
        let straight = {
            let inner = TextStream::new(self.text.as_bytes()).expect("encoded text is valid");
            let mut src = TimedSource { inner, tracer: Rc::clone(&tracer) };
            completed(run_stream_session(
                &mut src,
                &mut stack,
                &mut rec,
                &mut self.scratch,
                &mut NoWatcher,
                stream_opts(None),
                Some(&mut keep),
            ))
        };
        let trace = rec.1.inner.finish().unwrap_or_default();
        let mut layers = Layers::new();
        let mut tail_rounds = Vec::new();
        let mut pass = PassOut { ops: 0, digest: 0, ok: false };
        if let (false, Some(out)) = (snaps.is_empty(), &straight) {
            let (k, mid) = &snaps[snaps.len() / 2];
            tracer.mark_resume();
            let stitched = {
                let inner = TextStream::new(self.text.as_bytes()).expect("encoded text is valid");
                let mut src = TimedSource { inner, tracer: Rc::clone(&tracer) };
                completed(run_stream_session(
                    &mut src,
                    &mut traced_stack(&tracer),
                    &mut PhaseClock(Rc::clone(&tracer)),
                    &mut self.scratch,
                    &mut NoWatcher,
                    stream_opts(Some(mid)),
                    None,
                ))
            };
            let mut parse_s = 0.0;
            let (digest, ok) =
                stream_verdict(self, &straight, &stitched, &trace, &snaps, &mut parse_s);
            let wall = t0.elapsed().as_secs_f64();
            pass = PassOut { ops: 2 * out.rounds - k, digest, ok };
            tail_rounds = sim_layers(&tracer, &stack, &mut layers);
            layers.insert("model.stream_advance_s", tracer.span_total(Span::Source));
            layers.insert("model.text_bytes", self.text.len() as f64);
            layers.insert("checkpoint.snapshots", snaps.len() as f64);
            layers
                .insert("checkpoint.bytes", snaps.iter().map(|s| s.1.len()).sum::<usize>() as f64);
            layers.insert("checkpoint.policy_save_s", tracer.span_total(Span::PolicySave));
            layers.insert("checkpoint.resume_s", tracer.resume_s.get());
            layers.insert("sink.write_s", tracer.span_total(Span::Sink));
            layers.insert("sink.trace_bytes", trace.len() as f64);
            layers.insert("sink.parse_s", parse_s);
            close_wall(&tracer, wall, parse_s, &mut layers);
        }
        TracedOut { pass, layers, tail_rounds }
    }
}

struct SearchBench {
    /// The search configuration; `seed` is replaced by each of `seeds`.
    cfg: SearchConfig,
    seeds: Vec<u64>,
    pool: Vec<Instance>,
}

impl SearchBench {
    fn expected_evals(&self) -> u64 {
        let elites = self.cfg.elites.clamp(1, self.cfg.population - 1);
        (self.cfg.population + self.cfg.generations as usize * (self.cfg.population - elites))
            as u64
    }

    /// Run every search of a pass, timing each generation; returns the
    /// reports and the per-generation `(seconds, evaluations)`.
    fn search(&self) -> (Vec<SearchReport>, Vec<(f64, u64)>) {
        let mut gens = Vec::with_capacity(self.seeds.len() * (self.cfg.generations as usize + 1));
        let mut reports = Vec::with_capacity(self.seeds.len());
        for &seed in &self.seeds {
            let mut last = Instant::now();
            let mut seen = 0;
            reports.push(run_search(&SearchConfig { seed, ..self.cfg }, |s| {
                let now = Instant::now();
                gens.push(((now - last).as_secs_f64(), s.evals - seen));
                last = now;
                seen = s.evals;
            }));
        }
        (reports, gens)
    }

    /// Each search's evaluation count, history length and running best
    /// are checked; the digest covers every search's best genome and
    /// fitness trajectory.
    fn verdict(&self, reports: &[SearchReport]) -> PassOut {
        let mut h = FNV_SEED;
        let mut ok = reports.len() == self.seeds.len();
        for r in reports {
            let best = &r.best;
            h = fnv(h, best.genome.encode().as_bytes());
            h = fnv_u64s(h, &[best.eval.fitness.cost, best.eval.fitness.base, r.evals]);
            for g in &r.history {
                h = fnv_u64s(h, &[g.best.eval.fitness.cost, g.best.eval.fitness.base, g.evals]);
            }
            ok &= r.evals == self.expected_evals()
                && r.history.len() == self.cfg.generations as usize + 1
                && r.history
                    .iter()
                    .all(|g| best.eval.fitness.cmp_ratio(&g.best.eval.fitness).is_ge());
        }
        PassOut { ops: reports.iter().map(|r| r.evals).sum(), digest: h, ok }
    }
}

impl Workload for SearchBench {
    fn ops_hint(&self) -> usize {
        self.expected_evals() as usize * self.seeds.len()
    }

    fn pass(&mut self, samples_us: &mut Vec<f64>) -> PassOut {
        let (reports, gens) = self.search();
        // The smallest unit the search exposes is a generation: each of its
        // evaluations is charged the generation's mean.
        for (secs, evals) in gens {
            let per = secs * 1e6 / evals.max(1) as f64;
            samples_us.extend(std::iter::repeat_n(per, evals as usize));
        }
        self.verdict(&reports)
    }

    fn traced_pass(&mut self) -> TracedOut {
        let t0 = Instant::now();
        let (reports, gens) = self.search();
        let wall = t0.elapsed().as_secs_f64();
        let pass = self.verdict(&reports);

        // Split evaluation into its two halves on the seeded pool plus the
        // genomes the search reports.
        let mut encodings: Vec<String> = reports
            .iter()
            .flat_map(|r| r.history.iter().map(|g| &g.best).chain([&r.best]))
            .map(|c| c.genome.encode())
            .collect();
        encodings.sort();
        encodings.dedup();
        let reported = encodings.iter().map(|text| {
            rrs_workloads::genome::parse_genome(text).expect("reported genomes re-parse").decode()
        });
        let instances: Vec<Instance> = self.pool.iter().cloned().chain(reported).collect();
        let (mut policy_s, mut referee_s, mut exact) = (0.0, 0.0, 0u64);
        let (mut solved, mut pruned) = (0u64, 0u64);
        let eval = &self.cfg.eval;
        for inst in &instances {
            let t = Instant::now();
            black_box(Simulator::new(inst, eval.locations).run(&mut self.cfg.policy.make()));
            policy_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = solve_opt_memoized(inst, eval.referee_resources, eval.opt, None, None);
            referee_s += t.elapsed().as_secs_f64();
            if let Ok(r) = r {
                exact += 1;
                solved += r.stats.solved_states;
                pruned += r.stats.pruned_states;
            }
        }
        let gen_times: Vec<f64> = gens.iter().map(|g| g.0).collect();
        let mut m = Layers::new();
        m.insert("search.evals", pass.ops as f64);
        m.insert("search.generation_s", median(&gen_times));
        m.insert("search.exact_ratio", ratio(exact as f64, instances.len() as f64));
        m.insert("search.referee_s", referee_s);
        m.insert("search.policy_s", policy_s);
        m.insert("opt.solved_states", solved as f64);
        m.insert("opt.pruned_states", pruned as f64);
        m.insert("opt.prune_ratio", ratio(pruned as f64, (solved + pruned) as f64));
        m.insert("trace.wall_s", wall);
        m.insert("trace.unattributed_s", wall - gen_times.iter().sum::<f64>());
        TracedOut { pass, layers: m, tail_rounds: Vec::new() }
    }
}
