//! cascade-cold and cascade-warm: closed loops of
//! `robust_observation_dist` calls on one calling thread, configured as
//! the server configures them (bounded shared cache with admission,
//! circuit breaker, strata at stride 4, 20 000 Monte-Carlo samples, a
//! 1<<16 terminal-execution cap and no deadline, so the answering tier
//! and the answer are deterministic).

use crate::gen::{self, Query, Rng, Shape, Tier, Zipf};
use crate::report::{peak_rss_mb, Outcome, Params};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::verify;
use dpioa_core::{Action, Automaton, AutomatonExt, CacheStats, IValue, Value};
use dpioa_prob::{Disc, Ratio};
use dpioa_sched::{
    execution_measure, robust_observation_dist, try_execution_measure_pooled,
    try_execution_measure_resume, try_lumped_observation_dist, try_lumped_observation_dist_strata,
    try_sample_observations_parallel, Budget, Checkpoint, CircuitBreaker, ConeCheckpoint,
    EngineCache, EngineKind, ExpansionOutcome, ParallelPolicy, Provenance, RobustConfig, Scheduler,
    StrataConfig,
};
use dpioa_server::catalog::scheduler_by_name;
use dpioa_store::automaton_fingerprint;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Nominal calls per second of each workload on the reference machine:
/// run length is `seconds × rate` calls.
const COLD_RATE: f64 = 250.0;
const WARM_RATE: f64 = 1200.0;

/// Set-ups per run; `setup_s` is their median. Five, because one
/// set-up takes well under a tenth of a second.
const SETUPS: usize = 5;
/// Fresh queries run inside each cascade-cold set-up.
const COLD_WARMUP: usize = 20;
/// Query ids of set-up round `r` start at `SETUP_UIDS × (r + 1)`, clear
/// of the timed window's ids.
const SETUP_UIDS: u64 = 1 << 24;
/// Share of exact-labelled answers re-derived by the reference engine.
const VERIFY_SHARE: f64 = 0.1;

const MAX_ENTRIES: usize = 1 << 16;
const MC_SAMPLES: usize = 20_000;
/// Exact-tier lanes, as the server runs them.
const LANES: usize = 2;
/// Monte-Carlo lanes. One, not the server's two: on a two-CPU machine
/// two sampling lanes made hybrid calls 2–3 times slower in bursts, so
/// run to run the p99 spread reached 114 % and throughput 15 %; one lane
/// brings both under 3 %.
const MC_LANES: usize = 1;
/// States collected from the run's automata for the L0 timings.
const L0_INPUTS: usize = 2048;
/// Hybrid calls whose inputs are also sampled directly (a median needs
/// no more, and each costs tens of milliseconds).
const SAMPLED_HYBRIDS: usize = 40;
const MC_SEED: u64 = 0xD10A_5EED;

/// The cache and breaker every call of a run shares.
struct Shared {
    cache: Arc<EngineCache>,
    breaker: Arc<CircuitBreaker>,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            cache: Arc::new(EngineCache::bounded_with_admission(1 << 14, 0.5)),
            breaker: Arc::new(CircuitBreaker::new(3)),
        }
    }
}

/// A query with everything the call needs, built before the clock
/// starts.
struct Prepared {
    query: Query,
    scheduler: Arc<dyn Scheduler>,
    config: RobustConfig,
}

impl Prepared {
    fn new(shape: Shape, seed: u64, uid: u64, shared: &Shared) -> Prepared {
        let query = Query::build(shape, seed, uid);
        let scheduler = scheduler_by_name(shape.scheduler).expect("catalog scheduler name");
        let mut budget = Budget::unlimited().with_max_entries(MAX_ENTRIES);
        if shape.tier == Tier::Hybrid {
            budget = budget.with_max_expansions(gen::HYBRID_MAX_EXPANSIONS);
        }
        let config = RobustConfig {
            budget,
            exact_threads: LANES,
            par_cutover: None,
            cache: Some(Arc::clone(&shared.cache)),
            mc_samples: MC_SAMPLES,
            mc_threads: MC_LANES,
            mc_seed: MC_SEED,
            confidence_delta: 1e-3,
            breaker: Some(Arc::clone(&shared.breaker)),
            strata: Some(StrataConfig {
                fingerprint: automaton_fingerprint(query.automaton.as_ref()),
                stride: 4,
            }),
        };
        Prepared {
            query,
            scheduler,
            config,
        }
    }

    fn call(&self) -> Result<(Disc<Value>, Provenance), dpioa_sched::EngineError> {
        robust_observation_dist(
            self.query.automaton.as_ref(),
            self.scheduler.as_ref(),
            self.query.shape.horizon,
            &self.query.observation,
            &self.config,
        )
    }

    fn label(&self, op: usize) -> String {
        let s = &self.query.shape;
        format!(
            "op {op} {:?} {} {:?} h{}",
            s.family, s.scheduler, s.observation, s.horizon
        )
    }
}

fn tier_of(kind: EngineKind) -> Tier {
    match kind {
        EngineKind::Lumped => Tier::Lumped,
        EngineKind::Exact => Tier::Exact,
        EngineKind::MonteCarlo | EngineKind::Hybrid => Tier::Hybrid,
    }
}

fn span_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Lumped => "cascade.call.lumped",
        EngineKind::Exact => "cascade.call.exact",
        EngineKind::MonteCarlo => "cascade.call.monte_carlo",
        EngineKind::Hybrid => "cascade.call.hybrid",
    }
}

/// Per-call facts kept from the timed loop.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    ms_by_tier: [Vec<f64>; 3],
    answers: usize,
    exact_answers: usize,
    not_lumped: usize,
    resumed: usize,
    samples: usize,
    steals: u64,
    failed_steals: u64,
    splits: u64,
    pooled_depths: usize,
    exact_depths: usize,
}

impl Tally {
    fn add(&mut self, ms: f64, prov: &Provenance, horizon: usize) {
        let tier = tier_of(prov.engine);
        self.ms.push(ms);
        self.ms_by_tier[tier as usize].push(ms);
        self.answers += 1;
        if tier != Tier::Hybrid {
            self.exact_answers += 1;
        }
        if tier != Tier::Lumped {
            self.not_lumped += 1;
        }
        if prov.stratum_depth.is_some() {
            self.resumed += 1;
        }
        self.samples += prov.samples.unwrap_or(0);
        if let Some(pool) = &prov.pool {
            self.steals += pool.steals;
            self.failed_steals += pool.failed_steals;
            self.splits += pool.splits;
        }
        if prov.engine == EngineKind::Exact {
            self.pooled_depths += prov.pooled_depths.unwrap_or(0);
            self.exact_depths += horizon;
        }
    }
}

/// Direct calls into single layers on the same inputs, made only in the
/// traced run, outside the call's span and on private caches.
#[derive(Default)]
struct Attribution {
    overhead_ms: Vec<f64>,
    entries: usize,
    sampled: usize,
    states: Vec<(Arc<dyn Automaton>, Value, Action)>,
    weights: Vec<Ratio>,
}

impl Attribution {
    /// Time the tier that answered `p` — the same expansion, or the same
    /// stratum resume when the call resumed one — outside the call.
    /// Resumed calls resume from `probe`, a private cache primed like
    /// the shared one; the rest run on a fresh cache, as the cold call
    /// did on a cache that had never seen the automaton.
    fn run(
        &mut self,
        p: &Prepared,
        prov: &Provenance,
        call_ms: f64,
        t: &mut Tracer,
        probe: &EngineCache,
    ) {
        let auto = p.query.automaton.as_ref();
        let sched = p.scheduler.as_ref();
        let h = p.query.shape.horizon;
        let obs = &p.query.observation;
        let budget = &p.config.budget;
        let scope = probe.choice_scope(sched);
        let fp = p.config.strata.as_ref().map_or(0, |s| s.fingerprint);
        let resumed = prov.stratum_depth.is_some();
        let fresh = EngineCache::new();
        let cache = if resumed { probe } else { &fresh };
        let t0 = Instant::now();
        match prov.engine {
            EngineKind::Lumped => {
                let stratum = t.time("strata.lookup", || {
                    probe.lookup_stratum(fp, scope, obs.describe(), h)
                });
                let resume = match stratum.as_ref().map(|(_, c)| c.as_ref()) {
                    Some(Checkpoint::Lumped(c)) if resumed => Some(c.clone()),
                    _ => None,
                };
                let r = t.time("lumped.direct", || {
                    try_lumped_observation_dist_strata(
                        auto, sched, h, obs, budget, cache, resume, None,
                    )
                });
                black_box(r.ok());
                self.overhead_ms.push(call_ms - ms_since(t0));
            }
            EngineKind::Exact => {
                let rejected = t.time("lumped.reject", || {
                    try_lumped_observation_dist(auto, sched, h, obs, budget)
                });
                black_box(rejected.is_err());
                let stratum = t.time("strata.lookup", || probe.lookup_stratum(fp, scope, "", h));
                let resume = match stratum.as_ref().map(|(_, c)| c.as_ref()) {
                    Some(Checkpoint::Cone(c)) if resumed => Some(ConeCheckpoint {
                        horizon: h,
                        ..c.clone()
                    }),
                    _ => None,
                };
                let policy = ParallelPolicy::auto(LANES);
                let open = t.begin("measure.pooled");
                let measured = match resume {
                    Some(ckpt) => {
                        try_execution_measure_resume(ckpt, auto, sched, budget, policy, cache, Ok)
                            .map(|(outcome, _)| match outcome {
                                ExpansionOutcome::Complete(m) => Some(m),
                                ExpansionOutcome::Partial(_) => None,
                            })
                    }
                    None => try_execution_measure_pooled(auto, sched, h, budget, policy, cache)
                        .map(|(m, _)| Some(m)),
                };
                t.end(open);
                if let Ok(Some(measure)) = measured {
                    self.entries += measure.len();
                    let dist = t.time("measure.observe", || {
                        measure.observe(|e| obs.apply(auto, e))
                    });
                    black_box(dist);
                }
                self.overhead_ms.push(call_ms - ms_since(t0));
            }
            EngineKind::MonteCarlo | EngineKind::Hybrid if self.sampled < SAMPLED_HYBRIDS => {
                self.sampled += 1;
                let dist = t.time("sample.direct", || {
                    try_sample_observations_parallel(
                        auto,
                        sched,
                        h,
                        MC_SAMPLES,
                        MC_SEED,
                        MC_LANES,
                        |e| obs.apply(auto, e),
                    )
                });
                black_box(dist.ok());
            }
            EngineKind::MonteCarlo | EngineKind::Hybrid => {}
        }
        // L0 inputs: the start state of each automaton, its successors,
        // and the weights of the first two steps (enough of them to time
        // the primitives; warm repeats add nothing new).
        if self.states.len() >= L0_INPUTS {
            return;
        }
        let q0 = auto.start_state();
        for a in auto.locally_controlled(&q0) {
            if let Some(eta) = auto.transition(&q0, a) {
                for (q1, &w1) in eta.iter() {
                    self.states
                        .push((Arc::clone(&p.query.automaton), q0.clone(), a));
                    self.weights.push(dyadic_ratio(w1));
                    for b in auto.locally_controlled(q1) {
                        if let Some(eta2) = auto.transition(q1, b) {
                            for (_, &w2) in eta2.iter() {
                                self.weights.push(dyadic_ratio(w1 * w2));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Time the L0 primitives on the states and weights collected from
    /// the run's own automata; returns ns per call for (intern, memo
    /// successor probe, ratio add, ratio mul).
    fn primitives(&self) -> (f64, f64, f64, f64) {
        const REPS: usize = 200;
        if self.states.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t0 = Instant::now();
        for _ in 0..REPS {
            for (_, q, _) in &self.states {
                black_box(IValue::of(black_box(q)));
            }
        }
        let per = (REPS * self.states.len()) as f64;
        let intern_ns = t0.elapsed().as_nanos() as f64 / per;

        let cache = EngineCache::new();
        let ids: Vec<IValue> = self.states.iter().map(|(_, q, _)| IValue::of(q)).collect();
        for ((auto, q, a), &id) in self.states.iter().zip(&ids) {
            black_box(cache.successors(auto.as_ref(), q, id, *a));
        }
        let t1 = Instant::now();
        for _ in 0..REPS {
            for ((auto, q, a), &id) in self.states.iter().zip(&ids) {
                black_box(cache.successors(auto.as_ref(), q, id, *a));
            }
        }
        let successors_ns = t1.elapsed().as_nanos() as f64 / per;

        let w = &self.weights;
        let pairs = (REPS * w.len()) as f64;
        let t2 = Instant::now();
        for _ in 0..REPS {
            for (a, b) in w.iter().zip(w.iter().cycle().skip(1)) {
                black_box(black_box(*a) + black_box(*b));
            }
        }
        let add_ns = t2.elapsed().as_nanos() as f64 / pairs;
        let t3 = Instant::now();
        for _ in 0..REPS {
            for (a, b) in w.iter().zip(w.iter().cycle().skip(1)) {
                black_box(black_box(*a) * black_box(*b));
            }
        }
        let mul_ns = t3.elapsed().as_nanos() as f64 / pairs;
        (intern_ns, successors_ns, add_ns, mul_ns)
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A dyadic probability as an exact rational.
fn dyadic_ratio(p: f64) -> Ratio {
    let mut den: i128 = 1;
    while (p * den as f64).fract() != 0.0 && den < 1 << 60 {
        den <<= 1;
    }
    Ratio::new((p * den as f64) as i128, den)
}

/// Kept for verification after the timed window.
struct Kept {
    op: usize,
    prepared: Prepared,
    dist: Disc<Value>,
    prov: Provenance,
}

fn verify_kept(kept: &[Kept], out: &mut Outcome) {
    for k in kept {
        let q = &k.prepared.query;
        let label = k.prepared.label(k.op);
        let got = verify::rows(&k.dist);
        let result = match k.prov.engine {
            EngineKind::Lumped | EngineKind::Exact => {
                let auto = q.automaton.as_ref();
                let reference =
                    execution_measure(auto, k.prepared.scheduler.as_ref(), q.shape.horizon)
                        .observe(|e| q.observation.apply(auto, e));
                verify::check_exact(&label, &got, &verify::rows(&reference), q.dyadic())
            }
            EngineKind::MonteCarlo | EngineKind::Hybrid => {
                verify::check_estimate(&label, &got, k.prov.error_bound)
            }
        };
        if let Err(e) = result {
            out.wrong.push(e);
        }
    }
}

/// The end-to-end and per-layer values shared by both cascade
/// workloads.
fn finish(
    out: &mut Outcome,
    tally: &Tally,
    setups: &[f64],
    shared: &Shared,
    base: &Base,
    attribution: Option<&Attribution>,
    t: &Tracer,
) {
    let lat = summarize(&tally.ms);
    out.set("p50_ms", lat.p50);
    out.set("tail_ms", lat.tail);
    out.samples.insert("latency", lat.n);
    out.samples.insert("tail_percentile", lat.tail_pct as usize);
    let busy_s: f64 = tally.ms.iter().sum::<f64>() / 1e3;
    out.set("throughput_qps", tally.answers as f64 / busy_s);
    out.set(
        "exact_share",
        tally.exact_answers as f64 / tally.answers.max(1) as f64,
    );
    out.set("setup_s", median(setups));
    out.samples.insert("setups", setups.len());
    out.set("rss_mb", peak_rss_mb("self"));

    let n = tally.answers.max(1) as f64;
    for (name, tier) in [
        ("cascade.call_ms.lumped.p50", Tier::Lumped),
        ("cascade.call_ms.exact.p50", Tier::Exact),
        ("cascade.call_ms.hybrid.p50", Tier::Hybrid),
    ] {
        out.set(name, summarize(&tally.ms_by_tier[tier as usize]).p50);
    }
    out.set("lumped.reject_share", tally.not_lumped as f64 / n);
    out.set("pool.steals", tally.steals as f64 / n);
    out.set("pool.failed_steals", tally.failed_steals as f64 / n);
    out.set("pool.splits", tally.splits as f64 / n);
    out.set(
        "pool.pooled_depth_share",
        tally.pooled_depths as f64 / tally.exact_depths.max(1) as f64,
    );
    let cache = shared.cache.stats().since(base.cache);
    out.set(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    out.set(
        "cache.self_evictions",
        (shared.cache.self_evictions() - base.self_evictions) as f64,
    );
    out.set(
        "cache.transition_entries",
        shared.cache.transition_entries() as f64,
    );
    let s = shared.cache.strata_stats();
    out.set(
        "strata.deposits",
        (s.deposits - base.strata.deposits) as f64,
    );
    out.set("strata.hits", (s.hits - base.strata.hits) as f64);
    out.set("strata.misses", (s.misses - base.strata.misses) as f64);
    out.set(
        "strata.evictions",
        (s.evictions - base.strata.evictions) as f64,
    );
    out.set("strata.bytes", s.bytes as f64);
    out.set("strata.resume_share", tally.resumed as f64 / n);
    out.set("sample.samples", tally.samples as f64 / n);

    if let Some(a) = attribution {
        out.set("cascade.overhead_ms.p50", median(&a.overhead_ms));
        out.set(
            "lumped.reject_ms.p50",
            median(&t.durations_ms("lumped.reject")),
        );
        out.set(
            "measure.pooled_ms.p50",
            median(&t.durations_ms("measure.pooled")),
        );
        let exact_calls = t.durations_ms("measure.pooled").len().max(1);
        out.set("measure.entries", a.entries as f64 / exact_calls as f64);
        out.set(
            "measure.ns_per_entry",
            t.total_ms("measure.pooled") * 1e6 / a.entries.max(1) as f64,
        );
        out.set(
            "sample.hybrid_ms.p50",
            median(&t.durations_ms("sample.direct")),
        );
        let lookups: Vec<f64> = t
            .durations_ms("strata.lookup")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.set("strata.lookup_us.p50", median(&lookups));
        let (intern, succ, add, mul) = a.primitives();
        out.set("intern.of_ns", intern);
        out.set("cache.successors_ns", succ);
        out.set("prob.ratio_add_ns", add);
        out.set("prob.ratio_mul_ns", mul);
    }
}

/// Counter levels at the start of the timed window.
struct Base {
    cache: CacheStats,
    self_evictions: u64,
    strata: dpioa_sched::StrataStats,
}

impl Base {
    fn of(shared: &Shared) -> Base {
        Base {
            cache: shared.cache.stats(),
            self_evictions: shared.cache.self_evictions(),
            strata: shared.cache.strata_stats(),
        }
    }
}

fn record(
    out: &mut Outcome,
    tally: &mut Tally,
    op: usize,
    p: &Prepared,
    result: Result<(Disc<Value>, Provenance), dpioa_sched::EngineError>,
    ms: f64,
) -> Option<(Disc<Value>, Provenance)> {
    out.attempted += 1;
    match result {
        Ok((dist, prov)) => {
            tally.add(ms, &prov, p.query.shape.horizon);
            Some((dist, prov))
        }
        Err(e) => {
            out.failed += 1;
            out.wrong.push(format!("{}: {e}", p.label(op)));
            None
        }
    }
}

/// cascade-cold: every call is a freshly generated automaton with its
/// own action prefix, so nothing repeats and every lookup misses.
pub fn cold(params: &Params, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = params.seed;
    let traced = t.enabled();
    // Set-up: the shared cache and breaker, then a fixed warm-up of
    // fresh queries. The last set-up serves the timed window.
    let mut setups = Vec::new();
    let mut setup = |round: u64| {
        let t0 = Instant::now();
        let shared = Shared::new();
        for (i, shape) in gen::cold_stream(seed, 100 + round, COLD_WARMUP)
            .into_iter()
            .enumerate()
        {
            let p = Prepared::new(shape, seed, SETUP_UIDS * (round + 1) + i as u64, &shared);
            black_box(p.call().ok());
        }
        setups.push(t0.elapsed().as_secs_f64());
        shared
    };
    let mut shared = None;
    for round in 0..if traced { 1 } else { SETUPS as u64 } {
        // The previous set-up goes first, so peak RSS holds one.
        drop(shared.take());
        shared = Some(setup(round));
    }
    let shared = shared.expect("at least one set-up");

    let n = params.ops(COLD_RATE);
    let shapes = gen::cold_stream(seed, 1, n);
    let mut pick = Rng::new(seed, 2);
    let mut tally = Tally::default();
    let mut kept = Vec::new();
    let mut attribution = Attribution::default();
    let probe = EngineCache::new();
    let base = Base::of(&shared);
    for (op, shape) in shapes.into_iter().enumerate() {
        let p = Prepared::new(shape, seed, op as u64, &shared);
        t.set_op(op);
        let open = t.begin("cascade.call");
        let t0 = Instant::now();
        let result = p.call();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let kind = result.as_ref().map(|(_, prov)| prov.engine).ok();
        t.end_as(open, kind.map_or("cascade.call.failed", span_name));
        let verify_this = pick.unit() < VERIFY_SHARE;
        if let Some((dist, prov)) = record(&mut out, &mut tally, op, &p, result, ms) {
            if traced {
                attribution.run(&p, &prov, ms, t, &probe);
            }
            if verify_this || tier_of(prov.engine) == Tier::Hybrid {
                kept.push(Kept {
                    op,
                    prepared: p,
                    dist,
                    prov,
                });
            }
        }
    }
    finish(
        &mut out,
        &tally,
        &setups,
        &shared,
        &base,
        traced.then_some(&attribution),
        t,
    );
    verify_kept(&kept, &mut out);
    out
}

/// cascade-warm: K fixed queries, primed during set-up, then repeated
/// in zipf order — the read side of the same layers.
pub fn warm(params: &Params, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = params.seed;
    let traced = t.enabled();
    let shapes = gen::warm_shapes();
    // Set-up: build the K queries and prime each once on a fresh shared
    // cache. The last set-up serves the timed window.
    let mut setups = Vec::new();
    let mut setup = || {
        let t0 = Instant::now();
        let shared = Shared::new();
        let queries: Vec<Prepared> = shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| Prepared::new(shape, seed, i as u64, &shared))
            .collect();
        for p in &queries {
            black_box(p.call().ok());
        }
        setups.push(t0.elapsed().as_secs_f64());
        (shared, queries)
    };
    let mut primed = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(primed.take());
        primed = Some(setup());
    }
    let (shared, queries) = primed.expect("at least one set-up");
    // The traced run probes stratum lookups on a private cache primed
    // the same way, so the shared cache sees exactly the timed calls.
    let probe_shared = Shared::new();
    if traced {
        for (i, &shape) in shapes.iter().enumerate() {
            let p = Prepared::new(shape, seed, i as u64, &probe_shared);
            black_box(p.call().ok());
        }
    }

    let n = params.ops(WARM_RATE);
    let zipf = Zipf::new(queries.len(), gen::ZIPF_S);
    let mut rng = Rng::new(seed, 3);
    let picks = zipf.sequence(n, &mut rng);
    let mut first_answer: Vec<Option<(Disc<Value>, Provenance)>> = vec![None; queries.len()];
    let mut mismatches = Vec::new();
    let mut tally = Tally::default();
    let mut attribution = Attribution::default();
    let base = Base::of(&shared);
    for (op, &k) in picks.iter().enumerate() {
        let p = &queries[k];
        t.set_op(op);
        let open = t.begin("cascade.call");
        let t0 = Instant::now();
        let result = p.call();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let kind = result.as_ref().map(|(_, prov)| prov.engine).ok();
        t.end_as(open, kind.map_or("cascade.call.failed", span_name));
        if let Some((dist, prov)) = record(&mut out, &mut tally, op, p, result, ms) {
            if traced {
                attribution.run(p, &prov, ms, t, &probe_shared.cache);
            }
            // Every repeat must answer exactly what the first did.
            match &first_answer[k] {
                None => first_answer[k] = Some((dist, prov)),
                Some((first, _)) if *first != dist => mismatches.push(op),
                Some(_) => {}
            }
        }
    }
    finish(
        &mut out,
        &tally,
        &setups,
        &shared,
        &base,
        traced.then_some(&attribution),
        t,
    );
    for op in mismatches {
        out.wrong.push(format!(
            "{}: repeat answered differently from its first call",
            queries[picks[op]].label(op)
        ));
    }
    let kept: Vec<Kept> = first_answer
        .into_iter()
        .zip(queries)
        .enumerate()
        .filter_map(|(k, (answer, prepared))| {
            answer.map(|(dist, prov)| Kept {
                op: k,
                prepared,
                dist,
                prov,
            })
        })
        .collect();
    verify_kept(&kept, &mut out);
    out
}
