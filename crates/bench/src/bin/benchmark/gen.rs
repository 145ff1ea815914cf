//! Seeded inputs: the random stream, the open-loop arrival schedule,
//! zipf draws, and the automata and queries every workload runs.
//!
//! All inputs come from `--seed`. The seed picks action names, query
//! order and arrival times. The *cost profile* of a run (which families,
//! sizes, horizons, schedulers and observations appear, and how often)
//! is fixed by the tables below, so two seeds measure the same amount of
//! work and their results can be pooled.

use dpioa_core::{compose, Action, Automaton, ExplicitAutomaton, Signature, Value};
use dpioa_prob::Disc;
use dpioa_sched::Observation;
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: a small, fast generator whose stream is fixed by its
/// seed on every platform (the benchmark's inputs must not change when
/// a dependency's generator does).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `salt` from other streams drawn
    /// from the same seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets of an open-loop Poisson stream of `n` requests at
/// `rate` per second, from the stream's start. The gaps are the `n`
/// quantiles of the exponential distribution (so their empirical
/// distribution is exactly exponential for every seed) in seeded order.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<Duration> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    rng.shuffle(&mut gaps);
    let mut at = 0.0f64;
    gaps.into_iter()
        .map(|g| {
            at += g;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Zipf(`s`) weights over ranks `0..n`.
pub struct Zipf {
    weights: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = raw.iter().sum();
        Zipf {
            weights: raw.into_iter().map(|w| w / total).collect(),
        }
    }

    /// `n` draws whose per-rank counts follow the weights exactly
    /// (largest remainders get the leftover draws), in seeded order.
    /// Fixing the counts keeps the mix — and so the work — the same for
    /// every seed; the seed decides only the order.
    pub fn sequence(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let exact: Vec<f64> = self.weights.iter().map(|w| w * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| (exact[b].fract()).total_cmp(&exact[a].fract()));
        let short = n - counts.iter().sum::<usize>();
        for &rank in by_remainder.iter().take(short) {
            counts[rank] += 1;
        }
        let mut draws: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
            .collect();
        rng.shuffle(&mut draws);
        draws
    }
}

/// The zipf exponent of the serve-hot deck and the cascade-warm repeats.
pub const ZIPF_S: f64 = 1.1;

/// One serve-hot query template: the same 9 templates, hottest first,
/// as the server load test's deck.
pub struct Template {
    pub label: &'static str,
    pub body: &'static str,
    pub automaton: &'static str,
    pub scheduler: &'static str,
    pub horizon: usize,
    pub observation: &'static str,
}

const fn template(
    label: &'static str,
    body: &'static str,
    automaton: &'static str,
    scheduler: &'static str,
    horizon: usize,
    observation: &'static str,
) -> Template {
    Template {
        label,
        body,
        automaton,
        scheduler,
        horizon,
        observation,
    }
}

pub const DECK: &[Template] = &[
    template(
        "walk8-h10-first",
        r#"{"automaton":"walk-8","horizon":10}"#,
        "walk-8",
        "first-enabled",
        10,
        "final-state",
    ),
    template(
        "walk8-h12-first",
        r#"{"automaton":"walk-8","horizon":12}"#,
        "walk-8",
        "first-enabled",
        12,
        "final-state",
    ),
    template(
        "coin-h1-first",
        r#"{"automaton":"coin","horizon":1}"#,
        "coin",
        "first-enabled",
        1,
        "final-state",
    ),
    template(
        "walk8-h12-random",
        r#"{"automaton":"walk-8","scheduler":"uniform-random","horizon":12}"#,
        "walk-8",
        "uniform-random",
        12,
        "final-state",
    ),
    template(
        "bank3-h6-first",
        r#"{"automaton":"coin-bank-3","horizon":6}"#,
        "coin-bank-3",
        "first-enabled",
        6,
        "final-state",
    ),
    template(
        "mixer-h7-random-trace",
        r#"{"automaton":"mixer-4x3","scheduler":"uniform-random","horizon":7,"observation":"trace"}"#,
        "mixer-4x3",
        "uniform-random",
        7,
        "trace",
    ),
    template(
        "walk8-h8-memoryful",
        r#"{"automaton":"walk-8","scheduler":"memoryful-alternate","horizon":8}"#,
        "walk-8",
        "memoryful-alternate",
        8,
        "final-state",
    ),
    template(
        "mixer-h8-memoryful",
        r#"{"automaton":"mixer-4x3","scheduler":"memoryful-alternate","horizon":8}"#,
        "mixer-4x3",
        "memoryful-alternate",
        8,
        "final-state",
    ),
    template(
        "bank3-h4-random-trace",
        r#"{"automaton":"coin-bank-3","scheduler":"uniform-random","horizon":4,"observation":"trace"}"#,
        "coin-bank-3",
        "uniform-random",
        4,
        "trace",
    ),
];

/// An automaton family of the cascade workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Probabilistic walk on `n` states: 1/2–1/2 to the next two.
    Walk { n: i64 },
    /// Parallel composition of `coins` fair coins.
    Coins { coins: usize },
    /// `fanout`-way deterministic mixer on a ring of `n` states.
    Mixer { n: i64, fanout: usize },
}

/// An observation of the cascade workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    FinalState,
    Trace,
    /// Final state plus how often the run revisited its start state:
    /// depends on the whole execution, so no lumped answer exists.
    Visits,
}

/// The tier the cascade is expected to answer a query with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Lumped,
    Exact,
    Hybrid,
}

/// One cascade query shape (without names).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub family: Family,
    pub scheduler: &'static str,
    pub observation: Obs,
    pub horizon: usize,
    pub tier: Tier,
}

const fn shape(
    family: Family,
    scheduler: &'static str,
    observation: Obs,
    horizon: usize,
    tier: Tier,
) -> Shape {
    Shape {
        family,
        scheduler,
        observation,
        horizon,
        tier,
    }
}

const FE: &str = "first-enabled";
const UR: &str = "uniform-random";
const MA: &str = "memoryful-alternate";

/// One block of the cascade-cold stream: 8 lumped, 11 general-exact and
/// 2 budget-tripped hybrid queries (38 / 52 / 10 % by count). Walks run
/// at h 10–14 and mixers at h 6–9; the two hybrids are larger cones
/// (3^11 and 2^17 executions) run under [`HYBRID_MAX_EXPANSIONS`]. An
/// odd block length puts the median in the middle of a shape class
/// rather than on the boundary between two.
pub const COLD_BLOCK: &[Shape] = &[
    shape(Family::Walk { n: 6 }, FE, Obs::FinalState, 10, Tier::Lumped),
    shape(Family::Walk { n: 8 }, UR, Obs::Trace, 12, Tier::Lumped),
    shape(Family::Walk { n: 10 }, FE, Obs::Trace, 14, Tier::Lumped),
    shape(
        Family::Walk { n: 12 },
        UR,
        Obs::FinalState,
        11,
        Tier::Lumped,
    ),
    shape(
        Family::Coins { coins: 4 },
        UR,
        Obs::FinalState,
        5,
        Tier::Lumped,
    ),
    shape(Family::Coins { coins: 6 }, FE, Obs::Trace, 7, Tier::Lumped),
    shape(
        Family::Mixer { n: 4, fanout: 3 },
        UR,
        Obs::FinalState,
        8,
        Tier::Lumped,
    ),
    shape(
        Family::Mixer { n: 6, fanout: 2 },
        UR,
        Obs::Trace,
        9,
        Tier::Lumped,
    ),
    shape(Family::Walk { n: 8 }, MA, Obs::FinalState, 12, Tier::Exact),
    shape(Family::Walk { n: 6 }, MA, Obs::Trace, 13, Tier::Exact),
    shape(Family::Walk { n: 10 }, MA, Obs::Visits, 14, Tier::Exact),
    shape(Family::Walk { n: 12 }, FE, Obs::Visits, 10, Tier::Exact),
    shape(Family::Walk { n: 7 }, UR, Obs::Visits, 11, Tier::Exact),
    shape(Family::Walk { n: 9 }, MA, Obs::FinalState, 13, Tier::Exact),
    shape(Family::Coins { coins: 5 }, UR, Obs::Visits, 6, Tier::Exact),
    shape(
        Family::Coins { coins: 3 },
        MA,
        Obs::FinalState,
        4,
        Tier::Exact,
    ),
    shape(
        Family::Mixer { n: 5, fanout: 3 },
        UR,
        Obs::Visits,
        9,
        Tier::Exact,
    ),
    shape(
        Family::Mixer { n: 4, fanout: 2 },
        MA,
        Obs::Trace,
        7,
        Tier::Exact,
    ),
    shape(
        Family::Mixer { n: 6, fanout: 3 },
        FE,
        Obs::Visits,
        8,
        Tier::Exact,
    ),
    shape(
        Family::Mixer { n: 5, fanout: 3 },
        UR,
        Obs::Visits,
        11,
        Tier::Hybrid,
    ),
    shape(Family::Walk { n: 9 }, MA, Obs::FinalState, 17, Tier::Hybrid),
];

/// The expansion cap on hybrid-tier queries (what a server client sends
/// as `budget.max_expansions`). The 1<<16 terminal-execution cap alone
/// does not trip: the pooled engine checks it per tail grain, and these
/// cones finish exactly with 2–3 times that many executions. At 256 the
/// cap trips while frontiers hold at most 256 nodes, so no pool worker
/// runs a job, a hybrid call stays on one thread, and its latency does
/// not depend on the second CPU being free.
pub const HYBRID_MAX_EXPANSIONS: usize = 1 << 8;

/// The cascade-warm query set: K = 32 non-hybrid shapes of
/// [`COLD_BLOCK`] (by index), in zipf rank order. Zipf(1.1) gives rank
/// 0 28 % of the draws; ranks 1–31 alternate cheaper and dearer shapes
/// so that 36 % of the draws cost less than rank 0 and 36 % more. The
/// median then sits in the middle of rank 0's calls (an exact walk
/// answered again from its horizon stratum), not on the boundary
/// between two shapes or among microsecond lumped hits whose cost
/// moves with memory layout.
const WARM_ORDER: [usize; 32] = [
    8, 0, 12, 13, 4, 14, 1, 10, 2, 16, 9, 3, 12, 5, 6, 13, 7, 14, 10, 15, 17, 16, 9, 18, 12, 11, 0,
    13, 4, 14, 10, 1,
];

pub fn warm_shapes() -> Vec<Shape> {
    WARM_ORDER.iter().map(|&i| COLD_BLOCK[i]).collect()
}

/// A generated cascade query: a fresh automaton with its own action
/// prefix, plus the scheduler and observation it runs under.
pub struct Query {
    pub shape: Shape,
    pub automaton: Arc<dyn Automaton>,
    pub observation: Observation,
}

impl Query {
    /// Build `shape` as query number `uid` of the process: its actions
    /// carry a prefix made of the seed and `uid`, and its states are the
    /// integers from `uid × 64` on.
    ///
    /// Both must be disjoint between automata that share an
    /// `EngineCache`: transitions are memoized by (state, action), and
    /// memoryless scheduler choices by (scheduler, step, state) — no key
    /// names the automaton.
    pub fn build(shape: Shape, seed: u64, uid: u64) -> Query {
        let prefix = format!("s{seed:x}u{uid}");
        let base = uid as i64 * 64;
        let automaton = match shape.family {
            Family::Walk { n } => walk(&prefix, base, n),
            Family::Coins { coins } => compose(
                (0..coins)
                    .map(|i| coin(&format!("{prefix}-c{i}"), base + 3 * i as i64))
                    .collect(),
            ),
            Family::Mixer { n, fanout } => mixer(&prefix, base, n, fanout),
        };
        let observation = match shape.observation {
            Obs::FinalState => Observation::final_state(),
            Obs::Trace => Observation::trace(),
            Obs::Visits => Observation::full(|e| {
                let start = e.fstate();
                let visits = e.steps().filter(|(_, _, q)| *q == start).count();
                Value::tuple(vec![e.lstate().clone(), Value::int(visits as i64)])
            }),
        };
        Query {
            shape,
            automaton,
            observation,
        }
    }

    /// True when every probability of the answer is a dyadic rational
    /// with few bits, so any summation order gives the same `f64` bits.
    /// Uniform choices among 3, 5 or 6 actions are not dyadic.
    pub fn dyadic(&self) -> bool {
        self.shape.scheduler != UR
            || match self.shape.family {
                Family::Walk { .. } => true,
                Family::Coins { .. } => false,
                Family::Mixer { fanout, .. } => fanout.is_power_of_two(),
            }
    }
}

/// The cascade-cold stream for `seed`: whole blocks of [`COLD_BLOCK`],
/// at least `n` queries, each block shuffled by the seed.
pub fn cold_stream(seed: u64, salt: u64, n: usize) -> Vec<Shape> {
    let mut rng = Rng::new(seed, salt);
    let blocks = n.div_ceil(COLD_BLOCK.len());
    (0..blocks)
        .flat_map(|_| {
            let mut block = COLD_BLOCK.to_vec();
            rng.shuffle(&mut block);
            block
        })
        .collect()
}

fn coin(prefix: &str, base: i64) -> Arc<dyn Automaton> {
    let flip = Action::named(format!("{prefix}-flip"));
    let q = |i: i64| Value::int(base + i);
    ExplicitAutomaton::builder(format!("{prefix}-coin"), q(0))
        .state(q(0), Signature::new([], [], [flip]))
        .state(q(1), Signature::new([], [], []))
        .state(q(2), Signature::new([], [], []))
        .transition(q(0), flip, Disc::bernoulli_dyadic(q(1), q(2), 1, 1))
        .build()
        .shared()
}

fn walk(prefix: &str, base: i64, n: i64) -> Arc<dyn Automaton> {
    let q = |i: i64| Value::int(base + i % n);
    let mut b = ExplicitAutomaton::builder(format!("{prefix}-walk{n}"), q(0));
    for i in 0..n {
        let step = Action::named(format!("{prefix}-w{i}"));
        b = b.state(q(i), Signature::new([], [], [step])).transition(
            q(i),
            step,
            Disc::bernoulli_dyadic(q(i + 1), q(i + 2), 1, 1),
        );
    }
    b.build().shared()
}

fn mixer(prefix: &str, base: i64, n: i64, fanout: usize) -> Arc<dyn Automaton> {
    let q = |i: i64| Value::int(base + i % n);
    let mut b = ExplicitAutomaton::builder(format!("{prefix}-mix{n}x{fanout}"), q(0));
    for i in 0..n {
        let acts: Vec<Action> = (0..fanout)
            .map(|k| Action::named(format!("{prefix}-m{i}a{k}")))
            .collect();
        b = b.state(q(i), Signature::new([], [], acts.clone()));
        for (k, a) in acts.into_iter().enumerate() {
            b = b.transition(q(i), a, Disc::dirac(q(i + 1 + k as i64)));
        }
    }
    b.build().shared()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_bit_identical_per_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 200.0, 500);
        let b = poisson_schedule(&mut Rng::new(7, 1), 200.0, 500);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut Rng::new(8, 1), 200.0, 500);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 500 arrivals at 200/s span about 2.5 s.
        let span = a.last().expect("non-empty").as_secs_f64();
        assert!((2.0..3.0).contains(&span), "{span}");
    }

    #[test]
    fn zipf_counts_are_fixed_and_order_is_seeded() {
        let z = Zipf::new(9, ZIPF_S);
        let a = z.sequence(1000, &mut Rng::new(3, 0));
        let b = z.sequence(1000, &mut Rng::new(4, 0));
        assert_eq!(a.len(), 1000);
        assert_ne!(a, b);
        let counts = |s: &[usize]| {
            (0..9)
                .map(|r| s.iter().filter(|&&x| x == r).count())
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b));
        let c = counts(&a);
        assert!(c[0] > c[1] && c[1] > c[8] && c[8] > 0);
    }

    #[test]
    fn warm_set_has_no_hybrids() {
        let warm = warm_shapes();
        assert_eq!(warm.len(), 32);
        assert!(warm.iter().all(|s| s.tier != Tier::Hybrid));
        assert_eq!(warm[0].tier, Tier::Exact);
    }

    #[test]
    fn cold_stream_keeps_the_block_mix() {
        let s = cold_stream(11, 0, 200);
        let count = |t: Tier| s.iter().filter(|q| q.tier == t).count();
        assert_eq!(
            (count(Tier::Lumped), count(Tier::Exact), count(Tier::Hybrid)),
            (80, 110, 20)
        );
        let other = cold_stream(12, 0, 200);
        assert!(s
            .iter()
            .zip(&other)
            .any(|(a, b)| a.family != b.family || a.horizon != b.horizon));
    }
}
