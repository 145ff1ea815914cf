//! emulation: rounds of an 11-check certification suite, the paper's
//! own question (Def. 4.26 / Thm. 4.30). Each round checks the OTP and
//! plaintext channels against F_SC for messages 0–3 at h = 12
//! (`secure_emulation_epsilon`) and b = 1, 2, 3 composed channels
//! (`implementation_epsilon`). The seed and round number salt every
//! action name and shuffle the order, so nothing carries over between
//! rounds. The expected distances are exact: 0 for OTP, 1/2 for the
//! plaintext channel, 0 for composed channels.

use crate::gen::Rng;
use crate::report::{peak_rss_mb, Outcome, Params};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::verify;
use dpioa_core::{compose, compose2, Action, Automaton};
use dpioa_insight::{f_dist, TraceInsight};
use dpioa_prob::{tv_distance, Disc};
use dpioa_protocols::channel::{
    act_recv, act_report, channel_instance, channel_simulator, courier, courier_simulator,
    eavesdropper, fixed_sender, leaky_instance, MSG_SPACE,
};
use dpioa_sched::{execution_measure, SchedulerSchema};
use dpioa_secure::structured::compose_structured_all;
use dpioa_secure::{implementation_epsilon, secure_emulation_epsilon, EmulationInstance};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Nominal rounds per second on the reference machine.
const ROUND_RATE: f64 = 0.3;
const SETUPS: usize = 3;
const CHANNEL_HORIZON: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Otp,
    Leaky,
    Compose(usize),
}

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Otp => "secure.check_ms.otp.p50",
            Kind::Leaky => "secure.check_ms.leaky.p50",
            Kind::Compose(1) => "secure.check_ms.compose1.p50",
            Kind::Compose(2) => "secure.check_ms.compose2.p50",
            Kind::Compose(_) => "secure.check_ms.compose3.p50",
        }
    }

    fn expected(self) -> f64 {
        match self {
            Kind::Leaky => 0.5,
            Kind::Otp | Kind::Compose(_) => 0.0,
        }
    }
}

enum Worlds {
    /// A real/ideal instance with its adversary and simulator
    /// (`secure_emulation_epsilon` builds the two worlds).
    Secure {
        instance: EmulationInstance,
        adv: Arc<dyn Automaton>,
        sim: Arc<dyn Automaton>,
    },
    /// Two already-built worlds (`implementation_epsilon`).
    Built {
        real: Arc<dyn Automaton>,
        ideal: Arc<dyn Automaton>,
    },
}

struct Check {
    kind: Kind,
    label: String,
    worlds: Worlds,
    envs: Vec<Arc<dyn Automaton>>,
    schema: SchedulerSchema,
    horizon: usize,
}

impl Check {
    /// The E10 shape: one channel instance against F_SC for message `m`.
    fn channel(kind: Kind, tag: &str, m: i64) -> Check {
        let instance = match kind {
            Kind::Otp => channel_instance(tag),
            _ => leaky_instance(tag),
        };
        let mut contended: Vec<Action> = vec![act_report(tag, 0), act_report(tag, 1)];
        contended.extend((0..MSG_SPACE).map(|msg| act_recv(tag, msg)));
        Check {
            kind,
            label: format!("{kind:?} m={m} ({tag})"),
            worlds: Worlds::Secure {
                instance,
                adv: eavesdropper(tag),
                sim: channel_simulator(tag),
            },
            envs: vec![fixed_sender(tag, m)],
            schema: SchedulerSchema::priority_exhaustive_over(contended),
            horizon: CHANNEL_HORIZON,
        }
    }

    /// The E6 shape: `b` composed channel instances, instance 0 under
    /// the parity-reporting eavesdropper, the rest under couriers.
    fn composed(b: usize, salt: &str) -> Check {
        let tags: Vec<String> = (0..b).map(|i| format!("{salt}i{i}")).collect();
        let instances: Vec<EmulationInstance> = tags.iter().map(|t| channel_instance(t)).collect();
        let reals: Vec<_> = instances.iter().map(|i| i.real.clone()).collect();
        let ideals: Vec<_> = instances.iter().map(|i| i.ideal.clone()).collect();
        let composite = EmulationInstance::new(
            compose_structured_all(&reals),
            compose_structured_all(&ideals),
        );
        let adv = compose(
            tags.iter()
                .enumerate()
                .map(|(i, t)| if i == 0 { eavesdropper(t) } else { courier(t) })
                .collect(),
        );
        let sim = compose(
            tags.iter()
                .enumerate()
                .map(|(i, t)| {
                    if i == 0 {
                        channel_simulator(t)
                    } else {
                        courier_simulator(t)
                    }
                })
                .collect(),
        );
        let msgs: Vec<i64> = (0..b).map(|i| ((i + 1) % 4) as i64).collect();
        let env = compose(
            tags.iter()
                .zip(&msgs)
                .map(|(t, &m)| fixed_sender(t, m))
                .collect(),
        );
        let mut contended: Vec<Action> = vec![act_report(&tags[0], 0), act_report(&tags[0], 1)];
        contended.extend(tags.iter().zip(&msgs).map(|(t, &m)| act_recv(t, m)));
        Check {
            kind: Kind::Compose(b),
            label: format!("composed b={b} ({salt})"),
            worlds: Worlds::Built {
                real: composite.real_world(&adv),
                ideal: composite.ideal_world(&sim),
            },
            envs: vec![env],
            schema: SchedulerSchema::priority_exhaustive_over(contended),
            horizon: 8 * b + 4,
        }
    }

    /// Run the check through the public entry point; returns (ε, pairs).
    fn run(&self) -> (f64, usize) {
        let report = match &self.worlds {
            Worlds::Secure { instance, adv, sim } => secure_emulation_epsilon(
                instance,
                adv,
                sim,
                &self.envs,
                &self.schema,
                &TraceInsight,
                self.horizon,
            ),
            Worlds::Built { real, ideal } => implementation_epsilon(
                real,
                ideal,
                &self.envs,
                &self.schema,
                &TraceInsight,
                self.horizon,
            ),
        };
        (report.epsilon, report.pairs_checked)
    }

    /// The traced run's attribution: the same (environment, scheduler)
    /// pairs, timed layer by layer through public calls.
    fn attribute(&self, t: &mut Tracer) {
        let (real, ideal) = match &self.worlds {
            Worlds::Secure { instance, adv, sim } => {
                (instance.real_world(adv), instance.ideal_world(sim))
            }
            Worlds::Built { real, ideal } => (real.clone(), ideal.clone()),
        };
        for env in &self.envs {
            let world_a = compose2(env.clone(), real.clone());
            let world_b = compose2(env.clone(), ideal.clone());
            let (scheds_a, scheds_b) = t.time("sched.schema_members", || {
                (
                    self.schema.members(&*world_a),
                    self.schema.members(&*world_b),
                )
            });
            let mut dists =
                |world: &Arc<dyn Automaton>, scheds: &[Arc<dyn dpioa_sched::Scheduler>]| {
                    scheds
                        .iter()
                        .map(|s| {
                            black_box(t.time("measure.sequential", || {
                                execution_measure(&**world, &**s, self.horizon).len()
                            }));
                            t.time("insight.f_dist", || {
                                f_dist(&**world, &**s, &TraceInsight, self.horizon)
                            })
                        })
                        .collect::<Vec<Disc<_>>>()
                };
            let da = dists(&world_a, &scheds_a);
            let db = dists(&world_b, &scheds_b);
            black_box(t.time("prob.tv", || {
                da.iter()
                    .map(|a| {
                        db.iter()
                            .map(|b| tv_distance(a, b))
                            .fold(f64::INFINITY, f64::min)
                    })
                    .fold(0.0, f64::max)
            }));
        }
    }
}

/// The 11 checks of round `round`, in seeded order.
fn suite(seed: u64, round: u64) -> Vec<Check> {
    let salt = format!("e{seed:x}r{round}");
    let mut checks: Vec<Check> = (0..MSG_SPACE)
        .flat_map(|m| {
            [
                Check::channel(Kind::Otp, &format!("{salt}o{m}"), m),
                Check::channel(Kind::Leaky, &format!("{salt}l{m}"), m),
            ]
        })
        .collect();
    checks.extend((1..=3).map(|b| Check::composed(b, &format!("{salt}b{b}"))));
    Rng::new(seed, 10 + round).shuffle(&mut checks);
    checks
}

pub fn run(params: &Params, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = params.seed;
    let traced = t.enabled();

    // Set-up: build one round's inputs and run one OTP check, under
    // names no timed round uses.
    let mut setups = Vec::new();
    for s in 0..if traced { 1 } else { SETUPS as u64 } {
        let t0 = Instant::now();
        let warm = suite(seed ^ 0x5E7, 1000 + s);
        let otp = warm
            .iter()
            .find(|c| c.kind == Kind::Otp)
            .expect("suite has OTP");
        black_box(otp.run());
        setups.push(t0.elapsed().as_secs_f64());
    }

    let rounds = params.ops(ROUND_RATE) as u64;
    let mut ms = Vec::new();
    let mut by_kind: Vec<(Kind, f64)> = Vec::new();
    let mut pairs = 0usize;
    let mut attributed = 0usize;
    for round in 0..rounds {
        let checks = suite(seed, round);
        for check in &checks {
            t.set_op(ms.len());
            let open = t.begin("secure.check");
            let t0 = Instant::now();
            let (epsilon, checked) = check.run();
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            t.end(open);
            out.attempted += 1;
            ms.push(elapsed);
            by_kind.push((check.kind, elapsed));
            pairs += checked;
            if let Err(e) = verify::check_epsilon(&check.label, epsilon, check.kind.expected()) {
                out.wrong.push(e);
            }
            // Every round runs the same eleven kinds of check, so the
            // per-check layer times come from the first round alone.
            if traced && round == 0 {
                check.attribute(t);
                attributed += 1;
            }
        }
    }

    let lat = summarize(&ms);
    out.set("p50_ms", lat.p50);
    out.set("tail_ms", lat.tail);
    out.samples.insert("latency", lat.n);
    out.samples.insert("tail_percentile", lat.tail_pct as usize);
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    out.set("throughput_qps", ms.len() as f64 / busy_s);
    // Every distance is computed exactly.
    out.set("exact_share", 1.0);
    out.set("setup_s", median(&setups));
    out.samples.insert("setups", setups.len());
    out.set("rss_mb", peak_rss_mb("self"));

    for kind in [
        Kind::Otp,
        Kind::Leaky,
        Kind::Compose(1),
        Kind::Compose(2),
        Kind::Compose(3),
    ] {
        let of_kind: Vec<f64> = by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect();
        out.set(kind.metric(), median(&of_kind));
    }
    let checks = ms.len().max(1) as f64;
    out.set("secure.pairs_checked", pairs as f64 / checks);
    if traced {
        let per_check = |name: &str| t.total_ms(name) / attributed.max(1) as f64;
        out.set("sched.schema_members_ms", per_check("sched.schema_members"));
        out.set("measure.sequential_ms", per_check("measure.sequential"));
        out.set("insight.f_dist_ms", per_check("insight.f_dist"));
        out.set(
            "insight.observe_ms",
            per_check("insight.f_dist") - per_check("measure.sequential"),
        );
        out.set("prob.tv_ms", per_check("prob.tv"));
    }
    out
}
