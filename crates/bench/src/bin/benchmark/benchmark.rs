//! The repository benchmark: four workloads that together cover every
//! layer from the HTTP server down to the emulation-distance checks,
//! end-to-end metrics for each, and a traced mode that attributes time
//! to layers. See `README.md` beside this file for the metrics, the
//! workloads and why each was chosen, and how to run and compare.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! benchmark run [--seed N] [--out DIR] [--workload W]... [--trace] [--seconds S] [--runs N] [--quick]
//! benchmark compare BASE_DIR NEW_DIR [--bounds BENCHMARK.json]
//! ```
//!
//! A single-workload invocation prints one `workload metric value unit`
//! line per metric and, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). It writes `DIR/<workload>.s<seed>.json`
//! and, traced, `DIR/<workload>.s<seed>.trace.json` plus the spans in
//! `DIR/trace-<workload>.jsonl`. It exits nonzero on any wrong answer.

mod cascade;
mod compare;
mod emulation;
mod gen;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use dpioa_server::json::Json;
use report::{unit_of, Outcome, Params, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;

type Workload = fn(&Params, &mut Tracer) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve-hot", serve::run),
    ("cascade-cold", cascade::cold),
    ("cascade-warm", cascade::warm),
    ("emulation", emulation::run),
];

const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_OUT: &str = "bench-out";
/// Span buffer reserved before a traced run's timed loop.
const SPAN_CAPACITY: usize = 1 << 18;

/// At most two malloc arenas in this process: the calling thread's and
/// one for the exact tier's second lane. Each call spawns that lane
/// afresh, and glibc may give a new thread another arena, up to eight
/// per CPU, so how memory spreads over arenas follows thread timing.
/// Peak RSS of identical cascade-warm runs then read anywhere from 30 to
/// 45 MiB; with two arenas it stays within a few percent. With one, the
/// lanes contend for it and calls slow by a quarter. The server child of
/// serve-hot keeps the default.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn limit_malloc_arenas() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` takes two integers by value and only changes
    // allocator tuning; it runs before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 2);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn limit_malloc_arenas() {}

fn main() {
    limit_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--workload") => cmd_workload(&args),
        _ => Err(format!(
            "usage: benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
             [--out DIR] [--quick]\n       benchmark run [--seed N] [--out DIR] \
             [--workload W]... [--trace] [--seconds S] [--runs N] [--quick]\n       \
             benchmark compare BASE_DIR NEW_DIR [--bounds BENCHMARK.json]",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join("|")
        )),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            std::process::exit(2);
        }
    }
}

/// Flag parsing shared by the subcommands: `--name value` pairs and
/// bare switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((a.clone(), v.clone()));
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// One workload, untraced (`--trace 0`) or traced (`--trace 1`).
fn cmd_workload(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--quick"])?;
    let name = flags.get("--workload", String::new())?;
    let run = workload_by_name(&name)?;
    let params = Params {
        seed: flags.get("--seed", 1u64)?,
        seconds: flags.get("--seconds", DEFAULT_SECONDS)?,
        quick: flags.has("--quick"),
    };
    let traced = match flags.get("--trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let out_dir = PathBuf::from(flags.get("--out", DEFAULT_OUT.to_string())?);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let result = out_dir.join(format!("{name}.s{}.json", params.seed));

    if !traced {
        let outcome = run(&params, &mut Tracer::off());
        write_result(&result, &name, &params, false, &outcome)?;
        return Ok(finish(&name, &outcome, &outcome.values, END_TO_END));
    }

    // The untraced run goes first, in its own process, so the traced
    // rerun below starts as fresh as it did; counts come from it.
    let untraced = untraced_child(args, &result)?;
    let mut tracer = Tracer::on(Instant::now(), SPAN_CAPACITY);
    let mut outcome = run(&params, &mut tracer);
    let mut layer = std::collections::BTreeMap::new();
    for (metric, _) in PER_LAYER {
        let value = untraced
            .values
            .get(*metric)
            .or_else(|| outcome.values.get(*metric))
            .copied()
            .unwrap_or(0.0);
        layer.insert(*metric, value);
    }
    layer.insert(
        "trace.overhead_ms",
        outcome.get("p50_ms") - untraced.get("p50_ms"),
    );
    outcome.wrong.extend(untraced.wrong);
    outcome.invalid.extend(untraced.invalid);
    outcome.attempted = untraced.attempted;
    outcome.failed = untraced.failed;
    print_table(&name, &tracer);
    let spans = out_dir.join(format!("trace-{name}.jsonl"));
    std::fs::write(&spans, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    let traced_outcome = Outcome {
        values: layer.clone(),
        ..outcome
    };
    write_result(
        &out_dir.join(format!("{name}.s{}.trace.json", params.seed)),
        &name,
        &params,
        true,
        &traced_outcome,
    )?;
    Ok(finish(&name, &traced_outcome, &layer, PER_LAYER))
}

/// Run this workload untraced in a child process and read back the
/// result file it wrote. A file left by an earlier run is removed first,
/// so a child that dies before writing is an error, not stale counts.
fn untraced_child(args: &[String], result: &Path) -> Result<Outcome, String> {
    match std::fs::remove_file(result) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", result.display()));
        }
        _ => {}
    }
    let mut child_args: Vec<String> = Vec::with_capacity(args.len() + 2);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            it.next();
        } else {
            child_args.push(a.clone());
        }
    }
    child_args.extend(["--trace".to_string(), "0".to_string()]);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(&child_args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stdout));
    // A child that found wrong answers exits nonzero after writing its
    // result; one that wrote nothing failed outright.
    if !output.status.success() && !result.exists() {
        return Err(format!(
            "untraced run failed ({}) without a result",
            output.status
        ));
    }
    read_result(result)
}

/// Print the metric lines and the final JSON line; the exit code.
fn finish(
    name: &str,
    outcome: &Outcome,
    values: &std::collections::BTreeMap<&'static str, f64>,
    registry: &[(&str, &str)],
) -> i32 {
    let mut metrics = Vec::new();
    for (metric, unit) in registry {
        // JSON has no infinity; a latency made infinite by failures
        // reads as the largest finite number.
        let v = values.get(*metric).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { f64::MAX };
        println!("{name} {metric} {v} {unit}");
        metrics.push((
            metric.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    for w in &outcome.wrong {
        eprintln!("{name}: WRONG {w}");
    }
    for w in &outcome.invalid {
        eprintln!("{name}: INVALID {w}");
    }
    let correct = outcome.wrong.is_empty();
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    if correct {
        0
    } else {
        1
    }
}

fn write_result(
    path: &Path,
    name: &str,
    params: &Params,
    traced: bool,
    o: &Outcome,
) -> Result<(), String> {
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let json = Json::Obj(vec![
        ("schema".into(), Json::Str("dpioa-benchmark/v1".into())),
        ("workload".into(), Json::Str(name.into())),
        ("seed".into(), Json::Num(params.seed as f64)),
        ("seconds".into(), Json::Num(params.seconds as f64)),
        ("quick".into(), Json::Bool(params.quick)),
        ("traced".into(), Json::Bool(traced)),
        ("valid".into(), Json::Bool(o.invalid.is_empty())),
        ("invalid".into(), strings(&o.invalid)),
        ("correct".into(), Json::Bool(o.wrong.is_empty())),
        ("wrong".into(), strings(&o.wrong)),
        ("attempted".into(), Json::Num(o.attempted as f64)),
        ("failed".into(), Json::Num(o.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                o.values
                    .iter()
                    .filter(|(_, v)| v.is_finite())
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*v)),
                                ("unit".into(), Json::Str(unit_of(k).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "samples".into(),
            Json::Obj(
                o.samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Read back what [`write_result`] wrote (values, verdicts, counts).
fn read_result(path: &Path) -> Result<Outcome, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let strings = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    let mut outcome = Outcome {
        attempted: json.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: json.get("failed").and_then(Json::as_u64).unwrap_or(0),
        wrong: strings("wrong"),
        invalid: strings("invalid"),
        ..Outcome::default()
    };
    if let Some(Json::Obj(metrics)) = json.get("metrics") {
        for (name, m) in metrics {
            let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| n == name);
            if let (Some((n, _)), Some(v)) = (known, m.get("value").and_then(Json::as_f64)) {
                outcome.values.insert(n, v);
            }
        }
    }
    Ok(outcome)
}

/// The per-layer table of a traced run: count, total and self time per
/// span name, largest self time first.
fn print_table(name: &str, t: &Tracer) {
    let mut rows: Vec<_> = t.table().into_iter().collect();
    rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    println!(
        "{name}: {:<26} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (span, (count, total, own)) in rows {
        println!(
            "{name}: {span:<26} {count:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// `run`: every named workload (default all) in its own child process,
/// `--runs` times with seeds `seed, seed + 1, …`.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--trace", "--quick"])?;
    if let Some(p) = flags.positional.first() {
        return Err(format!("unexpected argument {p:?}"));
    }
    let seed: u64 = flags.get("--seed", 1)?;
    let runs: u64 = flags.get("--runs", 1)?;
    let seconds: u64 = flags.get("--seconds", DEFAULT_SECONDS)?;
    let out = flags.get("--out", DEFAULT_OUT.to_string())?;
    let mut names = flags.all("--workload");
    if names.is_empty() {
        names = WORKLOADS.iter().map(|(n, _)| *n).collect();
    }
    for n in &names {
        workload_by_name(n)?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = 0;
    for r in 0..runs {
        for name in &names {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &(seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if flags.has("--trace") { "1" } else { "0" }])
                .args(["--out", &out]);
            if flags.has("--quick") {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            if !status.success() {
                eprintln!("benchmark: {name} (seed {}) failed: {status}", seed + r);
                code = 1;
            }
        }
    }
    Ok(code)
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &[])?;
    let [base, new] = flags.positional.as_slice() else {
        return Err("compare needs BASE_DIR and NEW_DIR".into());
    };
    let bounds = flags.get("--bounds", "BENCHMARK.json".to_string())?;
    let ok = compare::run(Path::new(base), Path::new(new), Path::new(&bounds))?;
    Ok(if ok { 0 } else { 1 })
}
