//! serve-hot: loopback HTTP to a child `dpioa-serve --addr
//! 127.0.0.1:0 --workers 2`, every other setting at its default.
//!
//! The load generator is this process: at most two threads, each with at
//! most one connection open, one connection per request with
//! `Connection: close` — the same bytes `dpioa_server::client::Client`
//! sends. It carries its own HTTP client so that it cannot change when
//! the program does.
//!
//! * Set-up: spawn to `/readyz` 200, plus 200 warm-up requests.
//! * Open loop: seeded Poisson arrivals at 200 req/s over the 9-template
//!   zipf(1.1) deck. Latency is timed from each request's due time.
//! * Throughput: the two connections send back to back (closed loop);
//!   completed requests per second.
//! * Capacity (traced run only): 1 s probes at 100·1.5^k req/s up to
//!   8 650 req/s, stopping at the first probe where fewer than 99 % of requests
//!   complete within 50 ms of their due time, then three bisection
//!   probes.

use crate::gen::{poisson_schedule, Rng, Zipf, DECK, ZIPF_S};
use crate::report::{peak_rss_mb, Outcome, Params};
use crate::stats::{median, percentile, summarize};
use crate::trace::Tracer;
use crate::verify;
use dpioa_sched::execution_measure;
use dpioa_server::catalog::{observation_by_name, scheduler_by_name, Catalog};
use dpioa_server::json::Json;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator threads; each holds at most one connection.
const CONNECTIONS: usize = 2;
const OPEN_RATE: f64 = 200.0;
/// Open-loop requests per second of `--seconds`: the open loop lasts
/// the whole run at 200 req/s.
const OPEN_PER_SECOND: f64 = OPEN_RATE;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_SECOND: f64 = 100.0;
const WARMUP_REQUESTS: usize = 200;
const SETUPS: usize = 3;
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(10);

/// Ladder rungs 100·1.5^k for k < 12; the top rung is 8 650 req/s.
const LADDER_RUNGS: i32 = 12;
const BISECTIONS: usize = 3;
const PROBE: Duration = Duration::from_secs(1);
const SLO: Duration = Duration::from_millis(50);
const SLO_SHARE: f64 = 0.99;
/// Generator lateness above this makes the run invalid.
const MAX_LAG_MS: f64 = 1.0;

/// A running `dpioa-serve` child. Dropping it kills and reaps the
/// process, so no exit path leaves it behind.
struct Server {
    child: Child,
    /// Kept open so the child's last line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start() -> io::Result<Server> {
        let exe = std::env::current_exe()?.with_file_name("dpioa-serve");
        let mut child = Command::new(&exe)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", exe.display())))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .map(str::to_string);
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
        };
        if server.addr.is_empty() {
            return Err(io::Error::other(format!("unexpected first line {line:?}")));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while exchange(&server.addr, "GET", "/readyz", "").map_or(true, |r| r.status != 200) {
            if Instant::now() > deadline {
                return Err(io::Error::other("server never became ready"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    fn metrics(&self) -> BTreeMap<String, f64> {
        let page = exchange(&self.addr, "GET", "/metrics", "")
            .map(|r| r.body)
            .unwrap_or_default();
        page.lines()
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect()
    }

    fn rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful shutdown, then reap (Drop kills it if it hangs).
    fn stop(mut self) {
        let _ = exchange(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct Reply {
    status: u16,
    body: String,
}

/// One exchange on a fresh connection, read to the declared length.
fn exchange(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
    stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::with_capacity(2048);
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if let Some((status, start, Some(len))) = parse_head(&raw) {
            if raw.len() >= start + len {
                return Ok(Reply {
                    status,
                    body: String::from_utf8_lossy(&raw[start..start + len]).into_owned(),
                });
            }
        }
    }
    let (status, start, _) = parse_head(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated response"))?;
    Ok(Reply {
        status,
        body: String::from_utf8_lossy(&raw[start..]).into_owned(),
    })
}

/// (status, body offset, content length) once the head is complete.
fn parse_head(raw: &[u8]) -> Option<(u16, usize, Option<usize>)> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok());
    Some((status, end + 4, len))
}

/// One request's record.
struct Sent {
    template: usize,
    status: u16,
    body: String,
    /// Due time to response, ms (open loop); send to response (closed).
    latency_ms: f64,
    exchange_ms: f64,
    /// Generator lateness: send time minus the later of due time and
    /// the moment this thread became free.
    lag_ms: f64,
}

impl Sent {
    /// Latency, with a failed request counted as missing every limit.
    fn latency_or_miss(&self) -> f64 {
        if self.status == 200 {
            self.latency_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Send `plan` (due offset, template) over [`CONNECTIONS`] threads. With
/// `closed`, due times are ignored and each thread sends back to back.
/// Returns the records in plan order and the wall time.
fn drive(
    addr: &str,
    plan: &[(Duration, usize)],
    closed: bool,
    t: &mut Tracer,
) -> (Vec<Sent>, Duration) {
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(usize, Sent)>> = Mutex::new(Vec::with_capacity(plan.len()));
    let traced = t.enabled();
    let epoch = t.epoch();
    let start = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = if traced {
                        Tracer::on(epoch, plan.len() * 3 / CONNECTIONS + 16)
                    } else {
                        Tracer::off()
                    };
                    let mut mine = Vec::with_capacity(plan.len() / CONNECTIONS + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, template)) = plan.get(i) else {
                            break;
                        };
                        let free = Instant::now();
                        let due = if closed { free } else { start + offset };
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        local.set_op(i);
                        let request = local.begin_at("serve.request", due);
                        let exchange_span = local.begin("client.exchange");
                        let sent = Instant::now();
                        let reply = exchange(addr, "POST", "/v1/query", DECK[template].body);
                        let done = Instant::now();
                        let (status, body) =
                            reply.map_or((0, String::new()), |r| (r.status, r.body));
                        if let Some(ns) = service_ns(&body) {
                            local.record("server.service", done, Duration::from_nanos(ns));
                        }
                        local.end(exchange_span);
                        local.end(request);
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        mine.push((
                            i,
                            Sent {
                                template,
                                status,
                                body,
                                latency_ms: ms(done.saturating_duration_since(due)),
                                exchange_ms: ms(done - sent),
                                lag_ms: ms(sent.saturating_duration_since(due.max(free))),
                            },
                        ));
                    }
                    records.lock().expect("records lock").extend(mine);
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread"))
            .collect()
    });
    let wall = start.elapsed();
    for local in tracers {
        t.absorb(local);
    }
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|(i, _)| *i);
    (records.into_iter().map(|(_, s)| s).collect(), wall)
}

fn service_ns(body: &str) -> Option<u64> {
    // Cheap scan: the field is a plain integer at the end of the body.
    let at = body.rfind("\"service_ns\":")? + "\"service_ns\":".len();
    body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// `n` requests drawn from the deck by zipf(1.1), due on a Poisson
/// schedule at `rate` (offsets unused in closed loops).
fn plan(rng: &mut Rng, rate: f64, n: usize) -> Vec<(Duration, usize)> {
    let due = poisson_schedule(rng, rate, n);
    let templates = Zipf::new(DECK.len(), ZIPF_S).sequence(n, rng);
    due.into_iter().zip(templates).collect()
}

/// The capacity search against a pass/fail oracle: the ladder's rungs
/// in order until one fails, then [`BISECTIONS`] probes between the
/// last pass and the first fail. Returns the highest passing rate (0
/// when even the first rung fails) and every probe in order.
pub fn ladder(mut passes: impl FnMut(f64) -> bool) -> (f64, Vec<(f64, bool)>) {
    let mut probes = Vec::new();
    let mut lo = 0.0;
    let mut failed_at = None;
    for k in 0..LADDER_RUNGS {
        let rate = 100.0 * 1.5f64.powi(k);
        let ok = passes(rate);
        probes.push((rate, ok));
        if !ok {
            failed_at = Some(rate);
            break;
        }
        lo = rate;
    }
    let Some(mut hi) = failed_at else {
        return (lo, probes);
    };
    for _ in 0..BISECTIONS {
        let mid = (lo + hi) / 2.0;
        let ok = passes(mid);
        probes.push((mid, ok));
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

/// Reference answers per template, from the sequential engine on the
/// standard catalog.
fn references() -> Vec<Vec<(String, f64)>> {
    let catalog = Catalog::standard();
    DECK.iter()
        .map(|t| {
            let auto = catalog
                .get(t.automaton)
                .expect("deck automaton")
                .automaton
                .as_ref();
            let sched = scheduler_by_name(t.scheduler).expect("deck scheduler");
            let obs = observation_by_name(t.observation).expect("deck observation");
            verify::rows(
                &execution_measure(auto, sched.as_ref(), t.horizon).observe(|e| obs.apply(auto, e)),
            )
        })
        .collect()
}

/// The answer rows and engine label of a 200 response body.
fn parse_answer(body: &str) -> Result<(Vec<(String, f64)>, String), String> {
    let json = Json::parse(body)?;
    let dist = json
        .get("dist")
        .and_then(Json::as_arr)
        .ok_or("response has no dist")?;
    let rows = dist
        .iter()
        .map(|entry| {
            let value = entry
                .get("value")
                .and_then(Json::as_str)
                .ok_or("no value")?;
            let bits = entry
                .get("p_bits")
                .and_then(Json::as_str)
                .ok_or("no p_bits")?;
            let bits = u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?;
            Ok((value.to_string(), f64::from_bits(bits)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let engine = json
        .get("provenance")
        .and_then(|p| p.get("engine"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok((rows, engine))
}

fn check_replies(sent: &[Sent], references: &[Vec<(String, f64)>], out: &mut Outcome) -> usize {
    let mut exact = 0;
    for s in sent.iter().filter(|s| s.status == 200) {
        let t = &DECK[s.template];
        let dyadic = !(t.scheduler == "uniform-random" && t.automaton != "walk-8");
        let result = parse_answer(&s.body).and_then(|(rows, engine)| {
            if engine == "lumped" || engine == "exact" {
                exact += 1;
            }
            verify::check_exact(t.label, &rows, &references[s.template], dyadic)
        });
        if let Err(e) = result {
            out.wrong.push(format!("{}: {e}", t.label));
        }
    }
    exact
}

/// Passing share of a probe: requests that completed with 200 within
/// the SLO of their due time.
fn within_slo(sent: &[Sent]) -> f64 {
    let ok = sent
        .iter()
        .filter(|s| s.status == 200 && s.latency_ms <= SLO.as_secs_f64() * 1e3)
        .count();
    ok as f64 / sent.len().max(1) as f64
}

fn p99_with_misses(sent: &[Sent]) -> f64 {
    percentile(
        &sorted(sent.iter().map(Sent::latency_or_miss).collect()),
        99.0,
    )
}

pub fn run(params: &Params, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = params.seed;
    let traced = t.enabled();

    let mut setups = Vec::new();
    let mut server = None;
    for s in 0..if traced { 1 } else { SETUPS as u64 } {
        if let Some(previous) = server.take() {
            Server::stop(previous);
        }
        let t0 = Instant::now();
        let started = match Server::start() {
            Ok(started) => started,
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.wrong.push(format!("server start: {e}"));
                return out;
            }
        };
        // Every template once, in deck order, one at a time. The server
        // memoizes scheduler choices by (scheduler, step, state) across
        // its whole catalog, and walk-8 and mixer-4x3 share states 0–3:
        // whichever of the two uniform-random templates runs first fixes
        // the other's choices. Deck order computes walk-8 first, whose
        // choices leave mixer-4x3's trace answer unchanged; the reverse
        // order makes walk8-h12-random answer wrongly (README, open
        // targets).
        for t in DECK {
            let _ = exchange(&started.addr, "POST", "/v1/query", t.body);
        }
        let warmup = plan(
            &mut Rng::new(seed, 20 + s),
            OPEN_RATE,
            WARMUP_REQUESTS - DECK.len(),
        );
        drive(&started.addr, &warmup, true, &mut Tracer::off());
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let references = references();

    // Open loop at 200 req/s.
    let before = server.metrics();
    let open_plan = plan(
        &mut Rng::new(seed, 21),
        OPEN_RATE,
        params.ops(OPEN_PER_SECOND),
    );
    let (open, _) = drive(&server.addr, &open_plan, false, t);
    let after = server.metrics();

    // Closed loop: both connections back to back.
    let closed_plan = plan(
        &mut Rng::new(seed, 22),
        OPEN_RATE,
        params.ops(CLOSED_PER_SECOND),
    );
    let (closed, closed_wall) = drive(&server.addr, &closed_plan, true, &mut Tracer::off());

    if traced {
        let mut probe_no = 0u64;
        let mut p99s: Vec<(f64, bool, f64)> = Vec::new();
        let (max_rps, _) = ladder(|rate| {
            probe_no += 1;
            let n = (rate * PROBE.as_secs_f64()).round() as usize;
            let probe_plan = plan(&mut Rng::new(seed, 100 + probe_no), rate, n);
            let (sent, _) = drive(&server.addr, &probe_plan, false, &mut Tracer::off());
            let ok = within_slo(&sent) >= SLO_SHARE;
            p99s.push((rate, ok, p99_with_misses(&sent)));
            ok
        });
        out.set("server.max_rps", max_rps);
        let at_max = p99s.iter().find(|(r, ok, _)| *ok && *r == max_rps);
        let first_fail = p99s.iter().find(|(_, ok, _)| !ok);
        out.set("server.probe_p99_ms.at_max", at_max.map_or(0.0, |p| p.2));
        out.set(
            "server.probe_p99_ms.first_fail",
            first_fail.map_or(0.0, |p| p.2.min(EXCHANGE_TIMEOUT.as_secs_f64() * 1e3)),
        );
    }

    out.set("rss_mb", server.rss_mb());
    server.stop();

    let answered: Vec<&Sent> = open.iter().filter(|s| s.status == 200).collect();
    out.attempted = (open.len() + closed.len()) as u64;
    out.failed = open
        .iter()
        .chain(&closed)
        .filter(|s| s.status != 200)
        .count() as u64;
    let latency: Vec<f64> = open.iter().map(Sent::latency_or_miss).collect();
    let lat = summarize(&latency);
    out.set("p50_ms", lat.p50);
    out.set("tail_ms", lat.tail);
    out.samples.insert("latency", lat.n);
    out.samples.insert("tail_percentile", lat.tail_pct as usize);
    let closed_ok = closed.iter().filter(|s| s.status == 200).count();
    out.set(
        "throughput_qps",
        closed_ok as f64 / closed_wall.as_secs_f64(),
    );
    out.samples.insert("throughput_requests", closed.len());
    out.set("setup_s", median(&setups));
    out.samples.insert("setups", setups.len());

    let lag: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    let lag_p99 = percentile(&sorted(lag), 99.0);
    out.set("gen.lag_ms.p99", lag_p99);
    if lag_p99 > MAX_LAG_MS {
        out.invalid.push(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds {MAX_LAG_MS} ms"
        ));
    }
    let exchange_ms: Vec<f64> = answered.iter().map(|s| s.exchange_ms).collect();
    let service_ms: Vec<f64> = answered
        .iter()
        .map(|s| service_ns(&s.body).unwrap_or(0) as f64 / 1e6)
        .collect();
    let outside_ms: Vec<f64> = exchange_ms
        .iter()
        .zip(&service_ms)
        .map(|(e, s)| e - s)
        .collect();
    out.set(
        "server.exchange_ms.p50",
        percentile(&sorted(exchange_ms), 50.0),
    );
    let service = sorted(service_ms);
    out.set("server.service_ms.p50", percentile(&service, 50.0));
    out.set("server.service_ms.p99", percentile(&service, 99.0));
    let outside = sorted(outside_ms);
    out.set("server.outside_ms.p50", percentile(&outside, 50.0));
    out.set("server.outside_ms.p99", percentile(&outside, 99.0));

    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let ok = answered.len().max(1) as f64;
    out.set(
        "server.coalesce_share",
        delta("dpioa_coalesce_hits_total") / ok,
    );
    let batches = delta("dpioa_batches_total");
    out.set(
        "server.batch_fanout_mean",
        if batches > 0.0 {
            delta("dpioa_batched_queries_total") / batches
        } else {
            0.0
        },
    );
    out.set(
        "server.shed_share",
        delta("dpioa_shed_total") / open.len().max(1) as f64,
    );
    let engines = [
        ("server.engine_share.lumped", "lumped"),
        ("server.engine_share.exact", "exact"),
        ("server.engine_share.monte_carlo", "monte-carlo"),
        ("server.engine_share.hybrid", "hybrid"),
    ];
    let engine_delta = |e: &str| delta(&format!("dpioa_engine_answers_total{{engine=\"{e}\"}}"));
    let all: f64 = engines.iter().map(|(_, e)| engine_delta(e)).sum();
    for (metric, e) in engines {
        out.set(metric, engine_delta(e) / all.max(1.0));
    }
    let (hits, misses) = (
        delta("dpioa_cache_hits_total"),
        delta("dpioa_cache_misses_total"),
    );
    out.set("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let (s_hits, s_misses) = (
        delta("dpioa_strata_hits_total"),
        delta("dpioa_strata_misses_total"),
    );
    out.set(
        "server.strata_hit_ratio",
        s_hits / (s_hits + s_misses).max(1.0),
    );

    let exact = check_replies(&open, &references, &mut out);
    check_replies(&closed, &references, &mut out);
    out.set("exact_share", exact as f64 / ok);
    out
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_climbs_then_bisects() {
        // Capacity 400: rungs 100, 150, 225, 337.5 pass, 506.25 fails,
        // then 421.875 (fail), 379.6875 (pass), 400.78125 (fail).
        let (max, probes) = ladder(|r| r <= 400.0);
        let rates: Vec<f64> = probes.iter().map(|p| p.0).collect();
        assert_eq!(
            rates,
            [100.0, 150.0, 225.0, 337.5, 506.25, 421.875, 379.6875, 400.78125]
        );
        assert_eq!(max, 379.6875);
    }

    #[test]
    fn ladder_edges() {
        let (max, probes) = ladder(|_| true);
        assert_eq!(probes.len(), 12);
        assert_eq!(max.round(), 8650.0);
        let (max, probes) = ladder(|_| false);
        assert_eq!(max, 0.0);
        assert_eq!(probes.len(), 1 + BISECTIONS);
    }

    #[test]
    fn head_parsing() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse_head(raw), Some((200, raw.len() - 2, Some(2))));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n"), None);
        assert_eq!(service_ns(r#"{"a":1,"service_ns":1234}"#), Some(1234));
    }
}
