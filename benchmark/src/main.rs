//! The benchmark runner. It generates one workload's request stream
//! from a seed, drives the real `rumor` binary with it (closed loop, one
//! client), checks every reply, and prints each metric as
//! `<workload> <metric> <value> <unit>`, then one JSON line:
//!
//! ```text
//! rumor-benchmark --rumor PATH --workload W [--seed S] [--seconds T]
//!                 [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds both binaries first.
//! See `benchmark/README.md` for the workloads and metrics.

mod client;
mod gate;
mod probe;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rumor_core::obs::json::Json;

use client::{Session, Transport};
use probe::Probe;
use trace::{CacheDelta, Sent};
use workloads::{Body, Request, Workload};

/// An end-to-end metric: what a user of `rumor` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "trials_per_s", unit: "trials/s", better: "higher", bound: 0.1 },
    EndToEnd { name: "req_p50_ms", unit: "ms", better: "lower", bound: 0.1 },
    EndToEnd { name: "req_p99_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1 },
];

/// A per-layer metric of the traced run, and the end-to-end metric and
/// workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

pub const LAYER_METRICS: [LayerMetric; 25] = [
    layer("spec.parse_us", "us", "lower", "req_p50_ms@serve_mixed"),
    layer("spec.validate_us", "us", "lower", "req_p50_ms@serve_mixed"),
    layer("graph.resolve_ms", "ms", "lower", "req_p99_ms@paper_static"),
    layer("graph.resolve_share", "ratio", "lower", "trials_per_s@paper_static"),
    layer("engine.run_share", "ratio", "lower", "trials_per_s@paper_static"),
    layer("engine.static_ns_per_step", "ns", "lower", "trials_per_s@paper_static"),
    layer("engine.sync_us_per_round", "us", "lower", "trials_per_s@paper_static"),
    layer("engine.dynamic_ns_per_event", "ns", "lower", "trials_per_s@dynamic_models"),
    layer("engine.steps", "count", "lower", "trials_per_s@paper_static"),
    layer("engine.topology_events", "count", "lower", "trials_per_s@dynamic_models"),
    layer("engine.censored_frac", "ratio", "lower", "failed@all"),
    layer("trace.record_ms", "ms", "lower", "trials_per_s@coupled_traces"),
    layer("trace.replay_ms", "ms", "lower", "trials_per_s@coupled_traces"),
    layer("trace.steps", "count", "lower", "trials_per_s@coupled_traces"),
    layer("trace.record_ns_per_step", "ns", "lower", "req_p99_ms@serve_mixed"),
    layer("trace.horizon_used_frac", "ratio", "higher", "trials_per_s@coupled_traces"),
    layer("cache.graph_hit_ratio", "ratio", "higher", "req_p50_ms@serve_mixed"),
    layer("cache.trace_hit_ratio", "ratio", "higher", "trials_per_s@serve_mixed"),
    layer("codec.encode_us", "us", "lower", "req_p50_ms@serve_mixed"),
    layer("codec.response_bytes", "bytes", "lower", "req_p50_ms@serve_mixed"),
    layer("service.overhead_ms", "ms", "lower", "req_p50_ms@paper_static"),
    layer("dispatch.expand_us", "us", "lower", "req_p50_ms@sweep_fanout"),
    layer("dispatch.inprocess_ms", "ms", "lower", "req_p50_ms@sweep_fanout"),
    layer("dispatch.process_overhead_ms", "ms", "lower", "req_p50_ms@sweep_fanout"),
    layer("bench.trace_overhead_frac", "ratio", "lower", "-"),
];

/// A run makes this many passes over its stream, each with its own
/// set-up and a fresh `rumor` process. A request's round trip is the
/// fastest of its passes, each scaled by the [`probe`]s around it: the
/// host's speed swings over fractions of a second to seconds, and passes
/// seconds apart rarely all hit a slow spell. `setup_s` is the median
/// over the passes.
const PASSES: usize = 3;
/// The probe runs between two requests once this much time has passed
/// since it last ran. The host's speed moves from one quarter second to
/// the next, so a probe per block of requests (up to 260 ms) tracked it
/// worse: see the README.
const PROBE_EVERY: Duration = Duration::from_millis(40);
/// The warm-up covers 1/`WARM_UP_DIVISOR` of the stream, 5%.
const WARM_UP_DIVISOR: usize = 20;
/// `--smoke` makes one pass over a stream this many times shorter.
const SMOKE_DIVISOR: usize = 20;

/// The untimed warm-up: the first whole blocks that cover
/// 1/[`WARM_UP_DIVISOR`] of a stream of `len` requests.
fn warm_up_len(workload: Workload, len: usize) -> usize {
    let block = workload.block_len();
    (len / WARM_UP_DIVISOR).div_ceil(block).max(1) * block
}

struct Args {
    rumor: PathBuf,
    workload: Workload,
    seed: u64,
    /// The run's time cap. It never changes the stream: the first pass
    /// always completes, and later passes send nothing once the cap has
    /// passed, so a slower program is measured on fewer passes of the
    /// same requests.
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut rumor = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 22;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--rumor" => rumor = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        rumor: rumor.ok_or("--rumor is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// Cache counters of a `stats` reply (empty for a worker).
fn stats_counters(session: &mut Session, id: usize) -> Result<BTreeMap<String, f64>, String> {
    let request = Request {
        class: "stats",
        body: Body::Stats,
        expect: workloads::Expect::Counters,
        law_n: None,
    };
    let (_, reply) = session.call(&request.payload(id));
    let reply = reply?;
    gate::check_reply(&request, id, &reply)?;
    let doc = Json::parse(std::str::from_utf8(&reply).map_err(|e| e.to_string())?)?;
    let counters = doc.get("counters").and_then(Json::as_obj).unwrap_or(&[]);
    Ok(counters.iter().map(|(k, v)| (k.clone(), v.as_num().unwrap_or(0.0))).collect())
}

/// A session set up and warmed, ready for the timed phase.
struct Ready {
    stream: Vec<Request>,
    payloads: Vec<Vec<u8>>,
    session: Session,
    counters: BTreeMap<String, f64>,
}

/// Input generation, process spawn, and the untimed warm-up.
fn set_up(args: &Args, len: usize, warm: usize) -> Result<Ready, String> {
    let stream = args.workload.generate(args.seed, len);
    let payloads: Vec<Vec<u8>> = stream.iter().enumerate().map(|(i, r)| r.payload(i)).collect();
    let transport = args.workload.transport();
    let mut session = Session::start(transport, &args.rumor, &args.out.join("sweep"))
        .map_err(|e| format!("starting rumor: {e}"))?;
    for (i, payload) in payloads.iter().enumerate().take(warm) {
        let (_, reply) = session.call(payload);
        let reply = reply.map_err(|e| format!("warm-up request {i}: {e}"))?;
        gate::check_reply(&stream[i], i, &reply)
            .map_err(|e| format!("warm-up request {i}: {e}"))?;
    }
    let counters = match transport {
        Transport::Sweep => BTreeMap::new(),
        _ => stats_counters(&mut session, len)?,
    };
    Ok(Ready { stream, payloads, session, counters })
}

/// One pass over the stream.
struct Pass {
    /// Set-up time, scaled by the probes before and after it.
    setup_s: f64,
    /// Round trip and reply of each timed request, in stream order.
    calls: Vec<(Duration, Result<Vec<u8>, String>)>,
    /// Each round trip in ms, scaled by the probes around it.
    scaled_ms: Vec<f64>,
    wall: Duration,
    peak_rss_mb: f64,
    caches: CacheDelta,
}

/// Sets up, then sends every request after the warm-up, in order, each
/// only after the previous reply arrived (closed loop, one client), and
/// none after `deadline`. The host-speed probe runs before the set-up,
/// after it, between requests every [`PROBE_EVERY`], and after the last.
fn run_pass(
    args: &Args,
    probe: &Probe,
    len: usize,
    warm: usize,
    deadline: Option<Instant>,
) -> Result<(Vec<Request>, Pass), String> {
    let before = probe.time_ms();
    let start = Instant::now();
    let mut ready = set_up(args, len, warm)?;
    let setup = start.elapsed().as_secs_f64();
    // `bounds[s]` and `bounds[s + 1]` are the probes around the requests
    // of segment s; `segment[k]` is timed request k's.
    let mut bounds = vec![probe.time_ms()];
    let mut segment = Vec::with_capacity(len - warm);
    let mut probed = Instant::now();
    let setup_s = setup * probe::scale(before, bounds[0]);
    let transport = args.workload.transport();
    let mut calls = Vec::with_capacity(len - warm);
    let start = Instant::now();
    for payload in &ready.payloads[warm..] {
        if deadline.is_some_and(|d| Instant::now() > d) {
            eprintln!("time cap reached after {} timed requests of a pass", calls.len());
            break;
        }
        if probed.elapsed() >= PROBE_EVERY {
            bounds.push(probe.time_ms());
            probed = Instant::now();
        }
        segment.push(bounds.len() - 1);
        let call = ready.session.call(payload);
        if call.1.is_err() && transport != Transport::Sweep {
            // The server died: count the failure and carry on with a
            // fresh one.
            let fresh = Session::start(transport, &args.rumor, &args.out.join("sweep"))
                .map_err(|e| format!("restarting rumor: {e}"))?;
            let _ = std::mem::replace(&mut ready.session, fresh).close();
        }
        calls.push(call);
    }
    let wall = start.elapsed();
    bounds.push(probe.time_ms());
    let scaled_ms = calls
        .iter()
        .zip(&segment)
        .map(|((rtt, _), &s)| rtt.as_secs_f64() * 1e3 * probe::scale(bounds[s], bounds[s + 1]))
        .collect();
    let peak_rss_mb = ready.session.peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;
    let mut caches = CacheDelta::default();
    if transport == Transport::Serve {
        let end = stats_counters(&mut ready.session, len + 1)?;
        let delta = |key: &str| {
            end.get(key).copied().unwrap_or(0.0) - ready.counters.get(key).copied().unwrap_or(0.0)
        };
        caches = CacheDelta {
            graph_hits: delta("graph_cache_hits"),
            graph_misses: delta("graph_cache_misses"),
            trace_hits: delta("trace_cache_hits"),
            trace_misses: delta("trace_cache_misses"),
        };
    }
    let Ready { stream, session, .. } = ready;
    session.close().map_err(|e| format!("closing rumor: {e}"))?;
    Ok((stream, Pass { setup_s, calls, scaled_ms, wall, peak_rss_mb, caches }))
}

/// Runs the correctness gate; returns one failure message (or `None`)
/// per timed request. The first pass's replies are checked, and every
/// later pass must repeat them byte for byte.
fn check(stream: &[Request], warm: usize, passes: &[Pass]) -> Vec<Option<String>> {
    let first = &passes[0].calls;
    let mut law: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut law_members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut failures: Vec<Option<String>> = first
        .iter()
        .enumerate()
        .map(|(k, (_, reply))| {
            let index = warm + k;
            let request = &stream[index];
            let bytes = reply.as_ref().map_err(Clone::clone)?;
            if let Some(report) = gate::check_reply(request, index, bytes)? {
                if index.is_multiple_of(gate::TRANSPORT_EVERY) {
                    gate::check_transport(request, &report)?;
                }
                if let Some(n) = request.law_n {
                    law.entry(n).or_default().extend(gate::law_samples(&report));
                    law_members.entry(n).or_default().push(k);
                }
            }
            if matches!(request.body, Body::Sweep(_)) && index.is_multiple_of(gate::DISPATCH_EVERY)
            {
                gate::check_dispatch(request, bytes)?;
            }
            Ok(())
        })
        .map(Result::err)
        .collect();
    for n in gate::law_violations(&law, gate::complete_graph_law) {
        for &k in &law_members[&n] {
            failures[k].get_or_insert_with(|| format!("K_{n} spreading-time law check failed"));
        }
    }
    for pass in &passes[1..] {
        for (k, (_, reply)) in pass.calls.iter().enumerate() {
            if reply != &first[k].1 {
                failures[k].get_or_insert_with(|| "reply differs between passes".to_owned());
            }
        }
    }
    failures
}

fn print_metric(workload: &str, name: &str, value: f64, unit: &str, suffix: &str) {
    println!("{workload} {name} {value} {unit}{suffix}");
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.name();
    let mut len = args.workload.stream_len();
    let mut passes = PASSES;
    if args.smoke {
        len /= SMOKE_DIVISOR;
        passes = 1;
    }
    let warm = warm_up_len(args.workload, len);
    let cap = Instant::now() + Duration::from_secs(args.seconds);
    let probe = Probe::new();
    let mut stream = Vec::new();
    let mut runs = Vec::with_capacity(passes);
    for pass in 0..passes {
        if pass > 0 && Instant::now() > cap {
            eprintln!("time cap reached after {pass} passes");
            break;
        }
        let (generated, pass) = run_pass(args, &probe, len, warm, (pass > 0).then_some(cap))?;
        stream = generated;
        runs.push(pass);
    }

    let failures = check(&stream, warm, &runs);
    let attempted: usize = runs.iter().map(|p| p.calls.len()).sum();
    let failed: usize =
        runs.iter().flat_map(|p| &failures[..p.calls.len()]).filter(|f| f.is_some()).count();
    for (k, f) in failures.iter().enumerate() {
        if let Some(message) = f {
            let class = stream[warm + k].class;
            eprintln!("{name}: request {} ({class}) failed: {message}", warm + k);
        }
    }
    let sent: Vec<Sent> = runs[0]
        .calls
        .iter()
        .enumerate()
        .map(|(k, (first, reply))| Sent {
            index: warm + k,
            rtt_ms: runs
                .iter()
                .filter_map(|p| p.scaled_ms.get(k))
                .copied()
                .fold(f64::MAX, f64::min),
            first_rtt_ms: first.as_secs_f64() * 1e3,
            reply_bytes: reply.as_ref().map_or(0, Vec::len),
        })
        .collect();
    let trials: usize = sent
        .iter()
        .zip(&failures)
        .filter(|(_, f)| f.is_none())
        .map(|(s, _)| stream[s.index].trials())
        .sum();
    let rtts: Vec<f64> = sent.iter().map(|s| s.rtt_ms).collect();
    let trials_per_s = trials as f64 / (rtts.iter().sum::<f64>() / 1e3);
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &sent {
        by_class.entry(stream[s.index].class).or_default().push(s.rtt_ms);
    }
    for (class, v) in &by_class {
        let max = v.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "{name}: class {class}: {} requests, rtt p50 {:.3} ms, max {max:.3} ms",
            v.len(),
            stats::median(v)
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced = trace::replay(
            &stream,
            warm,
            &sent,
            args.workload.transport() == Transport::Serve,
            runs[0].caches,
        );
        std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {:?}: {e}", args.out))?;
        let path = args.out.join(format!("{name}.spans.json"));
        let json = trace::spans_json(name, args.seed, &stream, &traced.tracer.spans);
        std::fs::write(&path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
        for m in &LAYER_METRICS {
            let value = traced.metrics[m.name];
            print_metric(name, m.name, value, m.unit, &format!(" moves={}", m.moves));
            metrics.push((m.name, value, m.unit));
        }
        eprintln!("{name}: spans written to {}", path.display());
    } else {
        let mut e2e = vec![("trials_per_s", trials_per_s)];
        for (metric, p) in [("req_p50_ms", 0.5), ("req_p99_ms", 0.99)] {
            match stats::nearest_rank(&rtts, p) {
                Some(value) => e2e.push((metric, value)),
                None => eprintln!("{name}: {metric} not reported: {} samples", rtts.len()),
            }
        }
        let setup_s: Vec<f64> = runs.iter().map(|p| p.setup_s).collect();
        let rss: Vec<f64> = runs.iter().map(|p| p.peak_rss_mb).collect();
        e2e.push(("setup_s", stats::median(&setup_s)));
        e2e.push(("peak_rss_mb", stats::median(&rss)));
        for (metric, value) in e2e {
            let unit = END_TO_END.iter().find(|m| m.name == metric).expect("declared").unit;
            print_metric(name, metric, value, unit, "");
            metrics.push((metric, value, unit));
        }
    }
    print_metric(name, "failed_frac", failed as f64 / attempted.max(1) as f64, "ratio", "");
    print_metric(name, "requests", attempted as f64, "count", "");
    let timed_s: f64 = runs.iter().map(|p| p.wall.as_secs_f64()).sum();
    print_metric(name, "timed_s", timed_s, "s", "");

    let correct = failed == 0 && attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": \
         {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: {}: correctness checks failed", args.workload.name());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// metrics this runner reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_num).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>());
        let layers: Vec<_> = LAYER_METRICS
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_owned()));
    }

    #[test]
    fn every_stream_times_enough_requests_for_a_p99() {
        for w in Workload::ALL {
            let timed = w.stream_len() - warm_up_len(w, w.stream_len());
            assert!(stats::nearest_rank(&vec![1.0; timed], 0.99).is_some(), "{}", w.name());
        }
    }

    #[test]
    fn arguments_parse_into_a_run() {
        let argv: Vec<String> = [
            "--rumor",
            "r",
            "--workload",
            "serve_mixed",
            "--seed",
            "2",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(str::to_owned)
        .to_vec();
        let args = parse_args(&argv).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::ServeMixed, 2, 10, true)
        );
        let bad = ["--rumor", "r", "--workload", "nope"].map(str::to_owned).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
