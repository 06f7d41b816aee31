//! The traced run: every request of the stream re-executed in-process
//! through the public API only (`SimSpec::parse`, `GraphSpec::resolve`,
//! `SimSpec::build`/`build_cached`, `Simulation::run`, `report_to_json`
//! with `Json::render`, `SweepSpec::parse`/`expand`, `dispatch`), with
//! a span around each call into a layer. Spans stay in memory and are
//! written out at the end.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rumor_core::obs::json::Json;
use rumor_core::{Protocol, RunCaches, RunReport, SimSpec, SweepSpec, Topology};
use rumor_fleet::{dispatch, report_to_json, DispatchOptions};

use crate::stats::median;
use crate::workloads::{Body, Request};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the request in its stream.
    pub request: usize,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a child span of `parent`; returns its result and
    /// duration in ns.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        (out, self.close(id))
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What the end-to-end run measured for one timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub index: usize,
    /// The fastest round trip over the passes, each scaled by the host
    /// speed around it (see `probe.rs`).
    pub rtt_ms: f64,
    /// The first pass's round trip, unscaled: like the single in-process
    /// re-execution it is compared with, one raw sample.
    pub first_rtt_ms: f64,
    pub reply_bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    Sync,
    StaticAsync,
    Dynamic,
    Coupled,
    Sweep,
    #[default]
    Other,
}

/// The in-process cost and counts of one request.
#[derive(Debug, Default)]
struct Exec {
    kind: Kind,
    parse_ns: u64,
    resolve_ns: u64,
    build_ns: u64,
    run_ns: u64,
    encode_ns: u64,
    cold_ns: u64,
    warm_ns: u64,
    expand_ns: u64,
    dispatch_ns: u64,
    total_ns: u64,
    trials: u64,
    censored: u64,
    steps: u64,
    topology_events: u64,
    trace_steps: u64,
    horizon_used: Vec<f64>,
}

impl Exec {
    /// The in-process equivalent of the round trip: parse, build, run
    /// and encode, or parse and dispatch for a sweep. Attribution-only
    /// calls (the separate resolve, the cold/warm trace runs, expand)
    /// are left out.
    fn inprocess_ns(&self) -> u64 {
        self.parse_ns + self.build_ns + self.run_ns + self.encode_ns + self.dispatch_ns
    }
}

fn count_report(exec: &mut Exec, report: &RunReport) {
    exec.trials = report.trials() as u64;
    exec.censored = report.censored() as u64;
    exec.steps = report.telemetry.steps;
    exec.topology_events = report.telemetry.topology_events;
    exec.trace_steps = report.telemetry.trace_steps;
}

fn execute_spec(
    tracer: &mut Tracer,
    root: usize,
    text: &str,
    shared: Option<&Arc<RunCaches>>,
) -> Exec {
    let mut exec = Exec::default();
    let (parsed, ns) = tracer.time("spec.parse", root, || SimSpec::parse(text));
    exec.parse_ns = ns;
    let Ok(spec) = parsed else { return exec };
    let (built, ns) = tracer.time("spec.build", root, || match shared {
        Some(caches) => spec.build_cached(caches),
        None => spec.build(),
    });
    exec.build_ns = ns;
    // The build resolves the graph too; resolving it again on its own
    // splits the build into graph and validation time.
    let (_, ns) = tracer.time("graph.resolve", root, || spec.graph.resolve());
    exec.resolve_ns = ns;
    let Ok(sim) = built else { return exec };
    let (report, ns) = tracer.time("engine.run", root, || sim.run());
    exec.run_ns = ns;
    let (_, ns) = tracer.time("codec.encode", root, || report_to_json(&report).render());
    exec.encode_ns = ns;
    count_report(&mut exec, &report);
    exec.kind = if spec.plan.coupled {
        Kind::Coupled
    } else if matches!(spec.protocol, Protocol::Sync { .. }) {
        Kind::Sync
    } else if matches!(spec.topology, Topology::Static) {
        Kind::StaticAsync
    } else {
        Kind::Dynamic
    };
    if exec.kind == Kind::Coupled {
        // Recording cost: the same run on fresh caches (records every
        // trace) minus on the now-warm caches (replays them).
        let fresh = Arc::new(RunCaches::new());
        let run = || spec.build_cached(&fresh).map(|s| s.run());
        let (_, cold) = tracer.time("trace.cold", root, run);
        let (_, warm) = tracer.time("trace.warm", root, run);
        exec.cold_ns = cold;
        exec.warm_ns = warm;
        let horizon = sim.horizon();
        exec.horizon_used = report
            .coupled_outcomes()
            .unwrap_or(&[])
            .iter()
            .map(|o| o.async_time.max(o.sync_rounds) / horizon)
            .collect();
    }
    exec
}

fn execute_sweep(tracer: &mut Tracer, root: usize, text: &str) -> Exec {
    let mut exec = Exec { kind: Kind::Sweep, ..Exec::default() };
    let (parsed, ns) = tracer.time("spec.parse", root, || SweepSpec::parse(text));
    exec.parse_ns = ns;
    let Ok(sweep) = parsed else { return exec };
    let (_, ns) = tracer.time("dispatch.expand", root, || sweep.expand());
    exec.expand_ns = ns;
    let (outcome, ns) = tracer.time("dispatch.inprocess", root, || {
        dispatch(&sweep, &DispatchOptions::default()).map(|o| {
            o.doc.render();
            o.doc
        })
    });
    exec.dispatch_ns = ns;
    if let Ok(doc) = outcome {
        let count = |parent: &str, key: &str| {
            doc.get(parent).and_then(|j| j.get(key)).and_then(Json::as_num).unwrap_or(0.0) as u64
        };
        exec.trials = count("summary", "trials");
        exec.censored = count("summary", "censored");
        exec.steps = count("telemetry", "steps");
        exec.topology_events = count("telemetry", "topology_events");
        exec.trace_steps = count("telemetry", "trace_steps");
    }
    exec
}

/// The result of a traced run.
pub struct Traced {
    pub tracer: Tracer,
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Cache activity the service reported over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelta {
    pub graph_hits: f64,
    pub graph_misses: f64,
    pub trace_hits: f64,
    pub trace_misses: f64,
}

/// Re-executes the timed requests `sent` in-process and derives every
/// per-layer metric. With `shared_caches`, one `RunCaches` serves every
/// request, primed with the warm-up requests, as in `rumor serve`.
pub fn replay(
    stream: &[Request],
    warm: usize,
    sent: &[Sent],
    shared_caches: bool,
    caches: CacheDelta,
) -> Traced {
    let shared = shared_caches.then(|| Arc::new(RunCaches::new()));
    if let Some(c) = &shared {
        for r in &stream[..warm] {
            if let Body::Spec(text) = &r.body {
                let _ = SimSpec::parse(text).and_then(|s| s.build_cached(c)).map(|s| s.run());
            }
        }
    }
    let mut tracer = Tracer::new();
    let mut execs = Vec::with_capacity(sent.len());
    for s in sent {
        let root = tracer.open("request", None, s.index);
        let exec = match &stream[s.index].body {
            Body::Spec(text) => execute_spec(&mut tracer, root, text, shared.as_ref()),
            Body::Sweep(text) => execute_sweep(&mut tracer, root, text),
            Body::Stats => Exec::default(),
        };
        let total_ns = tracer.close(root);
        execs.push(Exec { total_ns, ..exec });
    }
    let span_share = tracer.spans.len() as f64 * span_cost_ns()
        / execs.iter().map(|e| e.total_ns).sum::<u64>().max(1) as f64;
    let mut metrics = layer_metrics(&execs, sent, caches);
    metrics.insert("bench.trace_overhead_frac", span_share);
    Traced { tracer, metrics }
}

/// What recording one span costs, in ns, timed on a scratch tracer.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let mut tracer = Tracer::new();
    let root = tracer.open("request", None, 0);
    let start = Instant::now();
    for _ in 0..SPANS {
        tracer.time("empty", root, || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(execs: &[Exec], sent: &[Sent], caches: CacheDelta) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&Exec) -> u64| execs.iter().map(f).sum::<u64>() as f64;
    let of_kind = |kind: Kind, f: &dyn Fn(&Exec) -> u64| {
        execs.iter().filter(|e| e.kind == kind).map(f).sum::<u64>() as f64
    };
    let p50 = |pick: &dyn Fn(&Exec, &Sent) -> Option<f64>| {
        let v: Vec<f64> = execs.iter().zip(sent).filter_map(|(e, s)| pick(e, s)).collect();
        median(&v)
    };
    let specs = |e: &Exec| e.kind != Kind::Other && e.kind != Kind::Sweep;
    let inprocess = sum(&|e| if specs(e) { e.inprocess_ns() } else { 0 });
    let trace_steps = of_kind(Kind::Coupled, &|e| e.trace_steps);
    let record_ns = of_kind(Kind::Coupled, &|e| e.cold_ns.saturating_sub(e.warm_ns));
    let horizon: Vec<f64> = execs.iter().flat_map(|e| e.horizon_used.iter().copied()).collect();

    let mut m = BTreeMap::new();
    m.insert("spec.parse_us", p50(&|e, _| specs(e).then(|| e.parse_ns as f64 / 1e3)));
    m.insert(
        "spec.validate_us",
        p50(&|e, _| specs(e).then(|| (e.build_ns as f64 - e.resolve_ns as f64) / 1e3)),
    );
    m.insert("graph.resolve_ms", ms(sum(&|e| e.resolve_ns) as u64));
    m.insert("graph.resolve_share", ratio(sum(&|e| e.resolve_ns), inprocess));
    m.insert("engine.run_share", ratio(sum(&|e| if specs(e) { e.run_ns } else { 0 }), inprocess));
    m.insert(
        "engine.static_ns_per_step",
        ratio(of_kind(Kind::StaticAsync, &|e| e.run_ns), of_kind(Kind::StaticAsync, &|e| e.steps)),
    );
    m.insert(
        "engine.sync_us_per_round",
        ratio(of_kind(Kind::Sync, &|e| e.run_ns) / 1e3, of_kind(Kind::Sync, &|e| e.steps)),
    );
    m.insert(
        "engine.dynamic_ns_per_event",
        ratio(
            of_kind(Kind::Dynamic, &|e| e.run_ns),
            of_kind(Kind::Dynamic, &|e| e.steps + e.topology_events),
        ),
    );
    m.insert("engine.steps", sum(&|e| e.steps));
    m.insert("engine.topology_events", sum(&|e| e.topology_events));
    m.insert("engine.censored_frac", ratio(sum(&|e| e.censored), sum(&|e| e.trials)));
    m.insert("trace.record_ms", record_ns / 1e6);
    m.insert("trace.replay_ms", of_kind(Kind::Coupled, &|e| e.warm_ns) / 1e6);
    m.insert("trace.steps", trace_steps);
    m.insert("trace.record_ns_per_step", ratio(record_ns, trace_steps));
    m.insert("trace.horizon_used_frac", ratio(horizon.iter().sum(), horizon.len() as f64));
    m.insert(
        "cache.graph_hit_ratio",
        ratio(caches.graph_hits, caches.graph_hits + caches.graph_misses),
    );
    m.insert(
        "cache.trace_hit_ratio",
        ratio(caches.trace_hits, caches.trace_hits + caches.trace_misses),
    );
    m.insert("codec.encode_us", p50(&|e, _| specs(e).then(|| e.encode_ns as f64 / 1e3)));
    m.insert("codec.response_bytes", p50(&|e, s| specs(e).then_some(s.reply_bytes as f64)));
    m.insert(
        "service.overhead_ms",
        p50(&|e, s| specs(e).then(|| s.first_rtt_ms - ms(e.inprocess_ns()))),
    );
    let sweeps = |e: &Exec| e.kind == Kind::Sweep;
    m.insert("dispatch.expand_us", p50(&|e, _| sweeps(e).then(|| e.expand_ns as f64 / 1e3)));
    m.insert("dispatch.inprocess_ms", p50(&|e, _| sweeps(e).then(|| ms(e.dispatch_ns))));
    m.insert(
        "dispatch.process_overhead_ms",
        p50(&|e, s| sweeps(e).then(|| s.first_rtt_ms - ms(e.dispatch_ns))),
    );
    m
}

/// The spans file: every span, one per line, then per span name its
/// count, total time and self time.
pub fn spans_json(workload: &str, seed: u64, stream: &[Request], spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"class\": \"{}\", \"parent\": \
             {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}{}\n",
            s.name,
            s.request,
            stream[s.request].class,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&self_ns) {
        let entry = summary.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.end_ns - s.start_ns;
        entry.2 += own;
    }
    out.push_str("], \"summary\": [\n");
    let rows: Vec<String> = summary
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "  {{\"name\": \"{name}\", \"count\": {count}, \"total_ms\": {:.3}, \"self_ms\": \
                 {:.3}}}",
                ms(*total),
                ms(*own)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps its sibling
            span(90, 120, Some(0)), // runs past its parent
            span(12, 18, Some(1)),
        ];
        // Root: 100 − (10..50 and 90..100) = 50; first child: 20 − 6.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn replay_produces_every_layer_metric() {
        use crate::workloads::Workload;
        for w in Workload::ALL {
            let stream = w.generate(5, 40);
            let sent: Vec<Sent> = (2..6)
                .map(|index| Sent { index, rtt_ms: 50.0, first_rtt_ms: 60.0, reply_bytes: 9 })
                .collect();
            let traced = replay(&stream, 2, &sent, true, CacheDelta::default());
            let names: Vec<&str> = crate::LAYER_METRICS.iter().map(|m| m.name).collect();
            assert_eq!(
                traced.metrics.keys().copied().collect::<std::collections::BTreeSet<_>>(),
                names.iter().copied().collect()
            );
            assert!(traced.metrics.values().all(|v| v.is_finite()), "{}", w.name());
            let roots = traced.tracer.spans.iter().filter(|s| s.parent.is_none()).count();
            assert_eq!(roots, 4);
            let json = spans_json(w.name(), 5, &stream, &traced.tracer.spans);
            assert!(Json::parse(&json).is_ok(), "{json}");
        }
    }
}
