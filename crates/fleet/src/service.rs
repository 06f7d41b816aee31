//! The frame-request loop behind `rumor worker` and `rumor serve`.
//!
//! Both modes speak the same protocol: each request is one
//! [`frame`](crate::frame) holding a JSON object, each response one
//! frame with the matching `id` echoed back.
//!
//! | request                     | response                               |
//! |-----------------------------|----------------------------------------|
//! | `{id, spec: "<text>"}`      | `{id, report: {...}}` or `{id, error}` |
//! | `{id, stats: true}`         | `{id, counters: {...}}`                |
//! | any other JSON object       | `{id, error}`                          |
//! | not UTF-8, or not JSON      | `{id: null, error}`                    |
//!
//! A spec that fails to parse or validate is answered `{id, error}`
//! with the request's `id`; only a frame whose `id` cannot be read at
//! all gets `id: null`.
//!
//! The two modes differ only in configuration: a worker runs each spec
//! uncached (so its reports carry no cache counters and stay
//! byte-identical to an in-process run), while `rumor serve` binds a
//! shared [`RunCaches`] so repeated specs hit the graph and
//! topology-trace caches.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::Arc;

use rumor_core::obs::json::Json;
use rumor_core::spec::SimSpec;
use rumor_core::RunCaches;

use crate::frame::{read_frame, write_frame};
use crate::report::report_to_json;

/// How a [`run_frames`] loop behaves.
#[derive(Debug, Default, Clone)]
pub struct ServiceConfig {
    /// Cross-request graph/trace caches (`rumor serve`); `None` runs
    /// every spec cold (`rumor worker`).
    pub caches: Option<Arc<RunCaches>>,
    /// Abort (without responding) when about to serve request number
    /// `n+1` — the crash-injection hook behind `rumor worker
    /// --exit-after n` and the dispatcher's retry tests.
    pub exit_after: Option<u64>,
}

/// Why a [`run_frames`] loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceExit {
    /// The input stream ended cleanly after serving this many requests.
    Eof(u64),
    /// The configured `exit_after` limit was hit after serving this
    /// many requests; the pending request got no response. The caller
    /// should exit nonzero to complete the simulated crash.
    Aborted(u64),
}

/// Serves frame requests from `input` until end-of-stream.
///
/// Every request gets exactly one response frame (malformed requests
/// get an in-band `{id, error}` response rather than killing the loop),
/// flushed before the next read.
///
/// # Errors
///
/// Only transport errors: a truncated or oversized frame, or a failed
/// write. Bad requests and failed runs are reported in-band.
pub fn run_frames(
    input: &mut impl Read,
    output: &mut impl Write,
    config: &ServiceConfig,
) -> io::Result<ServiceExit> {
    let mut served = 0u64;
    while let Some(payload) = read_frame(input)? {
        if config.exit_after == Some(served) {
            return Ok(ServiceExit::Aborted(served));
        }
        let response = respond(&payload, config);
        write_frame(output, response.render().as_bytes())?;
        served += 1;
    }
    Ok(ServiceExit::Eof(served))
}

fn respond(payload: &[u8], config: &ServiceConfig) -> Json {
    let (id, result) = match parse_frame(payload) {
        Ok(doc) => {
            let id = doc.get("id").cloned().unwrap_or(Json::Null);
            (id, parse_request(&doc).and_then(|request| handle(request, config)))
        }
        Err(e) => (Json::Null, Err(e)),
    };
    let body = match result {
        Ok(body) => body,
        Err(message) => ("error".to_owned(), Json::Str(message)),
    };
    Json::Obj(vec![("id".to_owned(), id), body])
}

enum Request {
    Run(Box<SimSpec>),
    Stats,
}

fn parse_frame(payload: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_owned())?;
    Json::parse(text).map_err(|e| format!("bad request JSON: {e}"))
}

fn parse_request(doc: &Json) -> Result<Request, String> {
    if let Some(spec_text) = doc.get("spec").and_then(Json::as_str) {
        let spec = SimSpec::parse(spec_text).map_err(|e| format!("bad spec: {e}"))?;
        return Ok(Request::Run(Box::new(spec)));
    }
    if matches!(doc.get("stats"), Some(Json::Bool(true))) {
        return Ok(Request::Stats);
    }
    Err("request has neither `spec` nor `stats: true`".to_owned())
}

fn handle(request: Request, config: &ServiceConfig) -> Result<(String, Json), String> {
    match request {
        Request::Run(spec) => {
            let sim = match &config.caches {
                Some(caches) => spec.build_cached(caches),
                None => spec.build(),
            }
            .map_err(|e| format!("bad spec: {e}"))?;
            Ok(("report".to_owned(), report_to_json(&sim.run())))
        }
        Request::Stats => {
            let counters = match &config.caches {
                Some(caches) => caches.counters(),
                None => Vec::new(),
            };
            let fields =
                counters.into_iter().map(|(name, v)| (name, Json::Num(v as f64))).collect();
            Ok(("counters".to_owned(), Json::Obj(fields)))
        }
    }
}

/// Binds a unix socket at `path` and serves connections sequentially,
/// all sharing one [`RunCaches`] — the `rumor serve --socket` mode.
///
/// A pre-existing socket file at `path` is removed first (the stale
/// leftover of a previous service). `max_connections` bounds how many
/// connections are accepted before returning (`None` serves forever).
///
/// # Errors
///
/// Bind/accept errors, or a transport error on a connection.
pub fn serve_socket(
    path: &Path,
    caches: Arc<RunCaches>,
    max_connections: Option<u64>,
) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let config = ServiceConfig { caches: Some(caches), exit_after: None };
    let mut accepted = 0u64;
    while max_connections.is_none_or(|cap| accepted < cap) {
        let (stream, _) = listener.accept()?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = io::BufWriter::new(stream);
        run_frames(&mut reader, &mut writer, &config)?;
        accepted += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
    use rumor_core::spec::{GraphSpec, Protocol, Topology};

    fn quick_spec() -> SimSpec {
        SimSpec::new(GraphSpec::Complete { n: 8 }).protocol(Protocol::push_pull_async()).trials(3)
    }

    fn request(id: f64, spec: &SimSpec) -> Vec<u8> {
        let doc = Json::Obj(vec![
            ("id".to_owned(), Json::Num(id)),
            ("spec".to_owned(), Json::Str(spec.to_spec_string().unwrap())),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, doc.render().as_bytes()).unwrap();
        buf
    }

    fn responses(output: &[u8]) -> Vec<Json> {
        let mut r = output;
        let mut docs = Vec::new();
        while let Some(frame) = read_frame(&mut r).unwrap() {
            docs.push(Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap());
        }
        docs
    }

    #[test]
    fn serves_runs_and_matches_direct_execution() {
        let mut input = request(1.0, &quick_spec());
        input.extend(request(2.0, &quick_spec().trials(2)));
        let mut output = Vec::new();
        let exit =
            run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        assert_eq!(exit, ServiceExit::Eof(2));
        let docs = responses(&output);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("id").unwrap(), &Json::Num(1.0));
        let direct = report_to_json(&quick_spec().build().unwrap().run());
        assert_eq!(docs[0].get("report").unwrap(), &direct);
    }

    #[test]
    fn caches_warm_across_requests_and_stats_reports_them() {
        let caches = Arc::new(RunCaches::default());
        let config = ServiceConfig { caches: Some(caches), exit_after: None };
        let mut input = request(1.0, &quick_spec());
        input.extend(request(2.0, &quick_spec()));
        let stats = Json::Obj(vec![
            ("id".to_owned(), Json::Num(3.0)),
            ("stats".to_owned(), Json::Bool(true)),
        ]);
        write_frame(&mut input, stats.render().as_bytes()).unwrap();
        let mut output = Vec::new();
        run_frames(&mut input.as_slice(), &mut output, &config).unwrap();
        let docs = responses(&output);
        let counters = docs[2].get("counters").unwrap();
        assert_eq!(counters.get("graph_cache_misses").unwrap(), &Json::Num(1.0));
        assert_eq!(counters.get("graph_cache_hits").unwrap(), &Json::Num(1.0));
    }

    #[test]
    fn bad_requests_answer_in_band_and_exit_after_aborts() {
        // A `p` so small that `1.0 - p` rounds to 1 once drew a self-loop
        // in the generator and killed the serve loop.
        let tiny_p = SimSpec::new(GraphSpec::Gnp { n: 10, p: 1e-300, seed: 5, attempts: 2 });
        let mut input = Vec::new();
        write_frame(&mut input, b"{\"id\": 9}").unwrap();
        input.extend(request(2.0, &tiny_p));
        input.extend(request(1.0, &quick_spec()));
        let mut output = Vec::new();
        let config = ServiceConfig { caches: None, exit_after: Some(2) };
        let exit = run_frames(&mut input.as_slice(), &mut output, &config).unwrap();
        assert_eq!(exit, ServiceExit::Aborted(2));
        let docs = responses(&output);
        assert_eq!(docs.len(), 2);
        assert!(docs[0].get("error").is_some());
        assert_eq!(docs[1].get("id").unwrap(), &Json::Num(2.0));
        let error = docs[1].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.contains("invalid graph spec: gnp found no connected sample"), "{error}");
    }

    #[test]
    fn raw_control_characters_are_bad_json_and_the_next_frame_is_served() {
        // JSON requires control characters escaped inside strings; a
        // spec written with a raw tab and newline was once run.
        let spec = quick_spec().to_spec_string().unwrap();
        let raw = format!("{{\"id\": 1, \"spec\": \"#\tcomment\n{}\"}}", spec.replace('\n', "\\n"));
        let mut input = Vec::new();
        write_frame(&mut input, raw.as_bytes()).unwrap();
        input.extend(request(2.0, &quick_spec()));
        let mut output = Vec::new();
        let exit =
            run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        assert_eq!(exit, ServiceExit::Eof(2));
        let docs = responses(&output);
        assert_eq!(docs[0].get("id").unwrap(), &Json::Null);
        let error = docs[0].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.starts_with("bad request JSON: raw control character in string"), "{error}");
        assert_eq!(docs[1].get("id").unwrap(), &Json::Num(2.0));
        assert!(docs[1].get("report").is_some(), "the next frame is served");
    }

    #[test]
    fn bad_topology_values_are_answered_in_band() {
        // Negative churn rates once reached the scheduler and panicked,
        // killing the serve loop: the third frame got no reply. A field
        // the model does not read was once ignored and the run served.
        let stats = Json::Obj(vec![
            ("id".to_owned(), Json::Num(1.0)),
            ("stats".to_owned(), Json::Bool(true)),
        ]);
        let markov = quick_spec()
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))))
            .to_spec_string()
            .unwrap();
        for (value, needle) in
            [("markov off=-1", "markov rates"), ("markov of=2 off=1", "unexpected field `of=2`")]
        {
            let bad = Json::Obj(vec![
                ("id".to_owned(), Json::Num(2.0)),
                ("spec".to_owned(), Json::Str(markov.replace("markov off=1", value))),
            ]);
            let mut input = Vec::new();
            for frame in [&stats, &bad, &stats] {
                write_frame(&mut input, frame.render().as_bytes()).unwrap();
            }
            let config =
                ServiceConfig { caches: Some(Arc::new(RunCaches::default())), exit_after: None };
            let mut output = Vec::new();
            let exit = run_frames(&mut input.as_slice(), &mut output, &config).unwrap();
            assert_eq!(exit, ServiceExit::Eof(3));
            let docs = responses(&output);
            assert_eq!(docs.len(), 3);
            let error = docs[1].get("error").and_then(Json::as_str).expect("in-band error");
            assert!(error.contains(needle), "{error}");
            assert!(docs[2].get("counters").is_some());
        }
    }

    #[test]
    fn a_graph_without_a_connected_sample_is_answered_in_band() {
        // A gnp graph with no connected sample within its attempts once
        // panicked in the generator, killing the serve loop.
        let stats = Json::Obj(vec![
            ("id".to_owned(), Json::Num(1.0)),
            ("stats".to_owned(), Json::Bool(true)),
        ]);
        let sparse = SimSpec::new(GraphSpec::Gnp { n: 64, p: 0.01, seed: 5, attempts: 1 });
        let mut input = Vec::new();
        write_frame(&mut input, stats.render().as_bytes()).unwrap();
        input.extend(request(2.0, &sparse));
        write_frame(&mut input, stats.render().as_bytes()).unwrap();
        let config =
            ServiceConfig { caches: Some(Arc::new(RunCaches::default())), exit_after: None };
        let mut output = Vec::new();
        let exit = run_frames(&mut input.as_slice(), &mut output, &config).unwrap();
        assert_eq!(exit, ServiceExit::Eof(3));
        let docs = responses(&output);
        assert_eq!(docs.len(), 3);
        let error = docs[1].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.contains("no connected sample within attempts=1"), "{error}");
        assert!(docs[2].get("counters").is_some());
    }

    #[test]
    fn a_sharded_engine_spec_is_answered_in_band() {
        // The sharded engine is gone: its spec line is an unknown
        // engine, answered in-band, never run on another engine.
        let stats = |id: f64| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(id)),
                ("stats".to_owned(), Json::Bool(true)),
            ])
        };
        let sharded = quick_spec()
            .to_spec_string()
            .unwrap()
            .replace("engine = sequential", "engine = sharded shards=2");
        let bad = Json::Obj(vec![
            ("id".to_owned(), Json::Num(2.0)),
            ("spec".to_owned(), Json::Str(sharded)),
        ]);
        let mut input = Vec::new();
        for frame in [&stats(1.0), &bad, &stats(3.0)] {
            write_frame(&mut input, frame.render().as_bytes()).unwrap();
        }
        let mut output = Vec::new();
        let exit =
            run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        assert_eq!(exit, ServiceExit::Eof(3));
        let docs = responses(&output);
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[1].get("id").unwrap(), &Json::Num(2.0));
        assert!(docs[1].get("report").is_none());
        let error = docs[1].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.contains("unknown engine `sharded`"), "{error}");
        assert!(docs[2].get("counters").is_some());
    }

    #[test]
    fn a_lazy_engine_spec_is_answered_in_band() {
        // The lazy engine is gone: an uncoupled `engine = lazy` line is
        // an error answered in-band, while on a coupled plan, where it
        // named the trace cursor, it runs exactly as `sequential`.
        let frame = |id: f64, text: String| {
            let doc = Json::Obj(vec![
                ("id".to_owned(), Json::Num(id)),
                ("spec".to_owned(), Json::Str(text)),
            ]);
            let mut buf = Vec::new();
            write_frame(&mut buf, doc.render().as_bytes()).unwrap();
            buf
        };
        let lazy = |spec: SimSpec| {
            spec.to_spec_string().unwrap().replace("engine = sequential", "engine = lazy")
        };
        let coupled = quick_spec().coupled(true);
        let mut input = frame(1.0, lazy(quick_spec()));
        input.extend(frame(2.0, lazy(coupled.clone())));
        input.extend(frame(3.0, coupled.to_spec_string().unwrap()));
        let mut output = Vec::new();
        let exit =
            run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        assert_eq!(exit, ServiceExit::Eof(3));
        let docs = responses(&output);
        assert!(docs[0].get("report").is_none());
        let error = docs[0].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.contains("lazy engine was removed"), "{error}");
        let report = |doc: &Json| doc.get("report").expect("a report").render();
        assert_eq!(report(&docs[1]), report(&docs[2]));
    }

    #[test]
    fn an_unparseable_spec_echoes_the_request_id() {
        let mut input = Vec::new();
        write_frame(&mut input, br#"{"id": 7, "spec": "garbage"}"#).unwrap();
        write_frame(&mut input, b"not json").unwrap();
        let mut output = Vec::new();
        run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        let docs = responses(&output);
        assert_eq!(docs[0].get("id").unwrap(), &Json::Num(7.0));
        let error = docs[0].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.starts_with("bad spec:"), "{error}");
        // Only a frame whose id cannot be read is answered with a null id.
        assert_eq!(docs[1].get("id").unwrap(), &Json::Null);
        assert!(docs[1].get("error").is_some());
    }

    #[test]
    fn a_deeply_nested_frame_is_answered_in_band() {
        // 200 KB of `[`: recursive descent without a depth limit would
        // overflow the stack and take every later request down with it.
        let stats = |id: f64| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(id)),
                ("stats".to_owned(), Json::Bool(true)),
            ])
            .render()
        };
        let mut input = Vec::new();
        write_frame(&mut input, stats(1.0).as_bytes()).unwrap();
        write_frame(&mut input, "[".repeat(200_000).as_bytes()).unwrap();
        write_frame(&mut input, stats(3.0).as_bytes()).unwrap();
        let mut output = Vec::new();
        let exit =
            run_frames(&mut input.as_slice(), &mut output, &ServiceConfig::default()).unwrap();
        assert_eq!(exit, ServiceExit::Eof(3));
        let docs = responses(&output);
        assert_eq!(docs.len(), 3);
        assert!(docs[0].get("counters").is_some());
        let error = docs[1].get("error").and_then(Json::as_str).expect("in-band error");
        assert!(error.contains("nesting deeper than"), "{error}");
        assert_eq!(docs[2].get("id").unwrap(), &Json::Num(3.0));
        assert!(docs[2].get("counters").is_some());
    }

    #[test]
    fn a_huge_coupled_horizon_is_answered_promptly() {
        // Traces are recorded only as far as the replays read, so a
        // horizon of 1e300 costs what `auto` costs. It once recorded a
        // trace that grew without bound, far past any request timeout.
        let auto = SimSpec::new(GraphSpec::Gnp { n: 32, p: 0.25, seed: 3, attempts: 200 })
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
                off_rate: 0.25,
                on_rate: 0.1,
            })))
            .coupled(true)
            .trials(4)
            .seed(17);
        let huge = auto.clone().horizon(1e300);
        let mut input = request(1.0, &huge);
        input.extend(request(2.0, &huge));
        let config =
            ServiceConfig { caches: Some(Arc::new(RunCaches::default())), exit_after: None };
        let started = std::time::Instant::now();
        let mut output = Vec::new();
        let exit = run_frames(&mut input.as_slice(), &mut output, &config).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(exit, ServiceExit::Eof(2));
        assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
        let docs = responses(&output);
        let rows = |doc: &Json| doc.get("report").unwrap().get("coupled").unwrap().clone();
        // No trial reaches the auto horizon, so the rows match it
        // (trace steps included), cold and from the cache.
        let auto_sim = auto.build().unwrap();
        let auto_report = auto_sim.run();
        let reach = |o: &rumor_core::spec::CoupledOutcome| o.async_time.max(o.sync_rounds);
        assert!(auto_report
            .coupled_outcomes()
            .unwrap()
            .iter()
            .all(|o| reach(o) < auto_sim.horizon()));
        let expected = report_to_json(&auto_report).get("coupled").unwrap().clone();
        assert_eq!(rows(&docs[0]), expected);
        assert_eq!(rows(&docs[1]), expected);
    }
}
