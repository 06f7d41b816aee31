//! The per-run metrics bundle: distributional histograms, aggregated
//! spreading curves, and engine-health diagnostics, with a
//! byte-deterministic `.metrics.json` rendering.
//!
//! The JSON artifact contains **only engine-invariant payload** —
//! spreading-time/step/topology histograms and mean spreading curves,
//! all derived from per-trial outcomes in trial order — so two engines
//! that replay each other seed for seed produce byte-identical
//! artifacts (the static engine and the model engine over the no-op
//! model, pinned in `tests/obs_metrics.rs`). Engine-health readings
//! (censor ring dumps) are inherently engine-shaped and appear only in
//! the summary rendering.

use super::curve::CurveSummary;
use super::histogram::LogHistogram;
use super::json::Json;
use super::probe::ProbeEvent;

/// Schema tag written into every artifact.
pub const METRICS_SCHEMA: &str = "rumor-metrics v1";

/// The last engine events before a censored trial gave up — the ring
/// probe's dump, for debugging nondeterminism and stuck runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorDump {
    /// Trial index within the run.
    pub trial: u64,
    /// Retained `(time, event)` pairs, oldest first.
    pub events: Vec<(f64, ProbeEvent)>,
}

/// Engine-health diagnostics: meaningful per engine, excluded from the
/// deterministic artifact (see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineHealth {
    /// Ring dumps of the first censored trials (uncoupled dynamic and
    /// trace runs; bounded).
    pub censor_dumps: Vec<CensorDump>,
}

/// Metrics for one run: named histograms and curves (in deterministic
/// insertion order) plus engine health.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Unit of the run's value column (`rounds`, `time units`,
    /// `paired`).
    pub unit: String,
    /// Total trials.
    pub trials: u64,
    /// Censored trials.
    pub censored: u64,
    /// Named histograms, artifact-ordered.
    pub histograms: Vec<(String, LogHistogram)>,
    /// Named aggregated spreading curves, artifact-ordered.
    pub curves: Vec<(String, CurveSummary)>,
    /// Named monotone counters (cache hits/misses from cache-bound
    /// runs). Rendered into the artifact only when non-empty, so
    /// cache-free runs keep their pre-existing byte-identical form.
    pub counters: Vec<(String, u64)>,
    /// Engine-health diagnostics (summary display only).
    pub health: EngineHealth,
}

impl RunMetrics {
    /// An empty bundle for a run measured in `unit`.
    pub fn new(unit: impl Into<String>) -> Self {
        Self {
            unit: unit.into(),
            trials: 0,
            censored: 0,
            histograms: Vec::new(),
            curves: Vec::new(),
            counters: Vec::new(),
            health: EngineHealth::default(),
        }
    }

    /// Appends a named histogram (artifact order = call order).
    pub fn push_histogram(&mut self, name: impl Into<String>, h: LogHistogram) {
        self.histograms.push((name.into(), h));
    }

    /// Appends a named curve summary (artifact order = call order).
    pub fn push_curve(&mut self, name: impl Into<String>, c: CurveSummary) {
        self.curves.push((name.into(), c));
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Looks up a curve summary by name.
    pub fn curve(&self, name: &str) -> Option<&CurveSummary> {
        self.curves.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// The deterministic artifact document (engine-invariant payload
    /// only; see the module docs).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_owned(), Json::Str(METRICS_SCHEMA.to_owned())),
            ("unit".to_owned(), Json::Str(self.unit.clone())),
            ("trials".to_owned(), Json::Num(self.trials as f64)),
            ("censored".to_owned(), Json::Num(self.censored as f64)),
        ];
        let hists: Vec<(String, Json)> =
            self.histograms.iter().map(|(n, h)| (n.clone(), histogram_json(h))).collect();
        fields.push(("histograms".to_owned(), Json::Obj(hists)));
        let curves: Vec<(String, Json)> =
            self.curves.iter().map(|(n, c)| (n.clone(), curve_json(c))).collect();
        fields.push(("curves".to_owned(), Json::Obj(curves)));
        if !self.counters.is_empty() {
            let counters: Vec<(String, Json)> =
                self.counters.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect();
            fields.push(("counters".to_owned(), Json::Obj(counters)));
        }
        Json::Obj(fields)
    }

    /// The rendered `.metrics.json` artifact text.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// Human-readable summary lines (the `--metrics summary` view),
    /// including the engine-health diagnostics the artifact omits.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "metrics: {} trials, {} censored ({})",
            self.trials, self.censored, self.unit
        )];
        for (name, h) in &self.histograms {
            out.push(format!("  {name}: {}", histogram_line(h)));
        }
        for (name, c) in &self.curves {
            let ph = c.phases();
            let fmt_t = |t: Option<f64>| t.map_or("-".to_owned(), |t| format!("{t:.3}"));
            let end = c.points.last().map_or(0.0, |&(t, _)| t);
            out.push(format!(
                "  curve {name}: 10% at {}, 90% at {}, grid end {end:.3} ({} pts)",
                fmt_t(ph.startup_end),
                fmt_t(ph.saturation_start),
                c.points.len()
            ));
        }
        if !self.counters.is_empty() {
            let rendered: Vec<String> =
                self.counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
            out.push(format!("  counters: {}", rendered.join(", ")));
        }
        for dump in &self.health.censor_dumps {
            let tail: Vec<String> = dump
                .events
                .iter()
                .rev()
                .take(5)
                .rev()
                .map(|(t, e)| format!("{e:?}@{t:.3}"))
                .collect();
            out.push(format!("  censored trial {}: last events [{}]", dump.trial, tail.join(", ")));
        }
        out
    }
}

fn histogram_line(h: &LogHistogram) -> String {
    match (h.mean(), h.quantile(0.5), h.max()) {
        (Some(mean), Some(p50), Some(max)) => {
            format!("mean {mean:.3}, p50 {p50:.3}, max {max:.3} (n={})", h.count())
        }
        _ => "empty".to_owned(),
    }
}

fn histogram_json(h: &LogHistogram) -> Json {
    let mut fields = vec![("count".to_owned(), Json::Num(h.count() as f64))];
    if let (Some(min), Some(max), Some(mean)) = (h.min(), h.max(), h.mean()) {
        fields.push(("sum".to_owned(), Json::Num(h.sum())));
        fields.push(("mean".to_owned(), Json::Num(mean)));
        fields.push(("min".to_owned(), Json::Num(min)));
        fields.push(("max".to_owned(), Json::Num(max)));
        for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            let v = h.quantile(q).expect("non-empty histogram has quantiles");
            fields.push((tag.to_owned(), Json::Num(v)));
        }
    }
    let buckets: Vec<Json> = h
        .buckets()
        .iter()
        .map(|b| Json::Arr(vec![Json::Num(b.lower), Json::Num(b.upper), Json::Num(b.count as f64)]))
        .collect();
    fields.push(("buckets".to_owned(), Json::Arr(buckets)));
    Json::Obj(fields)
}

fn curve_json(c: &CurveSummary) -> Json {
    let ph = c.phases();
    let opt = |t: Option<f64>| t.map_or(Json::Null, Json::Num);
    let points: Vec<Json> =
        c.points.iter().map(|&(t, f)| Json::Arr(vec![Json::Num(t), Json::Num(f)])).collect();
    Json::Obj(vec![
        ("n".to_owned(), Json::Num(c.n as f64)),
        ("trials".to_owned(), Json::Num(c.trials as f64)),
        ("startup_end".to_owned(), opt(ph.startup_end)),
        ("saturation_start".to_owned(), opt(ph.saturation_start)),
        ("points".to_owned(), Json::Arr(points)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::curve::SpreadingCurve;

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics::new("time units");
        m.trials = 3;
        m.censored = 1;
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0] {
            h.record(v);
        }
        m.push_histogram("spreading_time", h);
        m.push_histogram("steps", LogHistogram::new());
        let c = SpreadingCurve::from_informed_times(&[0.0, 1.0, 2.0, 3.0]);
        m.push_curve("informed", CurveSummary::aggregate(&[c], 3));
        m
    }

    #[test]
    fn artifact_renders_and_round_trips() {
        let m = sample_metrics();
        let text = m.render_json();
        let doc = Json::parse(&text).expect("artifact parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(METRICS_SCHEMA));
        assert_eq!(doc.get("trials").and_then(Json::as_num), Some(3.0));
        let hists = doc.get("histograms").expect("histograms present");
        assert_eq!(
            hists.get("spreading_time").and_then(|h| h.get("count")).and_then(Json::as_num),
            Some(2.0)
        );
        // Empty histograms carry a bare count and no stats.
        assert_eq!(hists.get("steps").and_then(|h| h.get("mean")), None);
        let curve = doc.get("curves").and_then(|c| c.get("informed")).expect("curve present");
        assert_eq!(curve.get("n").and_then(Json::as_num), Some(4.0));
        assert_eq!(curve.get("points").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        // Rendering is deterministic.
        assert_eq!(text, sample_metrics().render_json());
    }

    #[test]
    fn summary_lines_cover_health_diagnostics() {
        let mut m = sample_metrics();
        m.health.censor_dumps.push(CensorDump {
            trial: 2,
            events: vec![(0.5, ProbeEvent::Tick), (0.6, ProbeEvent::Topology)],
        });
        let lines = m.summary_lines();
        assert!(lines[0].contains("3 trials, 1 censored"));
        assert!(lines.iter().any(|l| l.contains("spreading_time: mean 1.500")));
        assert!(lines.iter().any(|l| l.contains("steps: empty")));
        assert!(lines.iter().any(|l| l.contains("censored trial 2")));
        // Health never leaks into the artifact.
        let doc = Json::parse(&m.render_json()).unwrap();
        assert_eq!(doc.get("health"), None);
        assert_eq!(doc.as_obj().map(<[(String, Json)]>::len), Some(6));
    }

    #[test]
    fn counters_render_only_when_present() {
        let mut m = sample_metrics();
        // Counter-free artifacts keep the historical 6-field form.
        assert_eq!(Json::parse(&m.render_json()).unwrap().get("counters"), None);
        m.counters = vec![("trace_cache_hits".to_owned(), 3), ("trace_cache_misses".to_owned(), 1)];
        let doc = Json::parse(&m.render_json()).unwrap();
        let counters = doc.get("counters").expect("counters rendered");
        assert_eq!(counters.get("trace_cache_hits").and_then(Json::as_num), Some(3.0));
        assert_eq!(doc.as_obj().map(<[(String, Json)]>::len), Some(7));
        assert!(m.summary_lines().iter().any(|l| l.contains("trace_cache_hits=3")));
    }
}
