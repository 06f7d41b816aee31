//! Cross-run build caches for the long-running service path.
//!
//! A `rumor serve` process replays many specs that share expensive
//! intermediate products: generator-drawn base graphs (a connected
//! G(n, p) draw can redraw dozens of times) and topology recordings (a
//! coupled trial's dominant cost). [`RunCaches`] memoizes both across
//! requests, keyed by the **serialized form** of the producing spec
//! components — the same canonical text the `.spec` artifact records —
//! plus, for traces, the per-trial trace seed. Two requests that would
//! record the identical realization therefore share one recording.
//!
//! Cached recordings are resumable [`TraceRecording`]s: a request that
//! reads further than earlier ones grows the cached recording in place,
//! and a hit never copies the recorded steps.
//!
//! Caching is strictly transparent: a cached simulation produces the
//! same [`RunReport`](super::RunReport) payload as an uncached one (the
//! trial RNG is never consumed by a cache lookup), and only the
//! hit/miss counters — surfaced through
//! [`RunMetrics::counters`](crate::obs::RunMetrics) when metrics are
//! enabled — reveal the difference. Components with no serialized form
//! (provided graphs, edge-list files that may change on disk, recorded
//! topology traces) bypass the caches entirely.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rumor_graph::Graph;

use crate::engine::TraceRecording;

use super::{graph_to_text, topology_to_text, GraphSpec, SimSpec, SpecError};

/// Recordings retained at most; past this the cache stops inserting
/// (it never evicts, so hits stay deterministic).
const TRACE_CACHE_CAP: usize = 1024;

/// Shared caches for graph builds and recorded topology traces, with
/// hit/miss counters. Cheap to share via [`Arc`]; all methods take
/// `&self`.
#[derive(Debug, Default)]
pub struct RunCaches {
    graphs: Mutex<HashMap<String, Graph>>,
    traces: Mutex<HashMap<(String, u64), TraceRecording>>,
    graph_hits: AtomicU64,
    graph_misses: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
}

impl RunCaches {
    /// Fresh, empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the hit/miss counters, in a fixed order (the order
    /// they appear in metrics artifacts).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("graph_cache_hits".to_owned(), load(&self.graph_hits)),
            ("graph_cache_misses".to_owned(), load(&self.graph_misses)),
            ("trace_cache_hits".to_owned(), load(&self.trace_hits)),
            ("trace_cache_misses".to_owned(), load(&self.trace_misses)),
        ]
    }

    /// Resolves a graph spec through the cache. Provided graphs and
    /// edge-list files (whose contents are not pinned by their key) are
    /// resolved directly and never cached.
    pub(crate) fn resolve_graph(&self, spec: &GraphSpec) -> Result<Graph, SpecError> {
        let key = match spec {
            GraphSpec::Provided(_) | GraphSpec::File(_) => return spec.resolve(),
            other => graph_to_text(other)?,
        };
        if let Some(g) = self.graphs.lock().expect("graph cache lock").get(&key) {
            self.graph_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(g.clone());
        }
        self.graph_misses.fetch_add(1, Ordering::Relaxed);
        let g = spec.resolve()?;
        self.graphs.lock().expect("graph cache lock").entry(key).or_insert_with(|| g.clone());
        Ok(g)
    }

    /// Runs `replay` on the cached recording for `(prefix,
    /// trace_seed)`, or on a fresh one from `start`, and caches it
    /// afterwards with whatever `replay` recorded. The entry is taken
    /// out of the map while `replay` runs, so the lock is not held and
    /// parallel trial fan-out is not serialized. Two threads racing on
    /// one key each get a valid recording (every recording of a key is
    /// a prefix of the same realization); the longer one is kept.
    pub(crate) fn with_trace<R>(
        &self,
        prefix: &str,
        trace_seed: u64,
        start: impl FnOnce() -> TraceRecording,
        replay: impl FnOnce(&mut TraceRecording) -> R,
    ) -> R {
        let key = (prefix.to_owned(), trace_seed);
        let cached = self.traces.lock().expect("trace cache lock").remove(&key);
        let mut rec = match cached {
            Some(rec) => {
                self.trace_hits.fetch_add(1, Ordering::Relaxed);
                rec
            }
            None => {
                self.trace_misses.fetch_add(1, Ordering::Relaxed);
                start()
            }
        };
        let out = replay(&mut rec);
        let mut map = self.traces.lock().expect("trace cache lock");
        let full = map.len() >= TRACE_CACHE_CAP;
        match map.entry(key) {
            Entry::Occupied(mut e) => {
                if rec.frontier() > e.get().frontier() {
                    e.insert(rec);
                }
            }
            Entry::Vacant(e) => {
                if !full {
                    e.insert(rec);
                }
            }
        }
        out
    }
}

/// A simulation's handle on shared caches: the caches plus the
/// precomputed trace-cache key prefix (everything that pins a coupled
/// recording except the per-trial seed).
#[derive(Debug, Clone)]
pub(crate) struct CacheBinding {
    pub(crate) caches: Arc<RunCaches>,
    trace_prefix: Option<String>,
    /// Counter snapshot taken before the build touched the caches:
    /// the baseline for the "this simulation's cache activity" deltas
    /// reported through the metrics.
    pub(crate) baseline: Vec<(String, u64)>,
}

impl CacheBinding {
    /// Binds `spec` (with its resolved coupled horizon) to the caches.
    /// The trace prefix is `None` — disabling the trace cache, not the
    /// graph cache — when the run is uncoupled or its graph has no
    /// serialized form.
    pub(crate) fn bind(
        caches: &Arc<RunCaches>,
        baseline: Vec<(String, u64)>,
        spec: &SimSpec,
        horizon: f64,
    ) -> Self {
        let key = |g: String| {
            let t = topology_to_text(&spec.topology);
            format!("{g}|{t}|src={}|h={:016x}", spec.source, horizon.to_bits())
        };
        let trace_prefix =
            if spec.plan.coupled { graph_to_text(&spec.graph).ok().map(key) } else { None };
        Self { caches: Arc::clone(caches), trace_prefix, baseline }
    }

    /// The `(caches, prefix)` pair when trace caching applies.
    pub(crate) fn trace_key(&self) -> Option<(&RunCaches, &str)> {
        self.trace_prefix.as_deref().map(|p| (&*self.caches, p))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Protocol, SimSpec, Topology};
    use super::*;

    fn coupled_spec(seed: u64) -> SimSpec {
        SimSpec::new(GraphSpec::Gnp { n: 24, p: 0.2, seed: 9, attempts: 200 })
            .protocol(Protocol::push_pull_async())
            .trials(6)
            .seed(seed)
            .coupled(true)
    }

    #[test]
    fn cached_runs_match_uncached_and_count_hits() {
        let caches = Arc::new(RunCaches::new());
        let spec = coupled_spec(31);
        let plain = spec.build().unwrap().run();
        let first = spec.build_cached(&caches).unwrap().run();
        let second = spec.build_cached(&caches).unwrap().run();
        assert_eq!(plain, first);
        assert_eq!(plain, second);
        let counters: std::collections::HashMap<String, u64> =
            caches.counters().into_iter().collect();
        // Two builds: one graph miss, then one hit.
        assert_eq!(counters["graph_cache_misses"], 1);
        assert_eq!(counters["graph_cache_hits"], 1);
        // Six traces recorded once, replayed once.
        assert_eq!(counters["trace_cache_misses"], 6);
        assert_eq!(counters["trace_cache_hits"], 6);
    }

    #[test]
    fn distinct_seeds_do_not_share_traces() {
        let caches = Arc::new(RunCaches::new());
        let a = coupled_spec(1).build_cached(&caches).unwrap().run();
        let b = coupled_spec(2).build_cached(&caches).unwrap().run();
        assert_ne!(a.coupled, b.coupled);
        let counters: std::collections::HashMap<String, u64> =
            caches.counters().into_iter().collect();
        assert_eq!(counters["trace_cache_hits"], 0);
        assert_eq!(counters["trace_cache_misses"], 12);
    }

    #[test]
    fn counters_reach_metrics_when_enabled() {
        use crate::obs::MetricsLevel;
        let caches = Arc::new(RunCaches::new());
        let spec = coupled_spec(5).metrics(MetricsLevel::Json);
        let _warm = spec.build_cached(&caches).unwrap().run();
        let report = spec.build_cached(&caches).unwrap().run();
        let m = report.metrics.expect("metrics enabled");
        let counters: std::collections::HashMap<String, u64> = m.counters.into_iter().collect();
        // This run's delta: everything hits.
        assert_eq!(counters["trace_cache_hits"], 6);
        assert_eq!(counters["trace_cache_misses"], 0);
        assert_eq!(counters["graph_cache_hits"], 1);
        // An uncached run reports no counters at all.
        let plain = spec.build().unwrap().run();
        assert!(plain.metrics.expect("metrics enabled").counters.is_empty());
    }

    #[test]
    fn cached_recordings_grow_for_longer_readers() {
        use crate::asynchronous::AsyncView;
        use crate::dynamic::{DynamicModel, EdgeMarkov};
        use crate::mode::Mode;
        // Same graph, topology, source, horizon and seed: one trace key
        // per trial. Pull spreads slower than push-pull and antithetic
        // trials replay twice, so the three read different lengths.
        let base =
            coupled_spec(44).topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
                off_rate: 0.5,
                on_rate: 0.5,
            })));
        let pull = base
            .clone()
            .protocol(Protocol::Async { mode: Mode::Pull, view: AsyncView::GlobalClock });
        let anti = base.clone().antithetic(true);
        let specs = [base, pull, anti];
        let plain: Vec<_> = specs.iter().map(|s| s.build().unwrap().run()).collect();
        let steps = |i: usize| plain[i].telemetry.trace_steps;
        assert!(
            steps(1) > steps(0) && steps(2) >= steps(0),
            "{}, {}, {}",
            steps(0),
            steps(1),
            steps(2)
        );
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let caches = Arc::new(RunCaches::new());
            for &i in &order {
                let cached = specs[i].build_cached(&caches).unwrap().run();
                assert_eq!(cached, plain[i], "spec {i} in order {order:?}");
            }
            let counters: std::collections::HashMap<String, u64> =
                caches.counters().into_iter().collect();
            // Six trace keys: recorded by the first spec, resumed (and
            // grown where needed) by the other two.
            assert_eq!(counters["trace_cache_misses"], 6, "{order:?}");
            assert_eq!(counters["trace_cache_hits"], 12, "{order:?}");
        }
    }
}
