//! Sweep execution: expand, optionally pilot-tune, run the work-list
//! (in-process or across worker processes), merge into one
//! `FleetReport`.
//!
//! The dispatcher's one invariant is that the merged artifact is
//! byte-identical however the work-list was scheduled. Everything that
//! could leak scheduling — which worker ran which child, retry counts,
//! queue order — lives in [`FleetOutcome`] beside the document, never
//! inside it, and results are slotted by child index regardless of
//! completion order. Workers run their specs uncached for the same
//! reason: cache hit counters would differ between worker counts.

use std::collections::VecDeque;
use std::io::BufReader;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rumor_core::obs::json::Json;
use rumor_core::spec::{SpecError, Telemetry, Unit};
use rumor_core::{SweepChild, SweepSpec};

use crate::frame::{read_frame, write_frame};
use crate::report::{
    report_counts, report_to_json, telemetry_from_json, telemetry_json, FLEET_SCHEMA,
};

/// How [`dispatch`] executes a sweep.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Worker process count; `0` or `1` runs the work-list in-process.
    pub workers: usize,
    /// Command line of one worker process; empty means
    /// `[current_exe, "worker"]` (the self-exec default of `rumor
    /// sweep`). Tests substitute `rumor worker --exit-after n` here to
    /// inject crashes.
    pub worker_cmd: Vec<String>,
    /// Run an in-process pilot pass first, shrinking `auto` step and
    /// round budgets toward what the pilot trials actually needed.
    pub pilot: bool,
    /// Trials per child in the pilot pass (capped by the child's own
    /// trial count).
    pub pilot_trials: usize,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions { workers: 0, worker_cmd: Vec::new(), pilot: false, pilot_trials: 4 }
    }
}

/// What went wrong while dispatching.
#[derive(Debug)]
pub enum FleetError {
    /// The sweep failed to expand or a tuned child failed to
    /// re-validate.
    Spec(SpecError),
    /// A transport problem: spawning workers, broken pipes, malformed
    /// frames.
    Io(String),
    /// A worker rejected a spec, or crashed twice on the same child.
    Worker(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Spec(e) => write!(f, "{e}"),
            FleetError::Io(m) => write!(f, "dispatch i/o: {m}"),
            FleetError::Worker(m) => write!(f, "worker: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SpecError> for FleetError {
    fn from(e: SpecError) -> Self {
        FleetError::Spec(e)
    }
}

/// A finished dispatch: the artifact plus the scheduling facts that
/// deliberately stay out of it.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged `FleetReport` document (render it to get the
    /// artifact bytes).
    pub doc: Json,
    /// How many children each worker slot completed (one entry per
    /// slot; `[n]` for the in-process path).
    pub jobs_per_worker: Vec<usize>,
    /// How many crashed-worker retries were needed.
    pub retries: usize,
}

/// Expands `sweep`, executes every child, and merges the reports.
///
/// Children execute in any order but the document lists them in
/// expansion order with each child's exact spec text, so the artifact
/// is a function of the sweep alone.
///
/// # Errors
///
/// [`FleetError::Spec`] if expansion or pilot re-validation fails,
/// [`FleetError::Io`] on transport problems, [`FleetError::Worker`] if
/// a worker rejects a spec or crashes twice on the same child.
pub fn dispatch(sweep: &SweepSpec, options: &DispatchOptions) -> Result<FleetOutcome, FleetError> {
    let mut children = sweep.expand()?;
    if options.pilot {
        pilot_tune(&mut children, options.pilot_trials)?;
    }
    let (reports, jobs_per_worker, retries) = if options.workers <= 1 {
        let reports = children
            .iter()
            .map(|c| Ok(report_to_json(&c.spec.build()?.run())))
            .collect::<Result<Vec<_>, SpecError>>()?;
        let jobs = vec![children.len()];
        (reports, jobs, 0)
    } else {
        execute_processes(&children, options)?
    };
    let doc = fleet_doc(sweep, &children, reports)?;
    Ok(FleetOutcome { doc, jobs_per_worker, retries })
}

// ---------------------------------------------------------------------------
// Pilot tuning
// ---------------------------------------------------------------------------

/// Runs a few in-process trials of every child that still has `auto`
/// budgets and shrinks those budgets toward the observed need (with a
/// generous safety factor), so full worker runs don't carry
/// worst-case defaults. Children whose pilot censored are left alone —
/// a tight budget derived from a censored pilot would censor the real
/// run too.
///
/// A coupled child's `auto` horizon is never tuned: traces are recorded
/// only as far as the replays read, so a larger horizon costs nothing,
/// and a tighter one would cut the sync half's topology short.
fn pilot_tune(children: &mut [SweepChild], pilot_trials: usize) -> Result<(), FleetError> {
    for child in children {
        let plan = &child.spec.plan;
        if plan.max_steps.is_some() && plan.max_rounds.is_some() {
            continue;
        }
        let defaults = child.spec.build()?;
        let trials = pilot_trials.clamp(1, plan.trials);
        let pilot = child.spec.clone().trials(trials).threads(1).build()?.run();
        if pilot.censored() > 0 {
            eprintln!("pilot censored for [{}]; keeping default budgets", child.point);
            continue;
        }
        let mut tuned = child.spec.clone();
        if let Some(coupled) = &pilot.coupled {
            let max_rounds = coupled.iter().map(|o| o.sync_rounds).fold(0.0, f64::max);
            let max_time = coupled.iter().map(|o| o.async_time).fold(0.0, f64::max);
            // The global clock ticks n times per time unit, so protocol
            // steps are about the async time × n.
            let n = defaults.graph().node_count() as f64;
            let max_steps = (max_time * n).ceil() as u64;
            if tuned.plan.max_rounds.is_none() && max_rounds > 0.0 {
                tuned = tuned.max_rounds(((max_rounds as u64 + 1) * 4).min(defaults.max_rounds()));
            }
            if tuned.plan.max_steps.is_none() && max_steps > 0 {
                tuned = tuned.max_steps((max_steps * 4).max(1).min(defaults.max_steps()));
            }
        } else {
            let max_steps = pilot.outcomes.iter().map(|o| o.steps).max().unwrap_or(0);
            if tuned.plan.max_steps.is_none() && max_steps > 0 {
                tuned = tuned.max_steps((max_steps * 4).max(1).min(defaults.max_steps()));
            }
            if tuned.plan.max_rounds.is_none() && pilot.unit == Unit::Rounds {
                let rounds = pilot.outcomes.iter().map(|o| o.value).fold(0.0, f64::max);
                if rounds > 0.0 {
                    tuned = tuned.max_rounds(((rounds as u64 + 1) * 4).min(defaults.max_rounds()));
                }
            }
        }
        // Re-validate and refresh the canonical text; the artifact
        // records exactly what the workers ran.
        tuned.build()?;
        child.text = tuned.to_spec_string()?;
        child.spec = tuned;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Multi-process execution
// ---------------------------------------------------------------------------

struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker, FleetError> {
        let mut child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| FleetError::Io(format!("spawning `{}`: {e}", cmd[0])))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Worker { child, stdin, stdout })
    }

    fn shutdown(mut self) {
        drop(self.stdin);
        let _ = self.child.wait();
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

enum JobFailure {
    /// The worker died or the pipe broke — retryable once.
    Transport(String),
    /// The worker answered with an error — the spec is at fault, no
    /// retry.
    Rejected(String),
}

fn run_job(worker: &mut Worker, child: &SweepChild) -> Result<Json, JobFailure> {
    let request = Json::Obj(vec![
        ("id".to_owned(), Json::Num(child.index as f64)),
        ("spec".to_owned(), Json::Str(child.text.clone())),
    ]);
    write_frame(&mut worker.stdin, request.render().as_bytes())
        .map_err(|e| JobFailure::Transport(format!("request write failed: {e}")))?;
    let payload = read_frame(&mut worker.stdout)
        .map_err(|e| JobFailure::Transport(format!("response read failed: {e}")))?
        .ok_or_else(|| JobFailure::Transport("worker exited before responding".to_owned()))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| JobFailure::Transport("response is not UTF-8".to_owned()))?;
    let mut doc =
        Json::parse(text).map_err(|e| JobFailure::Transport(format!("bad response JSON: {e}")))?;
    if doc.get("id").and_then(Json::as_num) != Some(child.index as f64) {
        return Err(JobFailure::Transport("response id does not match request".to_owned()));
    }
    if let Some(message) = doc.get("error").and_then(Json::as_str) {
        return Err(JobFailure::Rejected(format!("[{}]: {message}", child.point)));
    }
    doc.remove("report")
        .ok_or_else(|| JobFailure::Transport("response has neither report nor error".to_owned()))
}

#[allow(clippy::type_complexity)]
fn execute_processes(
    children: &[SweepChild],
    options: &DispatchOptions,
) -> Result<(Vec<Json>, Vec<usize>, usize), FleetError> {
    let cmd = if options.worker_cmd.is_empty() {
        let exe = std::env::current_exe()
            .map_err(|e| FleetError::Io(format!("locating own executable: {e}")))?;
        vec![exe.to_string_lossy().into_owned(), "worker".to_owned()]
    } else {
        options.worker_cmd.clone()
    };
    let slots = options.workers.min(children.len()).max(1);
    let queue: Mutex<VecDeque<usize>> = Mutex::new(children.iter().map(|c| c.index).collect());
    let results: Mutex<Vec<Option<Json>>> = Mutex::new(vec![None; children.len()]);
    let jobs_done: Vec<AtomicUsize> = (0..slots).map(|_| AtomicUsize::new(0)).collect();
    let retries = AtomicUsize::new(0);
    let fatal: Mutex<Option<FleetError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for slot in 0..slots {
            let cmd = &cmd;
            let queue = &queue;
            let results = &results;
            let jobs_done = &jobs_done;
            let retries = &retries;
            let fatal = &fatal;
            scope.spawn(move || {
                let mut worker: Option<Worker> = None;
                'jobs: loop {
                    if fatal.lock().unwrap().is_some() {
                        break;
                    }
                    let Some(index) = queue.lock().unwrap().pop_front() else { break };
                    let child = &children[index];
                    // First attempt on the slot's current worker, and
                    // after a crash exactly one more on a fresh spawn —
                    // a retried child never lands on a worker with
                    // history, so only a genuinely poisonous child can
                    // fail twice.
                    for attempt in 0..2 {
                        let mut w =
                            match worker.take().map(Ok).unwrap_or_else(|| Worker::spawn(cmd)) {
                                Ok(w) => w,
                                Err(e) => {
                                    *fatal.lock().unwrap() = Some(e);
                                    break 'jobs;
                                }
                            };
                        match run_job(&mut w, child) {
                            Ok(report) => {
                                results.lock().unwrap()[index] = Some(report);
                                jobs_done[slot].fetch_add(1, Ordering::Relaxed);
                                worker = Some(w);
                                continue 'jobs;
                            }
                            Err(JobFailure::Transport(message)) => {
                                w.kill();
                                if attempt == 0 {
                                    eprintln!(
                                        "worker crashed on [{}] ({message}); retrying on a \
                                         fresh worker",
                                        child.point
                                    );
                                    retries.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    *fatal.lock().unwrap() = Some(FleetError::Worker(format!(
                                        "[{}] failed twice: {message}",
                                        child.point
                                    )));
                                    break 'jobs;
                                }
                            }
                            Err(JobFailure::Rejected(message)) => {
                                w.kill();
                                *fatal.lock().unwrap() = Some(FleetError::Worker(message));
                                break 'jobs;
                            }
                        }
                    }
                }
                if let Some(w) = worker {
                    w.shutdown();
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner().unwrap() {
        return Err(e);
    }
    let results = results.into_inner().unwrap();
    let reports = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| FleetError::Io(format!("child {i} never completed"))))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = jobs_done.iter().map(|j| j.load(Ordering::Relaxed)).collect();
    Ok((reports, jobs, retries.into_inner()))
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

fn fleet_doc(
    sweep: &SweepSpec,
    children: &[SweepChild],
    reports: Vec<Json>,
) -> Result<Json, FleetError> {
    let mut telemetry = Telemetry::default();
    let mut trials = 0u64;
    let mut censored = 0u64;
    let mut child_docs = Vec::with_capacity(children.len());
    for (child, report) in children.iter().zip(reports) {
        let t = report
            .get("telemetry")
            .ok_or_else(|| FleetError::Io("child report has no telemetry".to_owned()))
            .and_then(|t| telemetry_from_json(t).map_err(FleetError::Io))?;
        telemetry.merge(&t);
        let (tr, ce) = report_counts(&report).map_err(FleetError::Io)?;
        trials += tr;
        censored += ce;
        child_docs.push(Json::Obj(vec![
            ("point".to_owned(), Json::Str(child.point.clone())),
            ("spec".to_owned(), Json::Str(child.text.clone())),
            ("report".to_owned(), report),
        ]));
    }
    Ok(Json::Obj(vec![
        ("schema".to_owned(), Json::Str(FLEET_SCHEMA.to_owned())),
        ("sweep".to_owned(), Json::Str(sweep.to_spec_string()?)),
        ("children".to_owned(), Json::Arr(child_docs)),
        ("telemetry".to_owned(), telemetry_json(&telemetry)),
        (
            "summary".to_owned(),
            Json::Obj(vec![
                ("children".to_owned(), Json::Num(children.len() as f64)),
                ("trials".to_owned(), Json::Num(trials as f64)),
                ("censored".to_owned(), Json::Num(censored as f64)),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
    use rumor_core::spec::{GraphSpec, Protocol, SimSpec, Topology};

    fn quick_sweep() -> SweepSpec {
        let base = SimSpec::new(GraphSpec::Complete { n: 8 })
            .protocol(Protocol::push_pull_async())
            .trials(3)
            .seed(11);
        SweepSpec::new(base)
            .axis("graph.n", ["8", "12"])
            .unwrap()
            .axis("trials", ["2", "3"])
            .unwrap()
    }

    #[test]
    fn local_dispatch_merges_in_expansion_order() {
        let outcome = dispatch(&quick_sweep(), &DispatchOptions::default()).unwrap();
        let children = outcome.doc.get("children").unwrap().as_arr().unwrap();
        assert_eq!(children.len(), 4);
        let points: Vec<_> =
            children.iter().map(|c| c.get("point").unwrap().as_str().unwrap().to_owned()).collect();
        assert_eq!(
            points,
            [
                "graph.n=8 trials=2",
                "graph.n=8 trials=3",
                "graph.n=12 trials=2",
                "graph.n=12 trials=3"
            ]
        );
        let summary = outcome.doc.get("summary").unwrap();
        assert_eq!(summary.get("trials").unwrap(), &Json::Num(10.0));
        assert_eq!(outcome.jobs_per_worker, vec![4]);
        assert_eq!(outcome.retries, 0);
        // The artifact replays: render ∘ parse ∘ render is stable.
        let text = outcome.doc.render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn merged_telemetry_is_the_sum_of_children() {
        let outcome = dispatch(&quick_sweep(), &DispatchOptions::default()).unwrap();
        let children = outcome.doc.get("children").unwrap().as_arr().unwrap();
        let mut expect = Telemetry::default();
        for c in children {
            expect.merge(
                &telemetry_from_json(c.get("report").unwrap().get("telemetry").unwrap()).unwrap(),
            );
        }
        let merged = telemetry_from_json(outcome.doc.get("telemetry").unwrap()).unwrap();
        assert_eq!(merged, expect);
    }

    #[test]
    fn pilot_shrinks_auto_budgets_without_changing_results() {
        let sweep = quick_sweep();
        let plain = dispatch(&sweep, &DispatchOptions::default()).unwrap();
        let piloted =
            dispatch(&sweep, &DispatchOptions { pilot: true, ..DispatchOptions::default() })
                .unwrap();
        // Budgets only move when a run would otherwise censor; on this
        // quick grid every trial completes, so outcome values agree.
        let value = |doc: &Json| {
            doc.get("children").unwrap().as_arr().unwrap()[0]
                .get("report")
                .unwrap()
                .get("outcomes")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("value")
                .unwrap()
                .as_num()
                .unwrap()
        };
        assert_eq!(value(&plain.doc), value(&piloted.doc));
        // The piloted artifact records the tuned spec text.
        let spec_text = piloted.doc.get("children").unwrap().as_arr().unwrap()[0]
            .get("spec")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert!(spec_text.contains("max_steps = "), "tuned text: {spec_text}");
        assert!(!spec_text.contains("max_steps = auto"), "tuned text: {spec_text}");
    }

    #[test]
    fn pilot_leaves_coupled_rows_unchanged() {
        let base = SimSpec::new(GraphSpec::Gnp { n: 24, p: 0.3, seed: 5, attempts: 200 })
            .protocol(Protocol::push_pull_async())
            // Slow churn: far fewer topology changes than protocol
            // ticks, so a step budget counted in trace steps censors.
            .topology(Topology::Model(DynamicModel::EdgeMarkov(EdgeMarkov {
                off_rate: 0.02,
                on_rate: 0.08,
            })))
            .coupled(true)
            .trials(6)
            .seed(21);
        let sweep = SweepSpec::new(base)
            .axis("graph.n", ["16", "24"])
            .unwrap()
            .axis("antithetic", ["false", "true"])
            .unwrap();
        let plain = dispatch(&sweep, &DispatchOptions::default()).unwrap();
        let piloted =
            dispatch(&sweep, &DispatchOptions { pilot: true, ..DispatchOptions::default() })
                .unwrap();
        let children = |doc: &Json| doc.get("children").unwrap().as_arr().unwrap().to_vec();
        let (plain, piloted) = (children(&plain.doc), children(&piloted.doc));
        assert_eq!(plain.len(), 4);
        for (a, b) in plain.iter().zip(&piloted) {
            let rows = |c: &Json| c.get("report").unwrap().get("coupled").unwrap().clone();
            assert_eq!(rows(a), rows(b), "{:?}", a.get("point"));
            // Budgets were tuned; the horizon stays `auto`.
            let text = b.get("spec").unwrap().as_str().unwrap();
            assert!(!text.contains("max_steps = auto"), "tuned text: {text}");
            assert!(text.contains("horizon = auto"), "tuned text: {text}");
        }
    }
}
