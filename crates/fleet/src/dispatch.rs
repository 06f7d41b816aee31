//! Sweep execution: expand, run the work-list (in-process or across
//! worker processes), merge into one `FleetReport`.
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
use rumor_core::spec::{SpecError, Telemetry};
use rumor_core::{SweepChild, SweepSpec};

use crate::frame::{read_frame, write_frame};
use crate::report::{
    report_counts, report_to_json, telemetry_from_json, telemetry_json, FLEET_SCHEMA,
};

/// How [`dispatch`] executes a sweep.
#[derive(Debug, Clone, Default)]
pub struct DispatchOptions {
    /// Worker process count; `0` or `1` runs the work-list in-process.
    pub workers: usize,
    /// Command line of one worker process; empty means
    /// `[current_exe, "worker"]` (the self-exec default of `rumor
    /// sweep`). Tests substitute `rumor worker --exit-after n` here to
    /// inject crashes.
    pub worker_cmd: Vec<String>,
}

/// What went wrong while dispatching.
#[derive(Debug)]
pub enum FleetError {
    /// The sweep failed to expand or a child failed to validate.
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
/// [`FleetError::Spec`] if expansion or a child's validation fails,
/// [`FleetError::Io`] on transport problems, [`FleetError::Worker`] if
/// a worker rejects a spec or crashes twice on the same child.
pub fn dispatch(sweep: &SweepSpec, options: &DispatchOptions) -> Result<FleetOutcome, FleetError> {
    let children = sweep.expand()?;
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
    use rumor_core::spec::{GraphSpec, Protocol, SimSpec};

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
}
