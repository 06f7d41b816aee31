//! The [`RunReport`] ⇄ JSON wire codec and the merged `FleetReport`
//! artifact.
//!
//! Both directions ride on the deterministic [`Json`] value the metrics
//! artifacts already use: `render ∘ parse` is a fixed point, so a
//! report serialized by a worker process, parsed by the dispatcher, and
//! re-rendered into the fleet artifact is byte-identical to the same
//! report serialized in-process — the property the byte-for-byte CI
//! replay of `FleetReport`s rests on.
//!
//! Counters are written as JSON numbers (`f64`), exact up to 2⁵³ —
//! far beyond any budgeted run's step counts.

use rumor_core::obs::json::Json;
use rumor_core::spec::{CoupledOutcome, RunReport, Telemetry, TrialOutcome, Unit};

/// Schema tag of the merged fleet artifact.
pub const FLEET_SCHEMA: &str = "rumor-fleet v1";

/// Serializes a run report for the wire / the fleet artifact.
pub fn report_to_json(r: &RunReport) -> Json {
    let mut fields = vec![
        ("unit".to_owned(), Json::Str(r.unit.to_string())),
        ("outcomes".to_owned(), Json::Arr(r.outcomes.iter().map(outcome_json).collect())),
    ];
    if let Some(coupled) = &r.coupled {
        fields.push(("coupled".to_owned(), Json::Arr(coupled.iter().map(coupled_json).collect())));
    }
    fields.push(("telemetry".to_owned(), telemetry_json(&r.telemetry)));
    if let Some(m) = &r.metrics {
        fields.push(("metrics".to_owned(), m.to_json()));
    }
    Json::Obj(fields)
}

/// Reconstructs a run report from its wire form.
///
/// A `metrics` payload, if present, is **not** reconstructed (the
/// in-memory metrics bundle holds strictly more than its artifact);
/// consumers that need it read the JSON directly. The returned report
/// has `metrics: None`.
///
/// # Errors
///
/// A message naming the missing or mistyped field.
pub fn report_from_json(doc: &Json) -> Result<RunReport, String> {
    let unit = match doc.get("unit").and_then(Json::as_str) {
        Some("rounds") => Unit::Rounds,
        Some("time units") => Unit::TimeUnits,
        Some("paired") => Unit::Paired,
        other => return Err(format!("bad report unit {other:?}")),
    };
    let outcomes = doc
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or("report has no outcomes array")?
        .iter()
        .map(outcome_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let coupled = match doc.get("coupled") {
        None => None,
        Some(c) => Some(
            c.as_arr()
                .ok_or("coupled is not an array")?
                .iter()
                .map(coupled_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    let telemetry = telemetry_from_json(doc.get("telemetry").ok_or("report has no telemetry")?)?;
    Ok(RunReport { unit, outcomes, coupled, telemetry, metrics: None })
}

fn outcome_json(o: &TrialOutcome) -> Json {
    Json::Obj(vec![
        ("value".to_owned(), Json::Num(o.value)),
        ("completed".to_owned(), Json::Bool(o.completed)),
        ("steps".to_owned(), Json::Num(o.steps as f64)),
        ("topology_events".to_owned(), Json::Num(o.topology_events as f64)),
    ])
}

fn outcome_from_json(j: &Json) -> Result<TrialOutcome, String> {
    Ok(TrialOutcome {
        value: num(j, "value")?,
        completed: boolean(j, "completed")?,
        steps: num(j, "steps")? as u64,
        topology_events: num(j, "topology_events")? as u64,
    })
}

fn coupled_json(o: &CoupledOutcome) -> Json {
    Json::Obj(vec![
        ("sync_rounds".to_owned(), Json::Num(o.sync_rounds)),
        ("sync_completed".to_owned(), Json::Bool(o.sync_completed)),
        ("async_time".to_owned(), Json::Num(o.async_time)),
        ("async_completed".to_owned(), Json::Bool(o.async_completed)),
        ("trace_steps".to_owned(), Json::Num(o.trace_steps as f64)),
    ])
}

fn coupled_from_json(j: &Json) -> Result<CoupledOutcome, String> {
    Ok(CoupledOutcome {
        sync_rounds: num(j, "sync_rounds")?,
        sync_completed: boolean(j, "sync_completed")?,
        async_time: num(j, "async_time")?,
        async_completed: boolean(j, "async_completed")?,
        trace_steps: num(j, "trace_steps")? as usize,
    })
}

pub(crate) fn telemetry_json(t: &Telemetry) -> Json {
    Json::Obj(vec![
        ("steps".to_owned(), Json::Num(t.steps as f64)),
        ("topology_events".to_owned(), Json::Num(t.topology_events as f64)),
        // The committed `rumor-fleet v1` schema pins these retired fields at 0.
        ("windows".to_owned(), Json::Num(0.0)),
        ("cross_events".to_owned(), Json::Num(0.0)),
        ("clocks_touched".to_owned(), Json::Num(0.0)),
        ("base_edges".to_owned(), Json::Num(0.0)),
        ("trace_steps".to_owned(), Json::Num(t.trace_steps as f64)),
    ])
}

/// Reconstructs a telemetry bundle from its wire form (the merge input
/// of the dispatcher's telemetry monoid).
///
/// # Errors
///
/// A message naming the missing or mistyped field.
pub fn telemetry_from_json(j: &Json) -> Result<Telemetry, String> {
    Ok(Telemetry {
        steps: num(j, "steps")? as u64,
        topology_events: num(j, "topology_events")? as u64,
        trace_steps: num(j, "trace_steps")? as u64,
    })
}

/// Trial and censored counts of a wire-form report (uncoupled reports
/// count incomplete outcomes, coupled reports incomplete pairs).
///
/// # Errors
///
/// A message naming the malformed field.
pub fn report_counts(doc: &Json) -> Result<(u64, u64), String> {
    if let Some(coupled) = doc.get("coupled").and_then(Json::as_arr) {
        let censored = coupled
            .iter()
            .filter(|o| {
                !(boolean(o, "sync_completed").unwrap_or(false)
                    && boolean(o, "async_completed").unwrap_or(false))
            })
            .count();
        return Ok((coupled.len() as u64, censored as u64));
    }
    let outcomes = doc.get("outcomes").and_then(Json::as_arr).ok_or("report has no outcomes")?;
    let censored = outcomes.iter().filter(|o| !boolean(o, "completed").unwrap_or(true)).count();
    Ok((outcomes.len() as u64, censored as u64))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key).and_then(Json::as_num).ok_or_else(|| format!("missing number `{key}`"))
}

fn boolean(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::spec::{GraphSpec, Protocol, SimSpec};

    #[test]
    fn uncoupled_report_round_trips() {
        let report = SimSpec::new(GraphSpec::Complete { n: 8 })
            .protocol(Protocol::push_pull_async())
            .trials(5)
            .build()
            .unwrap()
            .run();
        let doc = report_to_json(&report);
        // render ∘ parse is a fixed point (the byte-replay property).
        let text = doc.render();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text);
        assert_eq!(report_from_json(&reparsed).unwrap(), report);
        let (trials, censored) = report_counts(&doc).unwrap();
        assert_eq!((trials, censored), (5, report.censored() as u64));
    }

    #[test]
    fn coupled_report_round_trips() {
        let report = SimSpec::new(GraphSpec::Complete { n: 8 })
            .protocol(Protocol::push_pull_async())
            .coupled(true)
            .trials(4)
            .build()
            .unwrap()
            .run();
        let doc = report_to_json(&report);
        assert_eq!(report_from_json(&doc).unwrap(), report);
        let merged = telemetry_from_json(doc.get("telemetry").unwrap()).unwrap();
        assert_eq!(merged, report.telemetry);
        assert_eq!(report_counts(&doc).unwrap().0, 4);
    }
}
