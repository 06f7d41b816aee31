//! The correctness gate. Every check compares a reply with something
//! that does not depend on the program's random streams: a reply shape,
//! an exact law, or the same request run in-process.

use std::collections::BTreeMap;

use rumor_core::obs::json::Json;
use rumor_core::{SimSpec, SweepSpec};
use rumor_fleet::{dispatch, report_to_json, DispatchOptions};

use crate::workloads::{Body, Expect, Request};

/// One in this many spec replies is compared with an in-process run.
pub const TRANSPORT_EVERY: usize = 20;
/// One in this many sweep artifacts is compared with an in-process
/// dispatch.
pub const DISPATCH_EVERY: usize = 10;
/// The law check accepts a pooled mean within this many standard errors
/// of the exact mean.
pub const LAW_SIGMAS: f64 = 4.0;

/// Checks one reply's shape against what the request must get, and for
/// a spec reply returns its report (for the law check).
pub fn check_reply(request: &Request, id: usize, reply: &[u8]) -> Result<Option<Json>, String> {
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_owned())?;
    let doc = Json::parse(text).map_err(|e| format!("malformed reply: {e}"))?;
    if let Expect::Fleet { children, trials } = request.expect {
        check_fleet(&doc, children, trials)?;
        return Ok(None);
    }
    let error = doc.get("error").and_then(Json::as_str);
    // A spec that fails to parse makes the whole request malformed, and
    // the service answers those with `id: null`.
    let null_id_error = request.expect == Expect::Error && doc.get("id") == Some(&Json::Null);
    if doc.get("id").and_then(Json::as_num) != Some(id as f64) && !null_id_error {
        return Err("reply id does not match the request".to_owned());
    }
    match request.expect {
        Expect::Error => match error {
            Some(_) if doc.get("report").is_none() => Ok(None),
            _ => Err("invalid spec was not answered with an error".to_owned()),
        },
        Expect::Counters => {
            let counters = doc.get("counters").and_then(Json::as_obj).ok_or("no counters")?;
            if counters.iter().all(|(_, v)| v.as_num().is_some_and(|x| x >= 0.0)) {
                Ok(None)
            } else {
                Err("counters are not all non-negative numbers".to_owned())
            }
        }
        Expect::Report { unit, trials } => {
            if let Some(message) = error {
                return Err(format!("unexpected error reply: {message}"));
            }
            let report = doc.get("report").ok_or("reply has neither report nor error")?;
            check_report(report, unit, trials)?;
            Ok(Some(report.clone()))
        }
        Expect::Fleet { .. } => unreachable!("handled above"),
    }
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("`{key}` is missing or not a finite non-negative number"))
}

fn flag(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("`{key}` is missing or not a bool")),
    }
}

/// Trial count, finite values, and no censored trial.
fn check_report(report: &Json, unit: &str, trials: usize) -> Result<(), String> {
    if report.get("unit").and_then(Json::as_str) != Some(unit) {
        return Err(format!("report unit is not `{unit}`"));
    }
    let telemetry = report.get("telemetry").ok_or("report has no telemetry")?;
    for key in ["steps", "topology_events", "trace_steps"] {
        num(telemetry, key)?;
    }
    let rows = match report.get("coupled") {
        Some(c) => c.as_arr().ok_or("coupled is not an array")?,
        None => report.get("outcomes").and_then(Json::as_arr).ok_or("report has no outcomes")?,
    };
    if rows.len() != trials {
        return Err(format!("report has {} trials, expected {trials}", rows.len()));
    }
    for row in rows {
        let done = if report.get("coupled").is_some() {
            num(row, "sync_rounds")?;
            num(row, "async_time")?;
            num(row, "trace_steps")?;
            flag(row, "sync_completed")? && flag(row, "async_completed")?
        } else {
            num(row, "value")?;
            num(row, "steps")?;
            flag(row, "completed")?
        };
        if !done {
            return Err("censored trial".to_owned());
        }
    }
    Ok(())
}

fn check_fleet(doc: &Json, children: usize, trials: usize) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(rumor_fleet::FLEET_SCHEMA) {
        return Err("artifact has the wrong schema".to_owned());
    }
    let summary = doc.get("summary").ok_or("artifact has no summary")?;
    let listed = doc.get("children").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    if num(summary, "children")? != children as f64 || listed != children {
        return Err(format!("artifact does not list {children} children"));
    }
    if num(summary, "trials")? != trials as f64 {
        return Err(format!("artifact does not hold {trials} trials"));
    }
    if num(summary, "censored")? != 0.0 {
        return Err("censored trial".to_owned());
    }
    Ok(())
}

/// Transport check: the reply's report must equal the same spec run
/// in-process.
pub fn check_transport(request: &Request, wire: &Json) -> Result<(), String> {
    let Body::Spec(text) = &request.body else { return Ok(()) };
    let spec = SimSpec::parse(text).map_err(|e| format!("in-process parse: {e}"))?;
    let local = report_to_json(&spec.build().map_err(|e| format!("in-process build: {e}"))?.run());
    if &local == wire {
        Ok(())
    } else {
        Err("reply differs from the in-process report".to_owned())
    }
}

/// Dispatch check: the `--workers 2` artifact must be byte-equal to an
/// in-process dispatch.
pub fn check_dispatch(request: &Request, artifact: &[u8]) -> Result<(), String> {
    let Body::Sweep(text) = &request.body else { return Ok(()) };
    let sweep = SweepSpec::parse(text).map_err(|e| format!("in-process parse: {e}"))?;
    let local = dispatch(&sweep, &DispatchOptions::default())
        .map_err(|e| format!("in-process dispatch: {e}"))?;
    if local.doc.render().as_bytes() == artifact {
        Ok(())
    } else {
        Err("artifact differs from the in-process dispatch".to_owned())
    }
}

/// The exact law of asynchronous push–pull on K_n: the spreading time
/// is a sum of independent exponentials with rates `2k(n−k)/(n−1)`,
/// `k = 1..n−1`, so its mean is `(n−1)/n · H_{n−1}` and its variance
/// `Σ_k ((n−1)/(2k(n−k)))²`. Returns `(mean, standard deviation)`.
pub fn complete_graph_law(n: usize) -> (f64, f64) {
    let m = (n - 1) as f64;
    let mut mean = 0.0;
    let mut var = 0.0;
    for k in 1..n {
        let scale = m / (2.0 * k as f64 * (n - k) as f64);
        mean += scale;
        var += scale * scale;
    }
    (mean, var.sqrt())
}

/// The sizes `n` whose pooled spreading times fall outside
/// `LAW_SIGMAS` standard errors of `law(n)`'s mean.
pub fn law_violations(
    samples: &BTreeMap<usize, Vec<f64>>,
    law: impl Fn(usize) -> (f64, f64),
) -> Vec<usize> {
    samples
        .iter()
        .filter(|(&n, values)| {
            let (mean, sd) = law(n);
            let count = values.len() as f64;
            let observed = values.iter().sum::<f64>() / count;
            (observed - mean).abs() > LAW_SIGMAS * sd / count.sqrt()
        })
        .map(|(&n, _)| n)
        .collect()
}

/// Spreading times of a law-check report.
pub fn law_samples(report: &Json) -> Vec<f64> {
    report
        .get("outcomes")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|o| o.get("value").and_then(Json::as_num))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Draws from the exact K_n law with the runner's own generator.
    fn exact_samples(n: usize, count: usize, rng: &mut SplitMix64) -> Vec<f64> {
        (0..count)
            .map(|_| {
                (1..n)
                    .map(|k| {
                        let rate = 2.0 * (k * (n - k)) as f64 / (n - 1) as f64;
                        -(1.0 - rng.next_f64()).ln() / rate
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn law_mean_matches_the_harmonic_closed_form() {
        for n in [2, 64, 512] {
            let harmonic: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
            let (mean, sd) = complete_graph_law(n);
            assert!((mean - (n - 1) as f64 / n as f64 * harmonic).abs() < 1e-12);
            assert!(sd > 0.0);
        }
    }

    #[test]
    fn exact_samples_pass_and_a_shifted_reference_fails() {
        let mut rng = SplitMix64::new(11);
        let samples: BTreeMap<usize, Vec<f64>> =
            [64, 256].into_iter().map(|n| (n, exact_samples(n, 400, &mut rng))).collect();
        assert!(law_violations(&samples, complete_graph_law).is_empty());
        let shifted = |n| {
            let (mean, sd) = complete_graph_law(n);
            (mean * 1.05, sd)
        };
        assert_eq!(law_violations(&samples, shifted), vec![64, 256]);
    }

    #[test]
    fn replies_are_checked_for_shape() {
        let request = Request {
            class: "x",
            body: Body::Stats,
            expect: Expect::Report { unit: "rounds", trials: 1 },
            law_n: None,
        };
        let ok = br#"{"id": 3, "report": {"unit": "rounds", "outcomes": [{"value": 4, "completed": true, "steps": 4, "topology_events": 0}], "telemetry": {"steps": 4, "topology_events": 0, "trace_steps": 0}}}"#;
        assert!(check_reply(&request, 3, ok).unwrap().is_some());
        assert!(check_reply(&request, 4, ok).is_err());
        let censored = String::from_utf8(ok.to_vec()).unwrap().replace("true", "false");
        assert_eq!(check_reply(&request, 3, censored.as_bytes()).unwrap_err(), "censored trial");
        let error = br#"{"id": 3, "error": "bad spec"}"#;
        assert!(check_reply(&request, 3, error).is_err());
        let invalid = Request { expect: Expect::Error, ..request };
        assert!(check_reply(&invalid, 3, error).is_ok());
        assert!(check_reply(&invalid, 3, ok).is_err());
    }
}
