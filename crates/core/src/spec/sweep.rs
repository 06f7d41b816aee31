//! Parameter sweeps over run specs: `sweep.<key> = [v1, v2, ...]` axis
//! lines expand one base spec into a deterministic grid of child specs.
//!
//! # Grammar
//!
//! A sweep file is an ordinary `.spec` file plus any number of axis
//! lines:
//!
//! ```text
//! sweep.<key> = [v1, v2, ...]
//! ```
//!
//! where `<key>` is either a whole spec line (`trials`, `seed`,
//! `graph`, `topology`, …) — the value replaces that line's value — or
//! a dotted field of one of the structured lines (`graph.n`,
//! `graph.p`, `topology.on`, `topology.off`, `protocol.mode`) — the
//! value replaces that `field=` token. Values are comma-separated and
//! may contain spaces (`sweep.topology = [static, markov off=0.25
//! on=0.1]`), but not commas, brackets, or newlines.
//!
//! # Determinism
//!
//! Axes are ordered **lexicographically by key**, regardless of the
//! order they appear in the file, and the grid is enumerated in
//! lexicographic (odometer, last axis fastest) order — so the same set
//! of axis lines yields the identical child list however it is
//! written. Unless `seed` is itself a swept axis, child `i`'s master
//! seed is the `i`-th seed of a [`SeedStream`] rooted at the base
//! spec's seed — the same seed-splitting discipline trials use, one
//! level up.
//!
//! Every child is substituted into the base's **canonical** serialized
//! text, re-parsed, and fully validated with
//! [`SimSpec::build`]; failures are reported as
//! [`SpecError::SweepPoint`] naming the offending grid point.

use rumor_sim::rng::SeedStream;

use super::{SimSpec, SpecError};

/// Whole-line keys a sweep axis may target (the canonical serialization
/// order of [`SimSpec::to_spec_string`], minus the version directive and
/// the `engine` line, which always reads `sequential`).
const LINE_KEYS: &[&str] = &[
    "graph",
    "source",
    "protocol",
    "topology",
    "trials",
    "seed",
    "threads",
    "loss",
    "max_steps",
    "max_rounds",
    "coupled",
    "horizon",
    "antithetic",
    "rng_contract",
    "metrics",
];

/// Lines with `kind field=value …` structure, targetable by dotted keys.
const FIELD_LINE_KEYS: &[&str] = &["graph", "protocol", "topology"];

/// One sweep axis: a target key and the values it takes, in declaration
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The swept key: a whole spec line (`trials`, `graph`, …) or a
    /// dotted field of one (`graph.n`, `topology.on`, `protocol.mode`).
    pub key: String,
    /// The values the axis takes.
    pub values: Vec<String>,
}

/// A base spec plus sweep axes. Axes are held sorted by key, so two
/// sweep files that differ only in axis order are equal after parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    base: SimSpec,
    axes: Vec<SweepAxis>,
}

/// One fully-validated grid point of an expanded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepChild {
    /// Index in expansion order.
    pub index: usize,
    /// The grid point label, e.g. `graph.n=32 trials=20` (empty for a
    /// sweep with no axes).
    pub point: String,
    /// The child spec ([`SimSpec::build`]-validated during expansion).
    pub spec: SimSpec,
    /// The child's canonical spec text.
    pub text: String,
}

impl SweepSpec {
    /// A sweep over `base` with no axes yet (expands to `base` alone).
    pub fn new(base: SimSpec) -> Self {
        Self { base, axes: Vec::new() }
    }

    /// The base spec.
    pub fn base(&self) -> &SimSpec {
        &self.base
    }

    /// The axes, sorted by key.
    pub fn axes(&self) -> &[SweepAxis] {
        &self.axes
    }

    /// Adds an axis (builder form of an axis line; `line` reported as 0
    /// in errors).
    ///
    /// # Errors
    ///
    /// [`SpecError::SweepAxis`] on an illegal key, empty or illegal
    /// values, or a duplicate key.
    pub fn axis(
        mut self,
        key: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, SpecError> {
        let axis =
            SweepAxis { key: key.into(), values: values.into_iter().map(Into::into).collect() };
        self.push_axis(axis, 0)?;
        Ok(self)
    }

    fn push_axis(&mut self, axis: SweepAxis, line: usize) -> Result<(), SpecError> {
        let err = |message: String| SpecError::SweepAxis { line, message };
        validate_key(&axis.key).map_err(err)?;
        if self.axes.iter().any(|a| a.key == axis.key) {
            return Err(err(format!("duplicate sweep axis `{}`", axis.key)));
        }
        if axis.values.is_empty() {
            return Err(err(format!("sweep axis `{}` has no values", axis.key)));
        }
        for v in &axis.values {
            if v.is_empty() {
                return Err(err(format!("sweep axis `{}` has an empty value", axis.key)));
            }
            if v.chars().any(|c| matches!(c, ',' | '[' | ']' | '\n' | '\r')) {
                return Err(err(format!(
                    "sweep value `{v}` contains a comma, bracket, or newline"
                )));
            }
        }
        let at = self.axes.partition_point(|a| a.key < axis.key);
        self.axes.insert(at, axis);
        Ok(())
    }

    /// Parses a sweep file: `sweep.*` axis lines plus an ordinary spec.
    /// A file with no axis lines parses as a zero-axis sweep.
    ///
    /// # Errors
    ///
    /// [`SpecError::SweepAxis`] for malformed axis lines, plus anything
    /// [`SimSpec::parse`] reports for the remaining lines (their line
    /// numbers refer to the original file).
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut base_text = String::new();
        let mut sweep =
            SweepSpec { base: SimSpec::new(super::GraphSpec::Complete { n: 2 }), axes: Vec::new() };
        let mut axes: Vec<(SweepAxis, usize)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if let Some(rest) = line.strip_prefix("sweep.") {
                let err = |message: String| SpecError::SweepAxis { line: lineno, message };
                let (key, value) = rest
                    .split_once('=')
                    .map(|(k, v)| (k.trim(), v.trim()))
                    .ok_or_else(|| err(format!("expected `sweep.<key> = [...]`, got `{line}`")))?;
                let inner = value
                    .strip_prefix('[')
                    .and_then(|v| v.strip_suffix(']'))
                    .ok_or_else(|| err(format!("expected `[v1, v2, ...]`, got `{value}`")))?;
                let values: Vec<String> = inner.split(',').map(|v| v.trim().to_owned()).collect();
                axes.push((SweepAxis { key: key.to_owned(), values }, lineno));
                // Keep the base's line numbering aligned with the file.
                base_text.push_str("#\n");
            } else {
                base_text.push_str(raw);
                base_text.push('\n');
            }
        }
        sweep.base = SimSpec::parse(&base_text)?;
        for (axis, lineno) in axes {
            sweep.push_axis(axis, lineno)?;
        }
        Ok(sweep)
    }

    /// Serializes the sweep: the base's canonical text followed by one
    /// `sweep.<key> = [...]` line per axis, in key order.
    /// `parse(to_spec_string(s)) == s` for every serializable sweep.
    ///
    /// # Errors
    ///
    /// [`SpecError::NotSerializable`] if the base has no text form.
    pub fn to_spec_string(&self) -> Result<String, SpecError> {
        let mut s = self.base.to_spec_string()?;
        for axis in &self.axes {
            s.push_str(&format!("sweep.{} = [{}]\n", axis.key, axis.values.join(", ")));
        }
        Ok(s)
    }

    /// Number of grid points.
    pub fn points(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// `true` when `key` is a swept axis.
    pub fn is_swept(&self, key: &str) -> bool {
        self.axes.iter().any(|a| a.key == key)
    }

    /// Expands the grid into fully-validated children, in deterministic
    /// (sorted-axis odometer) order. Child seeds follow the module-level
    /// seed-splitting discipline.
    ///
    /// # Errors
    ///
    /// [`SpecError::NotSerializable`] if the base has no text form;
    /// [`SpecError::SweepPoint`] naming the grid point whose child
    /// failed to substitute, parse, or validate.
    pub fn expand(&self) -> Result<Vec<SweepChild>, SpecError> {
        let base_text = self.base.to_spec_string()?;
        if self.axes.is_empty() {
            let wrap = |e: SpecError| SpecError::SweepPoint {
                point: "(base)".to_owned(),
                error: Box::new(e),
            };
            self.base.build().map_err(wrap)?;
            return Ok(vec![SweepChild {
                index: 0,
                point: String::new(),
                spec: self.base.clone(),
                text: base_text,
            }]);
        }
        let derive_seeds = !self.is_swept("seed");
        let mut seeds = SeedStream::new(self.base.plan.master_seed);
        let mut children = Vec::with_capacity(self.points());
        let mut odometer = vec![0usize; self.axes.len()];
        loop {
            let index = children.len();
            let point: String = self
                .axes
                .iter()
                .zip(&odometer)
                .map(|(a, &i)| format!("{}={}", a.key, a.values[i]))
                .collect::<Vec<_>>()
                .join(" ");
            let seed = derive_seeds.then(|| seeds.next().expect("seed stream is infinite"));
            children.push(self.child_at(&base_text, &point, &odometer, index, seed)?);
            // Odometer step, last axis fastest; done when it wraps.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    return Ok(children);
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < self.axes[pos].values.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
    }

    fn child_at(
        &self,
        base_text: &str,
        point: &str,
        odometer: &[usize],
        index: usize,
        seed: Option<u64>,
    ) -> Result<SweepChild, SpecError> {
        let fail =
            |e: SpecError| SpecError::SweepPoint { point: point.to_owned(), error: Box::new(e) };
        let mut lines: Vec<String> = base_text.lines().map(str::to_owned).collect();
        // Whole-line axes first: a swept `graph` line may introduce the
        // very fields a dotted axis then overrides.
        for (axis, &i) in self.axes.iter().zip(odometer) {
            if !axis.key.contains('.') {
                substitute_line(&mut lines, &axis.key, &axis.values[i]);
            }
        }
        for (axis, &i) in self.axes.iter().zip(odometer) {
            if let Some((top, field)) = axis.key.split_once('.') {
                substitute_field(&mut lines, top, field, &axis.values[i])
                    .map_err(|key| fail(SpecError::SweepUnknownKey { key }))?;
            }
        }
        let mut spec = SimSpec::parse(&lines.join("\n")).map_err(fail)?;
        if let Some(seed) = seed {
            spec.plan.master_seed = seed;
        }
        let text = spec.to_spec_string().map_err(fail)?;
        spec.build().map_err(fail)?;
        Ok(SweepChild { index, point: point.to_owned(), spec, text })
    }
}

/// Checks an axis key against the canonical key set.
fn validate_key(key: &str) -> Result<(), String> {
    match key.split_once('.') {
        None => {
            if LINE_KEYS.contains(&key) {
                Ok(())
            } else {
                Err(format!("unknown sweep target `{key}`"))
            }
        }
        Some((top, field)) => {
            if !FIELD_LINE_KEYS.contains(&top) {
                return Err(format!(
                    "`{top}` has no sweepable fields (dotted keys target {})",
                    FIELD_LINE_KEYS.join("/")
                ));
            }
            if field.is_empty() || field.contains('.') {
                return Err(format!("bad field in sweep target `{key}`"));
            }
            Ok(())
        }
    }
}

/// Replaces the value of the `key = …` line; the canonical base text
/// has a line for every [`LINE_KEYS`] entry.
fn substitute_line(lines: &mut [String], key: &str, value: &str) {
    let line = lines
        .iter_mut()
        .find(|l| l.split_once('=').is_some_and(|(k, _)| k.trim() == key))
        .expect("the canonical base text has every line key");
    *line = format!("{key} = {value}");
}

/// Replaces the `field=` token of the structured `top = kind f=v …`
/// line; fails with the dotted key when the line or field is absent.
fn substitute_field(
    lines: &mut [String],
    top: &str,
    field: &str,
    value: &str,
) -> Result<(), String> {
    let dotted = || format!("{top}.{field}");
    for line in lines.iter_mut() {
        let Some((k, v)) = line.split_once('=') else { continue };
        if k.trim() != top {
            continue;
        }
        let mut tokens: Vec<String> = v.split_whitespace().map(str::to_owned).collect();
        for tok in tokens.iter_mut().skip(1) {
            if let Some((f, _)) = tok.split_once('=') {
                if f == field {
                    *tok = format!("{field}={value}");
                    *line = format!("{top} = {}", tokens.join(" "));
                    return Ok(());
                }
            }
        }
        return Err(dotted());
    }
    Err(dotted())
}

#[cfg(test)]
mod tests {
    use super::super::GraphSpec;
    use super::*;

    fn base_text() -> String {
        SimSpec::new(GraphSpec::Complete { n: 8 }).trials(4).to_spec_string().unwrap()
    }

    #[test]
    fn axis_order_is_irrelevant() {
        let a = SweepSpec::parse(&format!(
            "{}sweep.trials = [2, 3]\nsweep.graph.n = [6, 8]\n",
            base_text()
        ))
        .unwrap();
        let b = SweepSpec::parse(&format!(
            "sweep.graph.n = [6, 8]\n{}sweep.trials = [2, 3]\n",
            base_text()
        ))
        .unwrap();
        assert_eq!(a, b);
        let ca = a.expand().unwrap();
        let cb = b.expand().unwrap();
        assert_eq!(ca, cb);
        assert_eq!(ca.len(), 4);
        // Sorted axes, odometer order: graph.n is the slow axis.
        assert_eq!(ca[0].point, "graph.n=6 trials=2");
        assert_eq!(ca[1].point, "graph.n=6 trials=3");
        assert_eq!(ca[2].point, "graph.n=8 trials=2");
        assert_eq!(ca[3].point, "graph.n=8 trials=3");
    }

    #[test]
    fn child_seeds_follow_the_seed_stream() {
        let sweep =
            SweepSpec::parse(&format!("{}sweep.trials = [2, 3, 4]\n", base_text())).unwrap();
        let children = sweep.expand().unwrap();
        let expected: Vec<u64> = SeedStream::new(42).take(3).collect();
        let got: Vec<u64> = children.iter().map(|c| c.spec.plan.master_seed).collect();
        assert_eq!(got, expected);
        // A swept seed axis takes priority over derivation.
        let pinned = SweepSpec::parse(&format!("{}sweep.seed = [7, 9]\n", base_text())).unwrap();
        let seeds: Vec<u64> =
            pinned.expand().unwrap().iter().map(|c| c.spec.plan.master_seed).collect();
        assert_eq!(seeds, vec![7, 9]);
    }

    #[test]
    fn bad_grid_points_name_the_point() {
        let sweep = SweepSpec::parse(&format!("{}sweep.trials = [2, 0]\n", base_text())).unwrap();
        let err = sweep.expand().unwrap_err();
        match err {
            SpecError::SweepPoint { point, error } => {
                assert_eq!(point, "trials=0");
                assert_eq!(*error, SpecError::ZeroTrials);
            }
            other => panic!("expected SweepPoint, got {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_fail_per_point() {
        // `graph.p` exists only on the gnp grid points.
        let text = format!(
            "{}sweep.graph = [complete n=8, gnp n=8 p=0.5 seed=1 attempts=50]\nsweep.graph.p = [0.4, 0.6]\n",
            base_text()
        );
        let err = SweepSpec::parse(&text).unwrap().expand().unwrap_err();
        match err {
            SpecError::SweepPoint { point, error } => {
                assert!(point.starts_with("graph=complete"), "{point}");
                assert_eq!(*error, SpecError::SweepUnknownKey { key: "graph.p".to_owned() });
            }
            other => panic!("expected SweepPoint, got {other:?}"),
        }
    }

    #[test]
    fn grammar_rejections() {
        let reject = |suffix: &str, needle: &str| {
            let err = SweepSpec::parse(&format!("{}{suffix}\n", base_text())).unwrap_err();
            assert!(err.to_string().contains(needle), "{suffix}: {err}");
        };
        reject("sweep.trials = 2, 3", "[v1, v2, ...]");
        reject("sweep.trials = [2, 3]\nsweep.trials = [4]", "duplicate");
        reject("sweep.trials = []", "empty value");
        reject("sweep.trials = [2, ]", "empty value");
        reject("sweep.bogus = [1]", "unknown sweep target");
        reject("sweep.trials.x = [1]", "no sweepable fields");
        reject("sweep.graph. = [1]", "bad field");
        // The engine line has no value left to sweep.
        reject("sweep.engine = [sequential, lazy]", "unknown sweep target `engine`");
        reject("sweep.engine.shards = [2]", "no sweepable fields");
        let err = SweepSpec::parse(&format!("{}sweep.engine = [sequential]\n", base_text()));
        assert!(matches!(err, Err(SpecError::SweepAxis { .. })), "{err:?}");
    }

    #[test]
    fn sweepless_file_is_a_zero_axis_sweep() {
        let sweep = SweepSpec::parse(&base_text()).unwrap();
        assert_eq!(sweep.points(), 1);
        let children = sweep.expand().unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].text, base_text());
        assert_eq!(children[0].spec.plan.master_seed, 42);
    }

    #[test]
    fn retired_rng_contract_fails_at_its_grid_point() {
        let sweep =
            SweepSpec::parse(&format!("{}sweep.rng_contract = [v2, v1]\n", base_text())).unwrap();
        match sweep.expand().unwrap_err() {
            SpecError::SweepPoint { point, error } => {
                assert_eq!(point, "rng_contract=v1");
                assert!(error.to_string().contains("retired"), "{error}");
            }
            other => panic!("expected a grid-point error, got {other}"),
        }
    }
}
