//! Minimal flag parsing: positionals plus `--key value` options.

use std::collections::HashMap;

use crate::error::CliError;

/// Parsed command-line arguments for one subcommand.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Splits `tokens` into positionals and `--key value` options.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for an option without a value.
    pub fn parse(tokens: &[String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut iter = tokens.iter();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
                args.options.insert(key.to_owned(), value.clone());
            } else {
                args.positional.push(tok.clone());
            }
        }
        Ok(args)
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The `index`-th positional, or a usage error naming it.
    pub fn require(&self, index: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing <{name}> argument")))
    }

    /// The options as `(key, value)` pairs, sorted by key.
    pub fn options(&self) -> Vec<(&str, &str)> {
        let mut pairs: Vec<(&str, &str)> =
            self.options.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        pairs.sort_unstable();
        pairs
    }

    /// An option value parsed as `T`, or `default` if absent.
    pub fn opt_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --{key} from `{raw}`"))),
        }
    }

    /// An option value as a string, or `default` if absent.
    pub fn opt_str(&self, key: &str, default: &str) -> String {
        self.options.get(key).cloned().unwrap_or_else(|| default.to_owned())
    }

    /// The option keys that are not in `allowed`, sorted — for commands
    /// whose modes accept only a subset of flags and must reject the
    /// rest instead of silently ignoring them.
    pub fn keys_outside(&self, allowed: &[&str]) -> Vec<String> {
        let mut extra: Vec<String> =
            self.options.keys().filter(|k| !allowed.contains(&k.as_str())).cloned().collect();
        extra.sort();
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let v: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
        Args::parse(&v).unwrap()
    }

    #[test]
    fn splits_positionals_and_options() {
        let a = parse(&["star", "10", "--seed", "7"]);
        assert_eq!(a.positional(), &["star", "10"]);
        assert_eq!(a.opt_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.opt_parsed::<u64>("missing", 3).unwrap(), 3);
        assert_eq!(a.opt_str("model", "sync"), "sync");
    }

    #[test]
    fn require_reports_names() {
        let a = parse(&["star"]);
        assert_eq!(a.require(0, "family").unwrap(), "star");
        let err = a.require(1, "n").unwrap_err();
        assert!(err.to_string().contains("<n>"));
    }

    #[test]
    fn options_are_sorted_by_key() {
        let a = parse(&["g.txt", "--trials", "5", "--seed", "7", "--trials", "6"]);
        assert_eq!(a.options(), [("seed", "7"), ("trials", "6")]);
    }

    #[test]
    fn option_without_value_is_error() {
        let v = vec!["--seed".to_string()];
        assert!(Args::parse(&v).is_err());
    }
}
