//! Regenerates the experiment tables of `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p rumor-analysis --bin exp -- <id>… | all [--quick] [--trials N] [--seed S] [--csv]
//! ```
//!
//! The ids are the registry's ([`rumor_analysis::report::all_experiments`]),
//! and `all` runs every experiment in presentation order. A single table
//! prints bare; when several run, each is followed by a blank line. Each
//! experiment announces itself on stderr. Malformed arguments print a
//! usage message on stderr and exit with code 2.

#![forbid(unsafe_code)]

use rumor_analysis::report::{all_experiments, find_experiment, Experiment};
use rumor_analysis::ExperimentConfig;
use std::process::ExitCode;
use std::str::FromStr;

/// A parsed command line: what to run, and how.
struct Args {
    experiments: Vec<Experiment>,
    config: ExperimentConfig,
    csv: bool,
}

/// Parses the arguments after the program name.
fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Args, String> {
    let (mut experiments, mut quick, mut trials, mut seed, mut csv) =
        (Vec::new(), false, None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trials" => trials = Some(number(&arg, args.next())?),
            "--seed" => seed = Some(number(&arg, args.next())?),
            "--csv" => csv = true,
            "all" => experiments.extend(all_experiments()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => experiments.push(find_experiment(id).ok_or(format!("unknown experiment {id}"))?),
        }
    }
    if experiments.is_empty() {
        return Err("no experiment given".into());
    }
    // `--quick` picks the base; explicit overrides win in any order.
    let mut config = if quick { ExperimentConfig::quick() } else { ExperimentConfig::full() };
    config.trials = trials.unwrap_or(config.trials);
    config.master_seed = seed.unwrap_or(config.master_seed);
    Ok(Args { experiments, config, csv })
}

/// The number after `flag`.
fn number<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or(format!("{flag} requires a number"))?;
    value.parse().map_err(|_| format!("bad {flag} value: {value}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
            eprintln!("error: {err}");
            eprintln!("usage: exp <id>... | all [--quick] [--trials N] [--seed S] [--csv]");
            eprintln!("ids: {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };
    let several = args.experiments.len() > 1;
    for exp in &args.experiments {
        eprintln!("running {} — {}", exp.id, exp.claim);
        let table = (exp.run)(&args.config);
        print!("{}", if args.csv { table.to_csv() } else { table.to_text() });
        if several {
            println!();
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args(tokens.iter().map(|s| (*s).to_string()))
    }

    fn ids(args: &Args) -> Vec<&'static str> {
        args.experiments.iter().map(|e| e.id).collect()
    }

    #[test]
    fn default_is_full_scale() {
        let args = parse(&["e1"]).unwrap();
        assert_eq!(args.config, ExperimentConfig::full());
        assert!(!args.csv);
        assert_eq!(ids(&args), ["e1"]);
    }

    #[test]
    fn quick_and_overrides() {
        // Overrides hold whether they come before or after `--quick`.
        for flags in [
            &["e6", "--quick", "--seed", "7", "--trials", "12"][..],
            &["--seed", "7", "e6", "--trials", "12", "--quick"],
            &["--trials", "12", "--quick", "--seed", "7", "e6"],
        ] {
            let args = parse(flags).unwrap();
            assert!(!args.config.full_scale, "{flags:?}");
            assert_eq!(args.config.master_seed, 7, "{flags:?}");
            assert_eq!(args.config.trials, 12, "{flags:?}");
        }
        assert_eq!(parse(&["e1", "--quick"]).unwrap().config, ExperimentConfig::quick());
    }

    #[test]
    fn ids_and_all_select_in_order() {
        assert_eq!(ids(&parse(&["e19", "e22", "e23", "--csv"]).unwrap()), ["e19", "e22", "e23"]);
        let all = parse(&["all"]).unwrap();
        let registry: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        assert_eq!(ids(&all), registry);
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for (flags, message) in [
            (&["e1", "--bogus"][..], "unknown flag --bogus"),
            (&["e1", "--trials"], "--trials requires a number"),
            (&["e1", "--seed", "x"], "bad --seed value: x"),
            (&["e1", "--trials", "-3"], "bad --trials value: -3"),
            (&["e99"], "unknown experiment e99"),
            (&["e21"], "unknown experiment e21"),
            (&["--quick"], "no experiment given"),
        ] {
            assert_eq!(parse(flags).err().as_deref(), Some(message), "{flags:?}");
        }
    }
}
