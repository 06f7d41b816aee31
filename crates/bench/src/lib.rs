//! Shared driver for the experiment binaries.
//!
//! Every binary `exp_*` regenerates one table of EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p rumor-bench --bin exp_t1 -- [--quick] [--trials N] [--seed S] [--csv]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rumor_analysis::report::find_experiment;
use rumor_analysis::ExperimentConfig;

/// Options parsed from an experiment binary's command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliOptions {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Emit CSV instead of the aligned text table.
    pub csv: bool,
}

/// Parses experiment CLI flags from an argument iterator.
///
/// Flags: `--quick` (small sizes/trials), `--trials N`, `--seed S`,
/// `--csv`. Unknown flags abort with a message.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
///
/// # Example
///
/// ```
/// use rumor_bench::parse_args;
/// let opts = parse_args(["--quick", "--trials", "10", "--csv"].iter().map(|s| s.to_string()));
/// assert!(opts.csv);
/// assert_eq!(opts.config.trials, 10);
/// assert!(!opts.config.full_scale);
/// ```
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> CliOptions {
    let (mut quick, mut trials, mut seed, mut csv) = (false, None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trials" => {
                let value = args.next().unwrap_or_else(|| panic!("--trials requires a number"));
                trials =
                    Some(value.parse().unwrap_or_else(|_| panic!("bad --trials value: {value}")));
            }
            "--seed" => {
                let value = args.next().unwrap_or_else(|| panic!("--seed requires a number"));
                seed = Some(value.parse().unwrap_or_else(|_| panic!("bad --seed value: {value}")));
            }
            "--csv" => csv = true,
            other => panic!("unknown flag {other}; supported: --quick --trials N --seed S --csv"),
        }
    }
    // `--quick` picks the base; explicit overrides win in any order.
    let mut config = if quick { ExperimentConfig::quick() } else { ExperimentConfig::full() };
    config.trials = trials.unwrap_or(config.trials);
    config.master_seed = seed.unwrap_or(config.master_seed);
    CliOptions { config, csv }
}

/// Runs the experiment with the given registry id and prints its table,
/// honoring the process command line.
///
/// # Panics
///
/// Panics if `id` is not in the registry (a bug in the binary).
pub fn run_and_print(id: &str) {
    let opts = parse_args(std::env::args().skip(1));
    let exp = find_experiment(id).unwrap_or_else(|| panic!("unknown experiment id {id}"));
    eprintln!("running {} — {}", exp.id, exp.claim);
    let table = (exp.run)(&opts.config);
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
}

/// Runs every experiment in sequence, printing each table.
pub fn run_all_and_print() {
    let opts = parse_args(std::env::args().skip(1));
    for exp in rumor_analysis::report::all_experiments() {
        eprintln!("running {} — {}", exp.id, exp.claim);
        let table = (exp.run)(&opts.config);
        if opts.csv {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.to_text());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> CliOptions {
        parse_args(tokens.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn default_is_full_scale() {
        let opts = parse(&[]);
        assert!(opts.config.full_scale);
        assert!(!opts.csv);
    }

    #[test]
    fn quick_and_overrides() {
        // Overrides hold whether they come before or after `--quick`.
        for flags in [
            &["--quick", "--seed", "7", "--trials", "12"][..],
            &["--seed", "7", "--trials", "12", "--quick"],
            &["--trials", "12", "--quick", "--seed", "7"],
        ] {
            let opts = parse(flags);
            assert!(!opts.config.full_scale, "{flags:?}");
            assert_eq!(opts.config.master_seed, 7, "{flags:?}");
            assert_eq!(opts.config.trials, 12, "{flags:?}");
        }
        assert_eq!(parse(&["--quick"]).config, ExperimentConfig::quick());
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "requires a number")]
    fn missing_value_panics() {
        parse(&["--trials"]);
    }
}
