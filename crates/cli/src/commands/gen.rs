//! `rumor gen` — emit a graph as edge-list text.
//!
//! The arguments are one `graph =` value of the spec grammar, for
//! example `rumor gen gnp n=256 p=0.05 seed=5 attempts=200`. They are
//! parsed and built by [`GraphSpec`], so a family has the same rules on
//! the command line as in a `.spec` file, and a bad parameter is an
//! `invalid graph spec` error, not a panic.

use rumor_core::spec::GraphSpec;
use rumor_graph::io;

use crate::error::CliError;

/// Runs the `gen` subcommand.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    if tokens.is_empty() {
        return Err(CliError::Usage("missing <graph> argument".into()));
    }
    let graph: GraphSpec = tokens.join(" ").parse()?;
    Ok(io::to_edge_list(&graph.resolve()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(tokens: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
        run(&v)
    }

    #[test]
    fn deterministic_families() {
        let star = gen(&["star", "n=5"]).unwrap();
        assert!(star.starts_with("5 4\n"));
        let q3 = gen(&["hypercube", "dim=3"]).unwrap();
        assert!(q3.starts_with("8 12\n"));
        let grid = gen(&["grid", "rows=2", "cols=3"]).unwrap();
        assert!(grid.starts_with("6 7\n"));
        // One argument holding the whole value parses the same.
        assert_eq!(gen(&["grid rows=2 cols=3"]).unwrap(), grid);
    }

    #[test]
    fn random_families_respect_seed() {
        let a = gen(&["gnp", "n=30", "p=0.2", "seed=9", "attempts=50"]).unwrap();
        let b = gen(&["gnp", "n=30", "p=0.2", "seed=9", "attempts=50"]).unwrap();
        let c = gen(&["gnp", "n=30", "p=0.2", "seed=10", "attempts=50"]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn output_round_trips() {
        for fam in [
            "cycle n=7",
            "pa n=20 m=2 seed=1",
            "random-regular n=12 d=3 seed=1 attempts=20",
            "diamonds k=2 m=3",
        ] {
            let text = gen(&[fam]).unwrap();
            let g = rumor_graph::io::from_edge_list(&text).unwrap();
            assert!(g.node_count() > 0, "{fam}");
        }
    }

    #[test]
    fn errors_are_typed() {
        assert!(matches!(gen(&[]), Err(CliError::Usage(_))));
        for bad in [&["nosuch", "n=5"][..], &["star"], &["star", "n=xx"], &["cycle", "n=2"]] {
            let err = gen(bad).unwrap_err();
            assert!(err.to_string().starts_with("invalid graph spec: "), "{bad:?}: {err}");
        }
        // Positional parameters and a `--seed` flag are no graph value.
        assert!(gen(&["gnp", "30", "0.2", "--seed", "9"]).is_err());
    }
}
