//! The `rumor` command-line tool. See `rumor help` or the crate docs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rumor_cli::execute(&args) {
        Ok(output) => print!("{output}"),
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("run `rumor help` for usage");
            std::process::exit(2);
        }
    }
}
