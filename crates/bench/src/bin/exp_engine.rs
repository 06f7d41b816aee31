//! Regenerates E21 (lazy-clock agreement and bookkeeping); see
//! EXPERIMENTS_ENGINE.md.

fn main() {
    rumor_bench::run_and_print("e21");
}
