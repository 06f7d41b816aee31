//! Regenerates E19 (spreading time vs. churn rate), E22 (topology models
//! at matched expected churn), and E23 (paired sync-vs-async on shared
//! topology traces); see EXPERIMENTS_DYNAMIC.md.

fn main() {
    rumor_bench::run_and_print("e19");
    println!();
    rumor_bench::run_and_print("e22");
    println!();
    rumor_bench::run_and_print("e23");
}
