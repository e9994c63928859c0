//! Regenerates the Chapter 8 user-study tables and prints them. Pass --full-scale for paper sizes.
fn main() {
    let scale = zv_bench::Scale::from_args();
    let report = zv_bench::figures::study8(&scale);
    print!("{report}");
    zv_bench::write_result("study8", &report).expect("write bench_results/study8.txt");
}
