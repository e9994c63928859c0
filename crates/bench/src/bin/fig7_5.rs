//! Regenerates the thesis's Figure 7.5 and prints it. Pass --full-scale for paper sizes.
fn main() {
    let scale = zv_bench::Scale::from_args();
    let report = zv_bench::figures::fig7_5(&scale);
    print!("{report}");
    zv_bench::write_result("fig7_5", &report).expect("write bench_results/fig7_5.txt");
}
