//! Regenerates the thesis's Figure 7.4 and prints it. Pass --full-scale for paper sizes.
fn main() {
    let scale = zv_bench::Scale::from_args();
    let report = zv_bench::figures::fig7_4(&scale);
    print!("{report}");
    zv_bench::write_result("fig7_4", &report).expect("write bench_results/fig7_4.txt");
}
