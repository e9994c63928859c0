//! Regenerates the thesis's Figure 7.1 and prints it. Pass --full-scale for paper sizes.
fn main() {
    let scale = zv_bench::Scale::from_args();
    let report = zv_bench::figures::fig7_1(&scale);
    print!("{report}");
    zv_bench::write_result("fig7_1", &report).expect("write bench_results/fig7_1.txt");
}
