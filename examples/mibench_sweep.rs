//! Sweep the whole MiBench-substitute suite over FTSPM and both
//! baselines, printing the data behind Figs. 4–8.
//!
//! ```sh
//! cargo run --release --example mibench_sweep
//! ```

use ftspm::harness::{report, RunBuilder};
use ftspm::mem::Clock;
use ftspm::workloads::evaluation_set;

fn main() {
    let evals = RunBuilder::new().run_suite(evaluation_set());
    println!("{}", report::summary(&evals));
    for e in &evals {
        println!("{}", report::fig_traffic(&e.ftspm));
    }
    println!("{}", report::fig5(&evals));
    println!("{}", report::fig6(&evals));
    println!("{}", report::fig7(&evals));
    println!("{}", report::fig8(&evals, Clock::default()));
    assert!(evals.iter().all(|e| e.all_checksums_ok()));
}
