//! Benchmark harness reproducing every figure and table of the paper's
//! evaluation (§V). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! The binary drives everything:
//!
//! ```text
//! cargo run -p ocep-bench --release -- all            # every experiment
//! cargo run -p ocep-bench --release -- fig6           # one figure
//! cargo run -p ocep-bench --release -- fig6 --full    # paper-scale (1M events)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod measure;
pub mod stats;

use ocep_core::ObsLevel;

/// Gate for the human-readable tables: `--json` turns them off so
/// stdout is a single machine-readable document.
pub mod output {
    use std::sync::atomic::{AtomicBool, Ordering};

    static HUMAN: AtomicBool = AtomicBool::new(true);

    /// Enables or disables the human-readable output.
    pub fn set_human(on: bool) {
        HUMAN.store(on, Ordering::Relaxed);
    }

    /// True when experiments should print their tables.
    #[must_use]
    pub fn human() -> bool {
        HUMAN.load(Ordering::Relaxed)
    }
}

/// `println!` that respects [`output::set_human`] — every experiment's
/// table goes through this so `--json` leaves stdout clean.
#[macro_export]
macro_rules! hprintln {
    ($($arg:tt)*) => {
        if $crate::output::human() {
            println!($($arg)*);
        }
    };
}

/// Global run options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Approximate number of events per generated workload.
    pub events: usize,
    /// Repetitions per configuration (pooled samples, distinct seeds).
    pub reps: u64,
    /// Observability level for the monitors under measurement (`--obs`;
    /// measures the instrumentation overhead — the CI perf gate bounds
    /// `Full` at 1.10× the uninstrumented baseline).
    pub obs: ObsLevel,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            events: 40_000,
            reps: 5,
            obs: ObsLevel::Off,
        }
    }
}

impl RunOptions {
    /// Paper-scale options: one million events per test case, five
    /// repetitions (§V-B).
    #[must_use]
    pub fn paper_scale() -> Self {
        RunOptions {
            events: 1_000_000,
            ..RunOptions::default()
        }
    }
}
