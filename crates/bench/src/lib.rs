//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! Each experiment is a library function returning a rendered report (so it
//! is testable and composable); the `src/bin/*` binaries are thin wrappers.
//! `run_all` executes everything and writes the measured results used by
//! `EXPERIMENTS.md`.
//!
//! Experiments come in two families:
//!
//! * **Accuracy** (Tables 1/4/5/6, Figure 4, §5.5): train micro models on
//!   synthetic datasets, compress with weight pools, fine-tune, and
//!   evaluate — optionally through the bit-serial LUT simulation.
//!   Absolute accuracies differ from the paper (different data, scaled
//!   models); the *deltas and trends* are the reproduction target.
//! * **Runtime** (Table 7, Figures 7/8, §4 claims): run the instrumented
//!   kernels on the cycle-cost MCU simulator at full network scale.

pub mod accuracy;
pub mod experiments;
pub mod runtime;
pub mod table;

/// Global effort level for experiments: `fast` shrinks training epochs and
/// evaluation subsets for smoke testing; full runs reproduce the shapes
/// with tighter noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Reduced-effort mode.
    pub fast: bool,
}

impl Effort {
    /// Reads effort from the process arguments/environment: `--fast` or
    /// `WP_FAST=1` selects fast mode.
    pub fn from_env() -> Self {
        let fast = std::env::args().any(|a| a == "--fast")
            || std::env::var("WP_FAST").map(|v| v == "1").unwrap_or(false);
        Self { fast }
    }

    /// Base-training epochs.
    pub fn train_epochs(&self) -> usize {
        if self.fast {
            4
        } else {
            10
        }
    }

    /// Pool fine-tuning epochs.
    pub fn finetune_epochs(&self) -> usize {
        if self.fast {
            2
        } else {
            3
        }
    }

    /// Cap on test images for simulation-based (bit-serial) evaluations.
    pub fn sim_eval_images(&self) -> usize {
        if self.fast {
            48
        } else {
            160
        }
    }

    /// Cap on test images for plain float evaluations.
    pub fn eval_images(&self) -> usize {
        if self.fast {
            200
        } else {
            usize::MAX
        }
    }
}

/// The machine fingerprint every BENCH file carries, as JSON members
/// ready to splice into an object: the commit measured (suffixed
/// `-dirty` when the tree has uncommitted changes; "unknown" outside a
/// checkout), the CPU model and the core count.
pub fn fingerprint() -> String {
    let sha = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "\"git_sha\":\"{sha}\",\"cpu_model\":\"{}\",\"nproc\":{nproc}",
        cpu.replace(['"', '\\'], "")
    )
}
