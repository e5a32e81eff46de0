//! `fastt-fuzz` — seeded scenario enumeration, invariant fuzzing, and
//! automatic minimization for the FastT stack.
//!
//! The fuzzer enumerates the *full* scenario space the rest of the repo
//! only samples pointwise: graph shape × topology × fault/lifecycle
//! schedule × planner choice × fleet workload, all derived from one
//! [`fastt_sim::SeedStream`] so every scenario is reproducible from
//! `(root_seed, index)` alone. Each scenario drives a real
//! [`fastt::TrainingSession`] (and, when a workload is present, a real
//! [`fastt::ClusterManager`]) and is property-checked against the six
//! invariant families in [`oracle::FAMILIES`].
//!
//! On violation, [`minimize()`] delta-debugs the scenario along every
//! generation axis to a locally minimal reproducer, and [`replay`]
//! serializes it to a self-contained text file that replays
//! byte-for-byte. The committed files under `fuzz/corpus/` are such
//! reproducers plus the hand-written seed-21 fault and churn scenarios
//! the integration tests pin; all of them re-run on every `cargo test`.
//!
//! ```text
//! cargo run -p fastt-fuzz -- --seed 0 --count 200          # sweep
//! cargo run -p fastt-fuzz -- --replay fuzz/corpus/x.fuzz   # one file
//! ```

pub mod minimize;
pub mod oracle;
pub mod replay;
pub mod scenario;

pub use minimize::{minimize, Minimized};
pub use oracle::{check, Sabotage, Violation, FAMILIES};
pub use scenario::Scenario;
