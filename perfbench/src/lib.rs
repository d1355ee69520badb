//! The repository's benchmark: workloads, timing decorators, summary
//! statistics and the result line. `src/main.rs` is the command.

pub mod figs;
pub mod report;
pub mod run;
pub mod serve;
pub mod synth;
pub mod timed;
