//! Library surface of the workspace automation driver: the hand-rolled
//! Rust lexer, the static-analysis passes built on it, the fixture
//! corpus harness that keeps the passes honest, and the artifact
//! validators (`check-trace`'s semantic rules, `gate`'s baseline and
//! bound checks over metric rows, `expo-check`'s exposition rules). The
//! `cargo xtask` binary (`src/main.rs`) drives these;
//! integration tests exercise them directly.

pub mod expo_check;
pub mod fixtures;
pub mod gate;
pub mod lexer;
pub mod lints;
pub mod trace_check;
pub mod trace_read;

/// The closed-loop result cases of the retired `slo-check` command, run
/// through [`gate`] with the same verdicts.
#[cfg(test)]
#[path = "gate/slo_check_cases.rs"]
mod slo_check;
