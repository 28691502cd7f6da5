//! Wall-clock benchmark of the NewMadeleine engine: four closed-loop
//! workloads over the mem and TCP drivers, an end-to-end run with
//! tracing off, and a traced run that splits the cost by layer. See
//! `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inputs;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
