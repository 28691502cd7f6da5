//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines (prefixed `#`) and, last, one JSON result line.
//! Exits 1 without a result if the workload cannot be set up, 2 on a
//! usage error.

use perfbench::run::{end_to_end, traced, Config};
use perfbench::workloads::Workload;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        corrupt_every: 0,
    };
    let result = if trace {
        traced(&cfg)
    } else {
        end_to_end(&cfg)
    };
    match result {
        Ok(report) => {
            for line in &report.context {
                println!("# {line}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", workload.name());
            ExitCode::from(1)
        }
    }
}
