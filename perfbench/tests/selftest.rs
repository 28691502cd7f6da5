//! Tests of the benchmark itself: tracing must not change the program,
//! verification must catch damage, and every workload and seed must
//! report the same metric names.

use perfbench::run::{end_to_end, fixed_ops, traced, Config};
use perfbench::workloads::Workload;
use std::sync::Mutex;

/// Runs take turns: spans of exited threads go to one process-wide
/// sink, and timing runs should not share the cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick(workload: Workload, seed: u64) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.3,
        corrupt_every: 0,
    }
}

/// On mem every count is a function of the inputs alone. (Over TCP the
/// kernel's socket buffers decide when frames aggregate, so two
/// undecorated runs need not agree either; that workload is left out.)
#[test]
fn decorated_and_undecorated_runs_count_the_same() {
    let _s = serial();
    for w in [
        Workload::PingpongMem,
        Workload::BurstMpiMem,
        Workload::RpcThreadedMem,
    ] {
        let (plain, failed) = fixed_ops(w, 11, 300, false, 0).expect("undecorated run");
        let (decorated, failed_traced) = fixed_ops(w, 11, 300, true, 0).expect("decorated run");
        assert_eq!(failed, 0, "{}", w.name());
        assert_eq!(failed_traced, 0, "{}", w.name());
        assert!(plain.wire.frames_sent > 0, "{}", w.name());
        assert_eq!(plain, decorated, "{}: tracing changed the counts", w.name());
    }
}

#[test]
fn a_corrupted_echo_is_a_failed_op() {
    let _s = serial();
    for w in Workload::ALL {
        let (_, failed) = fixed_ops(w, 5, 100, false, 10).expect("run completes");
        assert_eq!(failed, 10, "{}: every tenth op carries damage", w.name());
    }
    let report = end_to_end(&Config {
        corrupt_every: 10,
        ..quick(Workload::PingpongMem, 5)
    })
    .expect("run completes");
    assert!(!report.correct);
    assert!(report.failed > 0 && report.failed * 10 <= report.attempted + 10);
    assert!(report.to_json().contains("\"correct\": false"));
}

fn names(r: &perfbench::report::Report) -> Vec<&'static str> {
    r.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn seeds_change_inputs_not_metric_names() {
    let _s = serial();
    for w in Workload::ALL {
        let (a, b) = (end_to_end(&quick(w, 1)), end_to_end(&quick(w, 2)));
        let (a, b) = (a.expect("seed 1"), b.expect("seed 2"));
        assert!(a.correct && b.correct, "{}", w.name());
        assert_eq!(names(&a), names(&b), "{}", w.name());
    }
    // Different inputs: the payload bytes differ (the sizes too, where
    // drawn), so over a burst the delivered byte counts differ.
    let (a, _) = fixed_ops(Workload::BurstMpiMem, 1, 20, false, 0).expect("seed 1");
    let (b, _) = fixed_ops(Workload::BurstMpiMem, 2, 20, false, 0).expect("seed 2");
    assert_ne!(a.engine.bytes_enqueued, b.engine.bytes_enqueued);
}

/// Every workload reports every per-layer metric, and the layers it
/// exercises read nonzero — including the driver and strategy spans
/// recorded on the threaded runtime's progression thread.
#[test]
fn traced_runs_reach_the_layers_each_workload_exercises() {
    let _s = serial();
    let reach: [(Workload, &[&str]); 4] = [
        (
            Workload::PingpongMem,
            &[
                "api.isend_ns",
                "engine.progress_self_ns_per_msg",
                "strategy.schedule_ns",
                "driver.post_send_ns",
            ],
        ),
        (
            Workload::BurstMpiMem,
            &[
                "mad_mpi.isend_ns",
                "mad_mpi.test_calls_per_msg",
                "engine.aggregation_ratio",
                "strategy.entries_per_plan",
            ],
        ),
        (
            Workload::StreamTcp,
            &[
                "driver.pump_ns",
                "engine.rendezvous_entries_per_msg",
                "driver.wire_bytes_per_payload_byte",
            ],
        ),
        (
            Workload::RpcThreadedMem,
            &[
                "threaded.isend_ns",
                "threaded.take_miss_ratio",
                "driver.post_send_ns",
                "strategy.schedule_ns",
            ],
        ),
    ];
    let mut all_names = None;
    for (w, nonzero) in reach {
        let r = traced(&quick(w, 3)).expect("traced run");
        assert!(r.correct, "{}", w.name());
        for name in nonzero
            .iter()
            .chain(&["trace.empty_span_ns", "trace.unattributed_ns_per_op"])
        {
            let v = r.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let n = names(&r);
        assert_eq!(*all_names.get_or_insert_with(|| n.clone()), n);
        // Frames of both engines are counted (44 wire bytes per 16 B
        // ping and per 16 B pong; 92 per 64 B request and reply), so
        // the spans of the echo and progression threads were harvested.
        let wire = r
            .get("driver.wire_bytes_per_payload_byte")
            .expect("declared");
        let both = match w {
            Workload::PingpongMem => 2.75,
            Workload::RpcThreadedMem => 92.0 / 64.0,
            _ => wire,
        };
        assert!((wire - both).abs() < 0.01, "{}: {wire}", w.name());
        if w == Workload::PingpongMem {
            // A layer a workload does not reach reads 0.
            assert_eq!(r.get("mad_mpi.isend_ns"), Some(0.0));
            assert_eq!(r.get("threaded.isend_ns"), Some(0.0));
        }
    }
}

/// The benchmark declaration lists exactly the metrics the runs print.
#[test]
fn the_declaration_matches_the_output() {
    let _s = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let decl = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let count = |r: &perfbench::report::Report| {
        for m in &r.metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(decl.contains(&entry), "{entry} not declared");
        }
        r.metrics.len()
    };
    let w = Workload::PingpongMem;
    let e2e = count(&end_to_end(&quick(w, 1)).expect("run"));
    let layers = count(&traced(&quick(w, 1)).expect("run"));
    assert_eq!(decl.matches("\"better\"").count(), e2e + layers);
    for w in Workload::ALL {
        assert!(decl.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
