//! Smoke tests: every workload at tiny scale, with its output checks, and
//! the seed-fixed metrics repeating exactly across two runs of one seed.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs the benchmark binary in smoke mode and parses its JSON line into
/// `correct`, `attempted`, `failed` and the metrics by name.
fn smoke(workload: &str, seed: u64) -> (bool, u64, u64, BTreeMap<String, f64>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0", "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    // The line is flat apart from the metrics object, and no name holds a
    // comma, a colon or a brace.
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest[..rest.find([',', '}']).expect("field end")].to_string()
    };
    let metrics_at = line.find("\"metrics\":{").expect("metrics") + "\"metrics\":{".len();
    let metrics = line[metrics_at..line.len() - 2]
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("name:value");
            (k.trim_matches('"').to_string(), v.parse().expect("a number"))
        })
        .collect();
    (
        field("correct") == "true",
        field("attempted").parse().expect("attempted"),
        field("failed").parse().expect("failed"),
        metrics,
    )
}

/// Wall times and memory change from run to run; everything else the
/// benchmark reports is a count fixed by the seed.
fn seed_fixed(name: &str) -> bool {
    !(name.ends_with("_s")
        || name.contains("_ms")
        || name == "peak_rss_mib"
        || name == "peer_rounds_per_s")
}

fn check_repeats(workload: &str) {
    let (correct, attempted, failed, first) = smoke(workload, 7);
    assert!(correct, "{workload}: an output check failed");
    assert!(attempted > 0, "{workload}: nothing attempted");
    let (_, attempted2, failed2, second) = smoke(workload, 7);
    assert_eq!((attempted, failed), (attempted2, failed2), "{workload}: operations differ");
    for (name, v) in first.iter().filter(|(n, _)| seed_fixed(n)) {
        assert_eq!(Some(v), second.get(name), "{workload}: {name} differs between two runs");
    }
    for name in ["shuffles_per_peer_round", "wire_bytes_per_peer_round"] {
        assert!(first[name] > 0.0, "{workload}: {name} is zero");
    }
}

#[test]
fn nylon_paper_repeats() {
    check_repeats("nylon-paper");
}

#[test]
fn nylon_paper_s2_repeats() {
    check_repeats("nylon-paper-s2");
}

#[test]
fn engines_faults_repeats() {
    check_repeats("engines-faults");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [&["--workload", "nope", "--seed", "1"][..], &["--seed", "1"], &["--workload"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
