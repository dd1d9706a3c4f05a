//! Smoke sizes of every workload: the whole generate → measure → check →
//! print path, in seconds, in both the timed and the traced mode.

use ftes::obs::validate::{parse_json, Json};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["synth_corpus", "explore_scale", "serve_mix"];

fn pipebench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("pipebench runs")
}

fn last_line(stdout: &[u8]) -> Json {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().last().expect("pipebench printed something");
    parse_json(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

#[test]
fn every_workload_prints_a_correct_result_in_both_modes() {
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", 5), ("1", 42)] {
            let args = [
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ];
            let out = pipebench(&args);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = last_line(&out.stdout);
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload} trace={trace}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_num).unwrap_or(0.0) >= 1.0);
            match result.get("metrics") {
                Some(Json::Obj(pairs)) => {
                    assert_eq!(pairs.len(), metrics, "{workload} trace={trace}")
                }
                other => panic!("metrics is not an object: {other:?}"),
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "serve_mix", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = pipebench(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
