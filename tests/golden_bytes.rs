//! Golden result bytes. `tests/golden/` pins the rendered synthesis
//! document (the `/synthesize` reply body) of every `specs/*.ftes`, plus the
//! CSV and JSON reports of one fixed explore suite. A change that claims
//! to keep behaviour — a search rewrite, a data-layout change, a kernel
//! optimization — must leave every one of these files byte-identical.
//!
//! A deliberate behaviour change regenerates them with
//! `FTES_BLESS_GOLDEN=1 cargo test --test golden_bytes` and says why in
//! CHANGES.md.

use ftes::explore::{run_suite, suite_to_csv, suite_to_json};
use ftes_jobs::{execute_request, parse_explore_request, JobRequest};
use std::sync::atomic::AtomicBool;

mod common;
use common::{check, root, spec_paths};

/// The pinned explore suite: two application seeds of a 12-process,
/// 3-node, k = 2 point, two rounds of six iterations, certification on.
const EXPLORE_PARAMS: &str = "processes=12 nodes=3 k=2 seeds=2 rounds=2 iters=6 seed=5 threads=2";

#[test]
fn every_spec_renders_its_golden_synthesis() {
    let paths = spec_paths(&root().join("specs"));
    assert!(!paths.is_empty(), "specs/ has no documents");
    for path in paths {
        let stem = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let spec = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let rendered = execute_request(
            &JobRequest::Synthesize { spec },
            &[],
            &AtomicBool::new(false),
            |_, _| {},
        )
        .unwrap_or_else(|e| panic!("{stem}: {e:?}"));
        check(&format!("{stem}.json"), &rendered);
    }
}

#[test]
fn explore_suite_renders_its_golden_reports() {
    let config = parse_explore_request(EXPLORE_PARAMS).expect("valid explore parameters");
    let outcome = run_suite(&config).expect("suite runs");
    check("explore_suite.csv", &suite_to_csv(&outcome));
    check("explore_suite.json", &suite_to_json(&outcome));
}
