//! Golden FT-CPG bytes. `tests/golden/ftcpg/` pins the graphs that FT-CPG
//! construction produces:
//!
//! - the DOT rendering of the paper's sample graphs (Fig. 5 at k = 1 and
//!   k = 2, the single Fig. 1 process);
//! - one fingerprint line per FT-CPG of each `specs/*.ftes` winner and of
//!   a few generated configurations: node count, edge count and the FNV-1a
//!   hash of the graph's `{:?}` dump;
//! - the node-limit boundary and one anchored rebuild.
//!
//! A change to construction that claims to keep behaviour (a guard
//! representation, an allocation cut) must leave these files
//! byte-identical. A deliberate change regenerates them with
//! `FTES_BLESS_GOLDEN=1 cargo test --test ftcpg_golden` and says why in
//! CHANGES.md.

use ftes::ft::{Policy, PolicyAssignment};
use ftes::ftcpg::{
    build_ftcpg, build_ftcpg_anchored, dot, BuildConfig, CopyMapping, CpgError, FtCpg,
};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{
    fnv1a64, samples, Application, Architecture, FaultModel, Mapping, ProcessId, Transparency,
};
use ftes::spec::parse_spec;
use ftes::{synthesize_system, FlowConfig};
use std::fmt::Write as _;

mod common;
use common::{check, root, spec_paths};

/// `nodes=N edges=E fnv=H`: the graph's size and the hash of its full
/// `{:?}` dump (nodes, guards, edges, names, joins).
fn fingerprint(cpg: &FtCpg) -> String {
    let dump = format!("{cpg:?}");
    format!(
        "nodes={} edges={} fnv={:016x}",
        cpg.node_count(),
        cpg.edge_count(),
        fnv1a64(dump.as_bytes())
    )
}

fn outcome(result: &Result<FtCpg, CpgError>) -> String {
    match result {
        Ok(cpg) => fingerprint(cpg),
        Err(e) => format!("error={e:?}"),
    }
}

/// One fully decided configuration of an application.
#[derive(Clone)]
struct Config {
    app: Application,
    arch: Architecture,
    mapping: Mapping,
    policies: PolicyAssignment,
    transparency: Transparency,
    k: u32,
}

impl Config {
    fn copies(&self) -> CopyMapping {
        CopyMapping::from_base(&self.app, &self.arch, &self.mapping, &self.policies)
            .expect("placeable policies")
    }

    fn build(&self, config: BuildConfig) -> Result<FtCpg, CpgError> {
        let copies = self.copies();
        build_ftcpg(
            &self.app,
            &self.policies,
            &copies,
            FaultModel::new(self.k),
            &self.transparency,
            config,
        )
    }
}

fn fig5(k: u32) -> Config {
    let (app, arch, transparency) = samples::fig5();
    let mapping = Mapping::new(&app, &arch, samples::fig5_mapping()).expect("fig5 mapping");
    let policies = PolicyAssignment::uniform_reexecution(&app, k);
    Config { app, arch, mapping, policies, transparency, k }
}

fn fig1(k: u32) -> Config {
    let (app, arch) = samples::fig1_process(1);
    let mapping = Mapping::cheapest(&app, &arch).expect("fig1 mapping");
    let policies = PolicyAssignment::uniform_reexecution(&app, k);
    Config { app, arch, mapping, policies, transparency: Transparency::none(), k }
}

/// Policy mixes of the generated configurations.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// Re-execution everywhere.
    Reexecution,
    /// Processes cycle through replication, checkpointing and
    /// re-execution.
    Combined,
}

fn generated(generator: &GeneratorConfig, seed: u64, k: u32, mix: Mix) -> Config {
    let app = generate_application(generator, seed).expect("generated application");
    let arch = Architecture::homogeneous(generator.node_count).expect("architecture");
    let mapping = Mapping::cheapest(&app, &arch).expect("mapping");
    let mut policies = PolicyAssignment::uniform_reexecution(&app, k);
    if let Mix::Combined = mix {
        for i in 0..app.process_count() {
            let policy = match i % 3 {
                0 => Policy::replication(k),
                1 => Policy::checkpointing(k, 2),
                _ => continue,
            };
            policies.set(ProcessId::new(i), policy);
        }
    }
    Config { app, arch, mapping, policies, transparency: Transparency::none(), k }
}

/// The generated configurations: `(label, config)`.
fn generated_configs() -> Vec<(String, Config)> {
    let mut out = Vec::new();
    for (shape, generator, seed, k, mix) in [
        ("default", GeneratorConfig::new(8, 2), 1, 2, Mix::Reexecution),
        ("default", GeneratorConfig::new(12, 3), 4, 2, Mix::Combined),
        ("chainy", GeneratorConfig::chainy(10, 3), 7, 3, Mix::Reexecution),
        ("wide", GeneratorConfig::wide(10, 2), 2, 2, Mix::Combined),
    ] {
        let n = generator.process_count;
        let nodes = generator.node_count;
        let config = generated(&generator, seed, k, mix);
        // The same configuration with every message frozen.
        let frozen =
            Config { transparency: Transparency::frozen_messages_only(), ..config.clone() };
        let label = format!("gen {shape} n={n} nodes={nodes} seed={seed} k={k} mix={mix:?}");
        out.push((format!("{label} frozen-messages"), frozen));
        out.push((label, config));
    }
    out
}

#[test]
fn paper_samples_render_their_golden_dot() {
    for (name, config) in
        [("fig5_k1.dot", fig5(1)), ("fig5_k2.dot", fig5(2)), ("fig1.dot", fig1(2))]
    {
        let cpg = config.build(BuildConfig::default()).expect("paper sample builds");
        check(&format!("ftcpg/{name}"), &dot::ftcpg_to_dot(&cpg));
    }
}

#[test]
fn winners_and_generated_configurations_match_their_fingerprints() {
    let mut out = String::new();
    for path in spec_paths(&root().join("specs")) {
        let stem = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let flow = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
        let psi = synthesize_system(
            &spec.app,
            &spec.platform,
            spec.fault_model,
            &spec.transparency,
            flow,
        )
        .unwrap_or_else(|e| panic!("{stem}: {e}"));
        let built = build_ftcpg(
            &spec.app,
            &psi.policies,
            &psi.copies,
            spec.fault_model,
            &spec.transparency,
            BuildConfig::default(),
        );
        if let (Some(exact), Ok(cpg)) = (&psi.exact, &built) {
            assert_eq!(&exact.cpg, cpg, "{stem}: the flow certified a different FT-CPG");
        }
        writeln!(out, "spec {stem}: {}", outcome(&built)).expect("write to string");
    }
    for (label, config) in generated_configs() {
        writeln!(out, "{label}: {}", outcome(&config.build(BuildConfig::default())))
            .expect("write to string");
    }
    check("ftcpg/fingerprints.txt", &out);
}

#[test]
fn node_limit_boundary_and_anchored_rebuild_match_their_golden_lines() {
    let mut out = String::new();
    let mut cases = vec![("fig5 k=2".to_string(), fig5(2))];
    cases.extend(generated_configs().into_iter().take(2));
    for (label, config) in cases {
        let full = config.build(BuildConfig::default()).expect("fits the default budget");
        let n = full.node_count();
        let at_limit = config.build(BuildConfig { node_limit: n }).expect("fits exactly");
        assert_eq!(at_limit, full, "{label}: node_limit = {n} changed the graph");
        let below = config.build(BuildConfig { node_limit: n - 1 });
        assert_eq!(below, Err(CpgError::GraphTooLarge { limit: n - 1 }), "{label}");
        writeln!(out, "limit {label}: node_limit={n} {}", fingerprint(&at_limit))
            .expect("write to string");
        writeln!(out, "limit {label}: node_limit={} {}", n - 1, outcome(&below))
            .expect("write to string");
    }

    // Anchor on a chain-shaped application with re-execution everywhere,
    // then rebuild with one process checkpointed: the one whose earliest
    // predecessor comes last in topological order, so the rebuild reuses
    // the longest prefix.
    let base = generated(&GeneratorConfig::chainy(10, 3), 7, 3, Mix::Reexecution);
    let k = FaultModel::new(base.k);
    let (_, mut anchor) = build_ftcpg_anchored(
        &base.app,
        &base.policies,
        &base.copies(),
        k,
        &base.transparency,
        BuildConfig::default(),
    )
    .expect("anchored build");
    let mut delta = base.clone();
    let order = delta.app.topological_order();
    let pos = |p: ProcessId| order.iter().position(|&q| q == p).expect("in topological order");
    let target = order
        .iter()
        .copied()
        .max_by_key(|&q| {
            delta.app.predecessors(q).iter().map(|&(p, _)| pos(p)).fold(pos(q), usize::min)
        })
        .expect("non-empty application");
    delta.policies.set(target, Policy::checkpointing(delta.k, 2));
    let (rebuilt, stats) = anchor
        .rebuild(
            &delta.app,
            &delta.policies,
            &delta.copies(),
            k,
            &delta.transparency,
            BuildConfig::default(),
        )
        .expect("rebuild");
    let fresh = delta.build(BuildConfig::default()).expect("fresh build");
    assert_eq!(rebuilt, fresh, "the anchored rebuild diverged from a fresh build");
    assert!(stats.reused_positions > 0, "a trailing delta reuses a prefix: {stats:?}");
    writeln!(
        out,
        "rebuild gen chainy n=10 nodes=3 seed=7 k=3, {} checkpointed: \
         reused_positions={}/{} reused_nodes={} {}",
        delta.app.process(target).name(),
        stats.reused_positions,
        stats.total_positions,
        stats.reused_nodes,
        fingerprint(&rebuilt)
    )
    .expect("write to string");
    check("ftcpg/limits_and_rebuild.txt", &out);
}
