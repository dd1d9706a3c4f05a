//! Mapping of every process *copy* (original + replicas) to a computation
//! node — the extension of `M: V → N` to the replica set `VR` (paper §6,
//! items 2 and 3 of the problem formulation).

use crate::CpgError;
use ftes_ft::PolicyAssignment;
use ftes_model::{Application, Architecture, Mapping, NodeId, ProcessId, Time};
use std::fmt;

/// Node assignment for every copy of every process.
///
/// Row `p` has one entry per copy of `p`'s policy (index 0 = the original
/// process, 1.. = replicas). Validated invariants:
///
/// * arity matches the policy's copy count,
/// * every copy sits on a node where the process has a WCET.
///
/// Replicas *prefer* pairwise distinct nodes (spatial redundancy, §3.2),
/// but sharing is permitted: transient faults hit individual executions,
/// not nodes, and the paper's fault model allows `k` to exceed the node
/// count (§2, footnote 1) — pure replication then necessarily co-locates
/// copies.
///
/// The rows are stored flat — every copy's node in process order plus a
/// row-offset table — so a mapping is two allocations whatever the process
/// count, and [`CopyMapping::rederive`] refills one in place.
#[derive(PartialEq, Eq)]
pub struct CopyMapping {
    /// Copy nodes, row after row.
    nodes: Vec<NodeId>,
    /// Row `p` is `nodes[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
}

/// Node counts up to this size keep [`CopyMapping::rederive`]'s load
/// scratch on the stack; larger architectures take one heap scratch per
/// derivation.
const STACK_NODES: usize = 16;

impl CopyMapping {
    /// Validates and wraps an explicit per-copy assignment.
    ///
    /// # Errors
    ///
    /// Returns [`CpgError::CopyArityMismatch`] or
    /// [`CpgError::InfeasibleCopyMapping`] when the invariants are
    /// violated.
    pub fn new(
        app: &Application,
        policies: &PolicyAssignment,
        rows: Vec<Vec<NodeId>>,
    ) -> Result<Self, CpgError> {
        if rows.len() != app.process_count() {
            return Err(CpgError::CopyArityMismatch {
                process: ProcessId::new(rows.len().min(app.process_count())),
                got: rows.len(),
                expected: app.process_count(),
            });
        }
        let mut mapping = CopyMapping::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
        for (i, row) in rows.iter().enumerate() {
            let pid = ProcessId::new(i);
            let copies = policies.policy(pid).copies().len();
            if row.len() != copies {
                return Err(CpgError::CopyArityMismatch {
                    process: pid,
                    got: row.len(),
                    expected: copies,
                });
            }
            let proc = app.process(pid);
            for &node in row {
                if proc.wcet_on(node).is_none() {
                    return Err(CpgError::InfeasibleCopyMapping(pid, node));
                }
            }
            mapping.nodes.extend_from_slice(row);
            mapping.close_row();
        }
        Ok(mapping)
    }

    /// Derives a copy mapping from a base process mapping: copy 0 follows
    /// the base mapping; replicas are placed greedily on the feasible node
    /// with the smallest accumulated load, preferring nodes not yet used by
    /// this process (distinct placement when possible).
    ///
    /// Allocates only the returned mapping (for architectures of up to 16
    /// nodes).
    ///
    /// # Errors
    ///
    /// Propagates [`CpgError::CopyArityMismatch`] (unreachable for
    /// consistent inputs).
    pub fn from_base(
        app: &Application,
        arch: &Architecture,
        base: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<Self, CpgError> {
        let copies = app.processes().map(|(pid, _)| policies.policy(pid).copies().len()).sum();
        let mut mapping = CopyMapping::with_capacity(app.process_count(), copies);
        mapping.rederive(app, arch, base, policies)?;
        Ok(mapping)
    }

    /// [`CopyMapping::from_base`] into an existing mapping, reusing its
    /// buffers: once they have grown to the largest placement seen, a
    /// rederivation allocates nothing (for architectures of up to 16
    /// nodes). On error the mapping's contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`CopyMapping::from_base`].
    pub fn rederive(
        &mut self,
        app: &Application,
        arch: &Architecture,
        base: &Mapping,
        policies: &PolicyAssignment,
    ) -> Result<(), CpgError> {
        let node_count = arch.node_count();
        let mut stack = [Time::ZERO; STACK_NODES];
        let mut heap = Vec::new();
        let load: &mut [Time] = if node_count <= STACK_NODES {
            &mut stack[..node_count]
        } else {
            heap.resize(node_count, Time::ZERO);
            &mut heap
        };
        for (pid, node) in base.iter() {
            load[node.index()] += base.wcet_of(app, pid);
        }
        self.nodes.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for (pid, proc) in app.processes() {
            let copies = policies.policy(pid).copies().len();
            let start = self.nodes.len();
            self.nodes.push(base.node_of(pid));
            while self.nodes.len() - start < copies {
                let row = &self.nodes[start..];
                let next = proc
                    .candidate_nodes()
                    .min_by_key(|n| {
                        let reuse = row.iter().filter(|&&r| r == *n).count();
                        (reuse, load[n.index()], n.index())
                    })
                    .expect("validated processes have a feasible node");
                load[next.index()] += proc.wcet_on(next).expect("feasible node");
                self.nodes.push(next);
            }
            self.close_row();
        }
        Ok(())
    }

    fn with_capacity(processes: usize, copies: usize) -> Self {
        let mut offsets = Vec::with_capacity(processes + 1);
        offsets.push(0);
        CopyMapping { nodes: Vec::with_capacity(copies), offsets }
    }

    /// Ends the row under construction at the current end of `nodes`.
    fn close_row(&mut self) {
        self.offsets.push(self.nodes.len() as u32);
    }

    /// Node of copy `copy` of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `copy` is out of range.
    pub fn node_of(&self, p: ProcessId, copy: usize) -> NodeId {
        self.copies_of(p)[copy]
    }

    /// All copy nodes of process `p` (index 0 = original).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn copies_of(&self, p: ProcessId) -> &[NodeId] {
        let i = p.index();
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The rows in process order.
    fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.offsets.windows(2).map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// The base mapping restricted to copy 0 of every process.
    ///
    /// # Errors
    ///
    /// Propagates [`ftes_model::ModelError`] if the restriction is somehow
    /// infeasible (cannot happen for a validated copy mapping).
    pub fn base_mapping(
        &self,
        app: &Application,
        arch: &Architecture,
    ) -> Result<Mapping, ftes_model::ModelError> {
        Mapping::new(app, arch, self.rows().map(|r| r[0]).collect())
    }
}

impl Clone for CopyMapping {
    fn clone(&self) -> Self {
        CopyMapping { nodes: self.nodes.clone(), offsets: self.offsets.clone() }
    }

    /// Reuses the existing buffers.
    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.offsets.clone_from(&source.offsets);
    }
}

/// Prints the nested rows (`CopyMapping { rows: [[NodeId(0)], …] }`), the
/// same text the row-per-process layout printed.
impl fmt::Debug for CopyMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rows<'a>(&'a CopyMapping);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.rows()).finish()
            }
        }
        f.debug_struct("CopyMapping").field("rows", &Rows(self)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_ft::{Policy, PolicyAssignment};
    use ftes_model::samples;

    fn fig3_setup(k: u32) -> (Application, Architecture, Mapping, PolicyAssignment) {
        let (app, arch) = samples::fig3();
        let mapping = Mapping::cheapest(&app, &arch).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        (app, arch, mapping, policies)
    }

    #[test]
    fn from_base_single_copy_follows_base() {
        let (app, arch, mapping, policies) = fig3_setup(2);
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        for (pid, _) in app.processes() {
            assert_eq!(cm.copies_of(pid), &[mapping.node_of(pid)]);
        }
        assert_eq!(cm.base_mapping(&app, &arch).unwrap(), mapping);
    }

    #[test]
    fn from_base_places_replicas_on_distinct_nodes() {
        let (app, arch, mapping, mut policies) = fig3_setup(1);
        // Replicate P1 (id 0) once: two copies on the two nodes.
        policies.set(ProcessId::new(0), Policy::replication(1));
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        let copies = cm.copies_of(ProcessId::new(0));
        assert_eq!(copies.len(), 2);
        assert_ne!(copies[0], copies[1]);
    }

    #[test]
    fn replication_of_restricted_process_shares_its_node() {
        let (app, arch, mapping, mut policies) = fig3_setup(1);
        // P3 (id 2) can only run on N1 -> both copies share it (the k >
        // node-count regime of §2, footnote 1).
        policies.set(ProcessId::new(2), Policy::replication(1));
        let cm = CopyMapping::from_base(&app, &arch, &mapping, &policies).unwrap();
        assert_eq!(cm.copies_of(ProcessId::new(2)), &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn explicit_rows_validated() {
        let (app, _arch, _mapping, mut policies) = fig3_setup(1);
        policies.set(ProcessId::new(0), Policy::replication(1));
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        // Wrong arity for P1.
        let bad = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0], vec![n0], vec![n0], vec![n0], vec![n0]],
        );
        assert!(matches!(bad, Err(CpgError::CopyArityMismatch { .. })));
        // Shared node for two copies is allowed.
        CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n0], vec![n0], vec![n0], vec![n0], vec![n0]],
        )
        .unwrap();
        // Infeasible node for P3 (id 2).
        let bad = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n1], vec![n0], vec![n1], vec![n0], vec![n0]],
        );
        assert!(matches!(bad, Err(CpgError::InfeasibleCopyMapping(..))));
        // A valid one.
        let ok = CopyMapping::new(
            &app,
            &policies,
            vec![vec![n0, n1], vec![n0], vec![n0], vec![n0], vec![n0]],
        )
        .unwrap();
        assert_eq!(ok.node_of(ProcessId::new(0), 1), n1);
    }
}
