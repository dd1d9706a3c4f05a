//! Process-to-node mappings (`M: V → N`, paper §4, §6).

use crate::{Application, Architecture, ModelError, NodeId, ProcessId, Time};

/// A complete mapping of every application process to a computation node.
///
/// Invariants enforced by [`Mapping::new`]:
/// * every process is assigned,
/// * every assignment targets an existing node,
/// * every assignment is feasible (the process has a WCET on that node),
/// * designer-fixed processes sit on their fixed node.
///
/// # Examples
///
/// ```
/// use ftes_model::{samples, Mapping, NodeId};
///
/// # fn main() -> Result<(), ftes_model::ModelError> {
/// let (app, arch) = samples::fig3();
/// // Map everything on N0 except P2 which also runs on N1.
/// let mapping = Mapping::new(
///     &app,
///     &arch,
///     vec![NodeId::new(0), NodeId::new(1), NodeId::new(0), NodeId::new(0), NodeId::new(0)],
/// )?;
/// assert_eq!(mapping.node_of(ftes_model::ProcessId::new(1)), NodeId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Mapping {
    assign: Vec<NodeId>,
}

impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping { assign: self.assign.clone() }
    }

    /// Reuses the existing allocation.
    fn clone_from(&mut self, source: &Self) {
        self.assign.clone_from(&source.assign);
    }
}

impl Mapping {
    /// Validates and wraps an assignment vector indexed by process id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IncompleteMapping`],
    /// [`ModelError::UnknownNode`], [`ModelError::InfeasibleMapping`] or
    /// [`ModelError::InfeasibleFixedMapping`] when the invariants above are
    /// violated.
    pub fn new(
        app: &Application,
        arch: &Architecture,
        assign: Vec<NodeId>,
    ) -> Result<Self, ModelError> {
        if assign.len() != app.process_count() {
            let missing = ProcessId::new(assign.len().min(app.process_count()));
            return Err(ModelError::IncompleteMapping(missing));
        }
        for (i, &node) in assign.iter().enumerate() {
            let pid = ProcessId::new(i);
            if node.index() >= arch.node_count() {
                return Err(ModelError::UnknownNode(node));
            }
            let proc = app.process(pid);
            if proc.wcet_on(node).is_none() {
                return Err(ModelError::InfeasibleMapping(pid, node));
            }
            if let Some(fixed) = proc.fixed_node() {
                if fixed != node {
                    return Err(ModelError::InfeasibleFixedMapping(pid, node));
                }
            }
        }
        Ok(Mapping { assign })
    }

    /// Builds the mapping that places every process on its cheapest feasible
    /// node (ignoring contention); useful as a deterministic starting point.
    pub fn cheapest(app: &Application, arch: &Architecture) -> Result<Self, ModelError> {
        let assign = app
            .processes()
            .map(|(_, p)| {
                p.fixed_node().unwrap_or_else(|| {
                    p.candidate_nodes()
                        .min_by_key(|&n| p.wcet_on(n).expect("candidate node has wcet"))
                        .expect("validated application has a feasible node")
                })
            })
            .collect();
        Mapping::new(app, arch, assign)
    }

    /// The node `M(Pi)` executing process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn node_of(&self, p: ProcessId) -> NodeId {
        self.assign[p.index()]
    }

    /// WCET of `p` under this mapping.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for `app` (a validated mapping always
    /// has a WCET on the assigned node).
    pub fn wcet_of(&self, app: &Application, p: ProcessId) -> Time {
        app.process(p).wcet_on(self.node_of(p)).expect("mapping invariant: wcet exists")
    }

    /// Returns `true` if `m`'s sender and receiver share a node (the message
    /// then never reaches the bus, §4).
    pub fn is_message_internal(&self, app: &Application, m: crate::MessageId) -> bool {
        let msg = app.message(m);
        self.node_of(msg.src()) == self.node_of(msg.dst())
    }

    /// Replaces the node of one process, returning a new mapping.
    ///
    /// Validates only the moved process: `self` already satisfies the
    /// invariants for `app` and `arch`, so the result is the same `Result`
    /// [`Mapping::new`] returns for the edited assignment vector.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownProcess`] if `p` is out of range; otherwise
    /// same as [`Mapping::new`] for the modified assignment.
    pub fn with_move(
        &self,
        app: &Application,
        arch: &Architecture,
        p: ProcessId,
        node: NodeId,
    ) -> Result<Self, ModelError> {
        let mut moved = self.clone();
        moved.move_process(app, arch, p, node)?;
        Ok(moved)
    }

    /// [`Mapping::with_move`] in place: on success `self` maps `p` to
    /// `node`; on error `self` is unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`Mapping::with_move`].
    pub fn move_process(
        &mut self,
        app: &Application,
        arch: &Architecture,
        p: ProcessId,
        node: NodeId,
    ) -> Result<(), ModelError> {
        if p.index() >= self.assign.len() {
            return Err(ModelError::UnknownProcess(p));
        }
        if self.assign.len() != app.process_count() {
            // Not a mapping of `app`: `Mapping::new`'s arity check fails first.
            let missing = ProcessId::new(self.assign.len().min(app.process_count()));
            return Err(ModelError::IncompleteMapping(missing));
        }
        if node.index() >= arch.node_count() {
            return Err(ModelError::UnknownNode(node));
        }
        let proc = app.process(p);
        if proc.wcet_on(node).is_none() {
            return Err(ModelError::InfeasibleMapping(p, node));
        }
        if proc.fixed_node().is_some_and(|fixed| fixed != node) {
            return Err(ModelError::InfeasibleFixedMapping(p, node));
        }
        self.assign[p.index()] = node;
        Ok(())
    }

    /// Iterator over `(ProcessId, NodeId)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, NodeId)> + '_ {
        self.assign.iter().enumerate().map(|(i, &n)| (ProcessId::new(i), n))
    }

    /// Total WCET placed on each node (load vector).
    pub fn load(&self, app: &Application, node_count: usize) -> Vec<Time> {
        let mut load = vec![Time::ZERO; node_count];
        for (p, n) in self.iter() {
            load[n.index()] += self.wcet_of(app, p);
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApplicationBuilder, ProcessSpec};

    fn app_and_arch() -> (Application, Architecture) {
        let mut b = ApplicationBuilder::new(2);
        b.add_process(ProcessSpec::new("P0", [Some(Time::new(20)), Some(Time::new(30))]));
        b.add_process(ProcessSpec::new("P1", [Some(Time::new(40)), None]));
        let app = b.deadline(Time::new(100)).build().unwrap();
        (app, Architecture::homogeneous(2).unwrap())
    }

    #[test]
    fn cheapest_picks_minimum_wcet() {
        let (app, arch) = app_and_arch();
        let m = Mapping::cheapest(&app, &arch).unwrap();
        assert_eq!(m.node_of(ProcessId::new(0)), NodeId::new(0));
        assert_eq!(m.node_of(ProcessId::new(1)), NodeId::new(0));
        assert_eq!(m.wcet_of(&app, ProcessId::new(0)), Time::new(20));
    }

    #[test]
    fn rejects_infeasible_assignment() {
        let (app, arch) = app_and_arch();
        let err = Mapping::new(&app, &arch, vec![NodeId::new(0), NodeId::new(1)]).unwrap_err();
        assert_eq!(err, ModelError::InfeasibleMapping(ProcessId::new(1), NodeId::new(1)));
    }

    #[test]
    fn rejects_incomplete_and_unknown_node() {
        let (app, arch) = app_and_arch();
        assert!(matches!(
            Mapping::new(&app, &arch, vec![NodeId::new(0)]),
            Err(ModelError::IncompleteMapping(_))
        ));
        assert_eq!(
            Mapping::new(&app, &arch, vec![NodeId::new(0), NodeId::new(7)]).unwrap_err(),
            ModelError::UnknownNode(NodeId::new(7))
        );
    }

    #[test]
    fn respects_fixed_node() {
        let mut b = ApplicationBuilder::new(2);
        b.add_process(
            ProcessSpec::new("P0", [Some(Time::new(20)), Some(Time::new(30))])
                .fixed_node(NodeId::new(1)),
        );
        let app = b.deadline(Time::new(100)).build().unwrap();
        let arch = Architecture::homogeneous(2).unwrap();
        // cheapest() must keep the fixed node even though N0 is cheaper.
        let m = Mapping::cheapest(&app, &arch).unwrap();
        assert_eq!(m.node_of(ProcessId::new(0)), NodeId::new(1));
        // Explicit violation is rejected.
        assert!(matches!(
            Mapping::new(&app, &arch, vec![NodeId::new(0)]),
            Err(ModelError::InfeasibleFixedMapping(..))
        ));
    }

    #[test]
    fn with_move_and_load() {
        let (app, arch) = app_and_arch();
        let m = Mapping::cheapest(&app, &arch).unwrap();
        let m2 = m.with_move(&app, &arch, ProcessId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(m2.node_of(ProcessId::new(0)), NodeId::new(1));
        let load = m2.load(&app, 2);
        assert_eq!(load, vec![Time::new(40), Time::new(30)]);
    }

    #[test]
    fn internal_message_detection() {
        let mut b = ApplicationBuilder::new(2);
        let p0 = b.add_process(ProcessSpec::uniform("P0", Time::new(5), 2));
        let p1 = b.add_process(ProcessSpec::uniform("P1", Time::new(5), 2));
        let m0 = b.add_message("m0", p0, p1, Time::new(2)).unwrap();
        let app = b.deadline(Time::new(50)).build().unwrap();
        let arch = Architecture::homogeneous(2).unwrap();
        let same = Mapping::new(&app, &arch, vec![NodeId::new(0), NodeId::new(0)]).unwrap();
        let cross = Mapping::new(&app, &arch, vec![NodeId::new(0), NodeId::new(1)]).unwrap();
        assert!(same.is_message_internal(&app, m0));
        assert!(!cross.is_message_internal(&app, m0));
    }
}
