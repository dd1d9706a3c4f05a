//! Guards: conjunctions of fault-condition literals (paper §5.1).
//!
//! A condition `F_{Pi^m}` is produced by a *conditional* FT-CPG node (an
//! execution copy that may still experience a fault); it is `true` when the
//! copy is hit by a fault. A guard is the conjunction of condition values
//! under which an FT-CPG node executes — the column headers of the schedule
//! tables in Fig. 6.

use crate::CpgNodeId;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// One condition literal: the producing conditional node and the required
/// outcome (`true` = fault occurred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// The conditional FT-CPG node producing the condition.
    pub cond: CpgNodeId,
    /// Required outcome: `true` iff the copy must have experienced a fault.
    pub fault: bool,
}

impl Literal {
    /// The fault outcome `F` of a conditional node.
    pub fn fault(cond: CpgNodeId) -> Self {
        Literal { cond, fault: true }
    }

    /// The no-fault outcome `!F` of a conditional node.
    pub fn no_fault(cond: CpgNodeId) -> Self {
        Literal { cond, fault: false }
    }

    /// The complementary literal.
    pub fn negated(self) -> Self {
        Literal { cond: self.cond, fault: !self.fault }
    }
}

/// A conjunction of condition literals, kept sorted and duplicate-free.
///
/// The empty guard is `true` (unconditional execution). The literals are
/// shared: cloning a guard bumps a reference count, and a conjunction
/// allocates only when it is actually built.
///
/// # Examples
///
/// ```
/// use ftes_ftcpg::{CpgNodeId, Guard, Literal};
///
/// let c = CpgNodeId::new(0);
/// let fault = Guard::of([Literal::fault(c)]);
/// let ok = Guard::of([Literal::no_fault(c)]);
/// assert!(fault.excludes(&ok), "complementary outcomes are disjoint");
/// assert!(!fault.excludes(&Guard::always()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Guard {
    literals: Arc<[Literal]>,
}

impl Guard {
    /// The unconditional guard (`true`).
    pub fn always() -> Self {
        Guard::default()
    }

    /// Builds a guard from literals (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if the literals are contradictory (both outcomes of one
    /// condition) — such a guard would label unreachable schedule entries
    /// and indicates a builder bug.
    pub fn of(literals: impl IntoIterator<Item = Literal>) -> Self {
        let mut v: Vec<Literal> = literals.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        for w in v.windows(2) {
            assert!(w[0].cond != w[1].cond, "contradictory guard literals for {:?}", w[0].cond);
        }
        Guard { literals: v.into() }
    }

    /// The literals of the conjunction, sorted by condition id.
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// `true` iff the guard is the unconditional `true`.
    pub fn is_always(&self) -> bool {
        self.literals.is_empty()
    }

    /// Number of *fault* literals — the number of faults that have certainly
    /// occurred in any scenario satisfying this guard. Used for fault-budget
    /// accounting during FT-CPG construction.
    pub fn fault_count(&self) -> u32 {
        self.literals.iter().filter(|l| l.fault).count() as u32
    }

    /// Conjunction with one more literal.
    ///
    /// Returns `None` if the result would be contradictory.
    pub fn and_literal(&self, lit: Literal) -> Option<Guard> {
        match self.literals.binary_search_by_key(&lit.cond, |l| l.cond) {
            Ok(i) => {
                if self.literals[i].fault == lit.fault {
                    Some(self.clone())
                } else {
                    None
                }
            }
            Err(i) => {
                let (head, tail) = self.literals.split_at(i);
                let literals =
                    head.iter().copied().chain(std::iter::once(lit)).chain(tail.iter().copied());
                Some(Guard { literals: literals.collect() })
            }
        }
    }

    /// Conjunction of two guards.
    ///
    /// Returns `None` if they are contradictory (contain complementary
    /// literals) — the combined context is unreachable.
    pub fn and(&self, other: &Guard) -> Option<Guard> {
        let (len, _) = merge_scan(&self.literals, &other.literals)?;
        if len == self.literals.len() {
            return Some(self.clone());
        }
        if len == other.literals.len() {
            return Some(other.clone());
        }
        // Allocate the merged slice once, at its final length, then fill it
        // in place (a fresh `Arc` is unique, so `get_mut` cannot fail).
        let mut literals: Arc<[Literal]> =
            std::iter::repeat_n(Literal::fault(CpgNodeId::new(0)), len).collect();
        let out = Arc::get_mut(&mut literals).expect("a fresh Arc is unique");
        let (a, b) = (&self.literals, &other.literals);
        let (mut i, mut j) = (0, 0);
        for slot in out.iter_mut() {
            let take_a = j == b.len() || (i < a.len() && a[i].cond <= b[j].cond);
            if take_a {
                *slot = a[i];
                if j < b.len() && a[i].cond == b[j].cond {
                    j += 1;
                }
                i += 1;
            } else {
                *slot = b[j];
                j += 1;
            }
        }
        Some(Guard { literals })
    }

    /// Number of fault literals of `self ∧ other`, or `None` if the two
    /// guards are contradictory — the same answer as
    /// `self.and(other).map(|g| g.fault_count())`, computed without
    /// building the conjunction. FT-CPG construction uses it to reject
    /// unreachable and over-budget contexts before allocating them.
    pub fn and_fault_count(&self, other: &Guard) -> Option<u32> {
        merge_scan(&self.literals, &other.literals).map(|(_, faults)| faults)
    }

    /// `true` iff the two guards can never hold simultaneously (they contain
    /// complementary literals). Mutually exclusive guards may share a
    /// processor or bus interval — the alternative-paths-are-disjoint
    /// property of §5.1.
    pub fn excludes(&self, other: &Guard) -> bool {
        merge_scan(&self.literals, &other.literals).is_none()
    }

    /// `true` iff every scenario satisfying `self` also satisfies `other`
    /// (`self` is at least as specific: superset of literals).
    pub fn implies(&self, other: &Guard) -> bool {
        other.literals.iter().all(|l| {
            self.literals
                .binary_search_by_key(&l.cond, |m| m.cond)
                .map(|i| self.literals[i].fault == l.fault)
                .unwrap_or(false)
        })
    }

    /// Evaluates the guard under a total/partial assignment of condition
    /// outcomes: `Some(true)` if satisfied, `Some(false)` if falsified,
    /// `None` if some relevant condition is unassigned.
    pub fn evaluate(&self, outcome: impl Fn(CpgNodeId) -> Option<bool>) -> Option<bool> {
        let mut all_known = true;
        for l in self.literals.iter() {
            match outcome(l.cond) {
                Some(v) if v != l.fault => return Some(false),
                Some(_) => {}
                None => all_known = false,
            }
        }
        if all_known {
            Some(true)
        } else {
            None
        }
    }

    /// Renders the guard with a naming function for conditions, e.g.
    /// `F(P1^1) ∧ !F(P1^2)`; the empty guard renders as `true`.
    pub fn display_with<F: Fn(CpgNodeId) -> String>(&self, name: F) -> String {
        if self.literals.is_empty() {
            return "true".to_string();
        }
        self.literals
            .iter()
            .map(|l| {
                if l.fault {
                    format!("F({})", name(l.cond))
                } else {
                    format!("!F({})", name(l.cond))
                }
            })
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// One merge pass over two sorted literal slices: the length and fault
/// count of their conjunction, or `None` at the first complementary pair.
fn merge_scan(a: &[Literal], b: &[Literal]) -> Option<(usize, u32)> {
    let (mut i, mut j) = (0, 0);
    let (mut len, mut faults) = (0, 0);
    while i < a.len() && j < b.len() {
        let lit = a[i].min(b[j]);
        match a[i].cond.cmp(&b[j].cond) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal if a[i].fault == b[j].fault => {
                i += 1;
                j += 1;
            }
            Ordering::Equal => return None,
        }
        len += 1;
        faults += u32::from(lit.fault);
    }
    for lit in a[i..].iter().chain(&b[j..]) {
        len += 1;
        faults += u32::from(lit.fault);
    }
    Some((len, faults))
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|c| format!("v{}", c.index())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CpgNodeId {
        CpgNodeId::new(i)
    }

    #[test]
    fn empty_guard_is_true() {
        let g = Guard::always();
        assert!(g.is_always());
        assert_eq!(g.fault_count(), 0);
        assert_eq!(g.to_string(), "true");
        assert!(!g.excludes(&Guard::of([Literal::fault(c(0))])));
    }

    #[test]
    fn and_literal_merges_and_detects_contradiction() {
        let g = Guard::of([Literal::fault(c(1))]);
        let g2 = g.and_literal(Literal::no_fault(c(0))).unwrap();
        assert_eq!(g2.literals().len(), 2);
        assert!(g2.and_literal(Literal::no_fault(c(1))).is_none());
        // Re-adding an existing literal is a no-op.
        assert_eq!(g2.and_literal(Literal::fault(c(1))).unwrap(), g2);
    }

    #[test]
    fn and_is_commutative_and_detects_conflicts() {
        let a = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(2))]);
        let b = Guard::of([Literal::fault(c(1))]);
        let ab = a.and(&b).unwrap();
        let ba = b.and(&a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.literals().len(), 3);
        let conflict = Guard::of([Literal::fault(c(2))]);
        assert!(a.and(&conflict).is_none());
        assert_eq!(a.and_fault_count(&conflict), None);
        assert_eq!(a.and_fault_count(&b), Some(2));
        assert!(a.excludes(&conflict));
    }

    #[test]
    fn clones_and_absorbed_conjunctions_share_literals() {
        let a = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(2))]);
        let implied = Guard::of([Literal::no_fault(c(2))]);
        assert!(std::ptr::eq(a.clone().literals(), a.literals()));
        assert!(std::ptr::eq(a.and(&implied).unwrap().literals(), a.literals()));
        assert!(std::ptr::eq(Guard::always().and(&a).unwrap().literals(), a.literals()));
    }

    #[test]
    fn implies_checks_subset() {
        let specific = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(1))]);
        let general = Guard::of([Literal::fault(c(0))]);
        assert!(specific.implies(&general));
        assert!(!general.implies(&specific));
        assert!(specific.implies(&Guard::always()));
        assert!(!specific.implies(&Guard::of([Literal::no_fault(c(0))])));
    }

    #[test]
    fn fault_count_counts_positive_literals() {
        let g = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(1)), Literal::fault(c(2))]);
        assert_eq!(g.fault_count(), 2);
    }

    #[test]
    fn evaluate_under_assignments() {
        let g = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(1))]);
        let total = |id: CpgNodeId| Some(id == c(0));
        assert_eq!(g.evaluate(total), Some(true));
        let falsified = |_: CpgNodeId| Some(false);
        assert_eq!(g.evaluate(falsified), Some(false));
        let partial = |id: CpgNodeId| if id == c(0) { Some(true) } else { None };
        assert_eq!(g.evaluate(partial), None);
    }

    #[test]
    #[should_panic(expected = "contradictory guard literals")]
    fn of_rejects_contradictions() {
        let _ = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(0))]);
    }

    #[test]
    fn display_with_names() {
        let g = Guard::of([Literal::fault(c(0)), Literal::no_fault(c(1))]);
        let s = g.display_with(|id| format!("P{}", id.index() + 1));
        assert_eq!(s, "F(P1) ∧ !F(P2)");
    }
}
