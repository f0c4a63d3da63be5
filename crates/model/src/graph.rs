//! Precedence-constrained task graphs (DAGs) over a [`TaskSet`].
//!
//! A [`TaskGraph`] adds directed edges `a -> b` meaning *instance `k` of
//! `b` may only start executing once instance `k` of `a` has completed*.
//! Tying instances pairwise is what makes the constraint well-defined on
//! a periodic frame: both endpoints of every edge must share a period,
//! so the `k`-th jobs of predecessor and successor always coexist in the
//! same hyper-period slot (the per-frame DAG model of Simon et al.,
//! arXiv:1912.09170).
//!
//! Construction validates the graph eagerly: unknown tasks, self-edges,
//! duplicate edges, period mismatches and cycles are all rejected with
//! the offending edge named, and a deterministic topological order is
//! computed once up front (Kahn's algorithm, lowest task id first — the
//! same tie-break the runtime dispatcher uses).

use crate::error::ModelError;
use crate::task::TaskId;
use crate::taskset::TaskSet;

/// A validated directed acyclic graph of precedence edges over a task
/// set.
///
/// ```
/// use acs_model::{Task, TaskGraph, TaskId, TaskSet, units::{Cycles, Ticks}};
/// let set = TaskSet::new(vec![
///     Task::builder("src", Ticks::new(10)).wcec(Cycles::from_cycles(10.0)).build()?,
///     Task::builder("dst", Ticks::new(10)).wcec(Cycles::from_cycles(10.0)).build()?,
/// ])?;
/// let g = TaskGraph::new(&set, [("src", "dst")])?;
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.preds_of(TaskId(1)), &[TaskId(0)]);
/// assert!(TaskGraph::new(&set, [("src", "dst"), ("dst", "src")]).is_err());
/// # Ok::<(), acs_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    /// Validated edges `(from, to)`, in declaration order.
    edges: Vec<(TaskId, TaskId)>,
    /// Predecessors per task, in edge-declaration order.
    preds: Vec<Vec<TaskId>>,
    /// Every task id, topologically sorted (ties toward lower ids).
    topo: Vec<TaskId>,
    /// `rank[t]` = position of task `t` in [`TaskGraph::topo_order`].
    rank: Vec<usize>,
}

impl TaskGraph {
    /// Builds and validates a graph from named edges over `set`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidGraph`] when an edge names an unknown task,
    /// is a self-edge or a duplicate, joins tasks of different periods,
    /// or closes a cycle. The message always names the offending edge.
    pub fn new<N: AsRef<str>>(
        set: &TaskSet,
        edges: impl IntoIterator<Item = (N, N)>,
    ) -> Result<Self, ModelError> {
        let id_of = |name: &str| -> Option<TaskId> {
            set.iter().find(|(_, t)| t.name() == name).map(|(id, _)| id)
        };
        let mut resolved: Vec<(TaskId, TaskId)> = Vec::new();
        for (from, to) in edges {
            let (from, to) = (from.as_ref(), to.as_ref());
            let bad = |reason: String| ModelError::InvalidGraph {
                edge: format!("{from}->{to}"),
                reason,
            };
            let a = id_of(from).ok_or_else(|| bad(format!("unknown task `{from}`")))?;
            let b = id_of(to).ok_or_else(|| bad(format!("unknown task `{to}`")))?;
            if a == b {
                return Err(bad("a task cannot precede itself".into()));
            }
            if resolved.contains(&(a, b)) {
                return Err(bad("duplicate edge".into()));
            }
            let (pa, pb) = (set.task(a).period(), set.task(b).period());
            if pa != pb {
                return Err(bad(format!(
                    "precedence ties instance k to instance k, so both tasks \
                     need one period; got {pa} vs {pb}"
                )));
            }
            resolved.push((a, b));
        }
        Self::from_edges(set, resolved)
    }

    /// Builds a graph from already-resolved task ids (same validation as
    /// [`TaskGraph::new`], minus name resolution).
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::new`].
    pub fn from_edges(set: &TaskSet, edges: Vec<(TaskId, TaskId)>) -> Result<Self, ModelError> {
        let n = set.len();
        let name = |t: TaskId| set.task(t).name().to_string();
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, &(a, b)) in edges.iter().enumerate() {
            let bad = |reason: String| ModelError::InvalidGraph {
                edge: format!("{}->{}", name(a), name(b)),
                reason,
            };
            if a.0 >= n || b.0 >= n {
                return Err(ModelError::InvalidGraph {
                    edge: format!("{:?}->{:?}", a, b),
                    reason: format!("task id out of range for a {n}-task set"),
                });
            }
            if a == b {
                return Err(bad("a task cannot precede itself".into()));
            }
            if edges[..i].contains(&(a, b)) {
                return Err(bad("duplicate edge".into()));
            }
            if set.task(a).period() != set.task(b).period() {
                return Err(bad(format!(
                    "precedence ties instance k to instance k, so both tasks \
                     need one period; got {} vs {}",
                    set.task(a).period(),
                    set.task(b).period()
                )));
            }
            preds[b.0].push(a);
            succs[a.0].push(b);
        }

        // Kahn's algorithm with a lowest-id-first tie-break: the order is
        // a pure function of the edge set, never of declaration order.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut placed = vec![false; n];
        let mut topo: Vec<TaskId> = Vec::with_capacity(n);
        while topo.len() < n {
            let Some(next) = (0..n).find(|&t| !placed[t] && indeg[t] == 0) else {
                // Stuck: every unplaced task has an unplaced predecessor,
                // so a cycle exists among them. Unplaced tasks that are
                // merely *blocked by* the cycle (dead ends) are trimmed
                // away by dropping nodes with no stuck successor until a
                // fixpoint; what remains always has a stuck successor, so
                // a lowest-id walk must revisit a node — that closes the
                // cycle, and the edge doing so is named.
                let mut stuck: Vec<bool> = placed.iter().map(|&p| !p).collect();
                loop {
                    let mut changed = false;
                    for t in 0..n {
                        if stuck[t] && !succs[t].iter().any(|s| stuck[s.0]) {
                            stuck[t] = false;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                let start = (0..n).find(|&t| stuck[t]).expect("a cycle remains");
                let mut seen = vec![false; n];
                let mut cur = start;
                let closing = loop {
                    seen[cur] = true;
                    let nxt = succs[cur]
                        .iter()
                        .map(|t| t.0)
                        .filter(|&t| stuck[t])
                        .min()
                        .expect("a stuck task has a stuck successor");
                    if seen[nxt] {
                        break (cur, nxt);
                    }
                    cur = nxt;
                };
                return Err(ModelError::InvalidGraph {
                    edge: format!("{}->{}", name(TaskId(closing.0)), name(TaskId(closing.1))),
                    reason: "precedence edges form a cycle".into(),
                });
            };
            placed[next] = true;
            topo.push(TaskId(next));
            for s in &succs[next] {
                indeg[s.0] -= 1;
            }
        }
        let mut rank = vec![0usize; n];
        for (pos, t) in topo.iter().enumerate() {
            rank[t.0] = pos;
        }
        Ok(TaskGraph {
            edges,
            preds,
            topo,
            rank,
        })
    }

    /// The validated edges `(from, to)`, in declaration order.
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the graph has no edges (precedence-free).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of tasks the graph was validated against.
    pub fn task_count(&self) -> usize {
        self.preds.len()
    }

    /// Direct predecessors of `task`, in edge-declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn preds_of(&self, task: TaskId) -> &[TaskId] {
        &self.preds[task.0]
    }

    /// Every task id in a deterministic topological order (predecessors
    /// before successors, ties toward lower ids).
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Position of `task` in [`TaskGraph::topo_order`] — `a` preceding
    /// `b` (transitively) implies `topo_rank(a) < topo_rank(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn topo_rank(&self, task: TaskId) -> usize {
        self.rank[task.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::units::{Cycles, Ticks};

    fn set(periods: &[u64]) -> TaskSet {
        TaskSet::new(
            periods
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    Task::builder(format!("t{i}"), Ticks::new(p))
                        .wcec(Cycles::from_cycles(10.0))
                        .build()
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn builds_and_orders_topologically() {
        let s = set(&[10, 10, 10, 10]);
        // t3 -> t1 -> t0, t3 -> t2: topo must put 3 first.
        let g = TaskGraph::new(&s, [("t3", "t1"), ("t1", "t0"), ("t3", "t2")]).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(
            g.topo_order(),
            &[TaskId(3), TaskId(1), TaskId(0), TaskId(2)]
        );
        assert!(g.topo_rank(TaskId(3)) < g.topo_rank(TaskId(1)));
        assert!(g.topo_rank(TaskId(1)) < g.topo_rank(TaskId(0)));
        assert_eq!(g.preds_of(TaskId(0)), &[TaskId(1)]);
        assert!(!g.is_empty());
        assert_eq!(g.task_count(), 4);
    }

    #[test]
    fn empty_graph_is_identity_order() {
        let s = set(&[5, 10]);
        let g = TaskGraph::new::<&str>(&s, []).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.topo_order(), &[TaskId(0), TaskId(1)]);
    }

    #[test]
    fn rejects_unknown_self_duplicate_and_period_mismatch() {
        let s = set(&[10, 10, 20]);
        let err = TaskGraph::new(&s, [("t0", "zz")]).unwrap_err();
        assert!(err.to_string().contains("unknown task `zz`"), "{err}");
        assert!(err.to_string().contains("t0->zz"), "{err}");
        let err = TaskGraph::new(&s, [("t0", "t0")]).unwrap_err();
        assert!(err.to_string().contains("precede itself"), "{err}");
        let err = TaskGraph::new(&s, [("t0", "t1"), ("t0", "t1")]).unwrap_err();
        assert!(err.to_string().contains("duplicate edge"), "{err}");
        // t2 has period 20; edges across periods are rejected.
        let err = TaskGraph::new(&s, [("t0", "t2")]).unwrap_err();
        assert!(err.to_string().contains("one period"), "{err}");
    }

    #[test]
    fn rejects_cycles_naming_a_cycle_edge() {
        let s = set(&[10, 10, 10]);
        let err = TaskGraph::new(&s, [("t0", "t1"), ("t1", "t2"), ("t2", "t0")]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cycle"), "{msg}");
        // The named edge is one of the cycle's own edges.
        assert!(
            msg.contains("t0->t1") || msg.contains("t1->t2") || msg.contains("t2->t0"),
            "{msg}"
        );
        // A 2-cycle plus an unrelated edge still names a cycle edge.
        let err = TaskGraph::new(&s, [("t2", "t0"), ("t0", "t2"), ("t0", "t1")]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("t2->t0") || msg.contains("t0->t2"), "{msg}");
    }

    #[test]
    fn topo_order_is_declaration_order_independent() {
        let s = set(&[10, 10, 10]);
        let a = TaskGraph::new(&s, [("t2", "t1"), ("t1", "t0")]).unwrap();
        let b = TaskGraph::new(&s, [("t1", "t0"), ("t2", "t1")]).unwrap();
        assert_eq!(a.topo_order(), b.topo_order());
    }
}
