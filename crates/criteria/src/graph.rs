//! Small directed-graph utilities shared by the termination criteria: strongly
//! connected components (Tarjan), cycle detection and marked-edge cycle detection.

use std::collections::BTreeSet;

/// A directed graph over nodes identified by `usize`, with optionally *marked* edges
/// (used for the "special" edges of weak acyclicity and its refinements).
///
/// The criteria number their nodes densely (dependency indices, position ids), so
/// the graph is kept as dense adjacency indexed by node id: a presence flag and a
/// successor list sorted by target per id. Nodes iterate in ascending order and
/// edges by source, then target.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    /// Per node id, whether the node is in the graph.
    present: Vec<bool>,
    node_count: usize,
    /// Per node id, its successors with their marks, sorted by target.
    succ: Vec<Vec<(usize, bool)>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, n: usize) {
        if n >= self.present.len() {
            self.present.resize(n + 1, false);
            self.succ.resize_with(n + 1, Vec::new);
        }
        if !self.present[n] {
            self.present[n] = true;
            self.node_count += 1;
        }
    }

    /// Adds an edge; `marked` edges are never downgraded by later unmarked insertions.
    pub fn add_edge(&mut self, from: usize, to: usize, marked: bool) {
        self.add_node(from);
        self.add_node(to);
        let list = &mut self.succ[from];
        match list.binary_search_by_key(&to, |&(t, _)| t) {
            Ok(i) => list[i].1 |= marked,
            Err(i) => {
                list.insert(i, (to, marked));
                self.edge_count += 1;
            }
        }
    }

    /// The mark of the edge `from → to`, if it exists.
    fn edge(&self, from: usize, to: usize) -> Option<bool> {
        let list = self.succ.get(from)?;
        let i = list.binary_search_by_key(&to, |&(t, _)| t).ok()?;
        Some(list[i].1)
    }

    /// Returns `true` iff the edge exists (marked or not).
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edge(from, to).is_some()
    }

    /// Returns `true` iff a marked edge exists between the endpoints.
    pub fn has_marked_edge(&self, from: usize, to: usize) -> bool {
        self.edge(from, to).unwrap_or(false)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all nodes, in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter_map(|(n, &present)| present.then_some(n))
    }

    /// Iterates over all edges as `(from, to, marked)`, by source, then target.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(f, list)| list.iter().map(move |&(t, m)| (f, t, m)))
    }

    /// Successors of a node, in ascending order.
    pub fn successors(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ
            .get(n)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&(t, _)| t)
    }

    /// Strongly connected components (Tarjan), returned as sorted vectors of nodes,
    /// with the components themselves sorted lexicographically (NOT topologically).
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let mut out = self.tarjan_components();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort();
        out
    }

    /// The strongly connected components as lists of nodes, in the order Tarjan
    /// closes them, starting from the nodes in ascending order.
    fn tarjan_components(&self) -> Vec<Vec<usize>> {
        let n = self.present.len();
        // Successors by node id: node i's are `succ[first[i]..first[i + 1]]`.
        let mut first = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(self.edge_count);
        first.push(0);
        for list in &self.succ {
            succ.extend(list.iter().map(|&(t, _)| t));
            first.push(succ.len());
        }
        let mut state = TarjanState {
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            components: Vec::new(),
        };
        for v in self.nodes() {
            if state.index[v].is_none() {
                tarjan(v, &first, &succ, &mut state);
            }
        }
        state.components
    }

    /// The first marked edge, in edge order, that lies on a cycle: a marked
    /// self-loop, or a marked edge inside a strongly connected component of more
    /// than one node.
    fn marked_edge_on_a_cycle(&self) -> Option<(usize, usize)> {
        let components = self.tarjan_components();
        let mut component_of = vec![0; self.present.len()];
        for (c, component) in components.iter().enumerate() {
            for &node in component {
                component_of[node] = c;
            }
        }
        self.edges().find_map(|(from, to, marked)| {
            if !marked {
                return None;
            }
            let c = component_of[from];
            let on_cycle = from == to || (c == component_of[to] && components[c].len() > 1);
            on_cycle.then_some((from, to))
        })
    }

    /// Returns `true` iff the graph has a cycle (including self-loops).
    pub fn has_cycle(&self) -> bool {
        for scc in self.sccs() {
            if scc.len() > 1 {
                return true;
            }
            let n = scc[0];
            if self.has_edge(n, n) {
                return true;
            }
        }
        false
    }

    /// Returns `true` iff the graph has a cycle that traverses at least one marked edge.
    ///
    /// A marked edge `(u, v)` lies on a cycle iff `u` and `v` belong to the same SCC
    /// (for `u == v` a marked self-loop is a cycle).
    pub fn has_cycle_through_marked_edge(&self) -> bool {
        self.marked_edge_on_a_cycle().is_some()
    }

    /// Number of marked edges.
    pub fn marked_edge_count(&self) -> usize {
        self.edges().filter(|&(_, _, m)| m).count()
    }

    /// A shortest path `from → … → to` (BFS over edges), if one exists. For
    /// `from == to` a genuine cycle of length ≥ 1 is required.
    pub fn path_between(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        // Parents and `seen` by node id.
        let mut parent: Vec<usize> = vec![usize::MAX; self.present.len()];
        let mut seen = vec![false; self.present.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            for s in self.successors(n) {
                if s == to {
                    // Reconstruct from → … → n, then append to.
                    let mut path = vec![n];
                    let mut cur = n;
                    while cur != from {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    path.push(to);
                    return Some(path);
                }
                if !seen[s] {
                    seen[s] = true;
                    parent[s] = n;
                    queue.push_back(s);
                }
            }
        }
        None
    }

    /// An explicit cycle, if the graph has one: a node sequence `n0, …, nk` with an
    /// edge between consecutive nodes and `n0 == nk`.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        for scc in self.sccs() {
            let n = scc[0];
            if scc.len() > 1 || self.has_edge(n, n) {
                return self.path_between(n, n);
            }
        }
        None
    }

    /// An explicit cycle through a marked edge, if one exists: the node sequence
    /// starts with the marked edge `n0 → n1` and closes back at `n0`.
    pub fn find_cycle_through_marked_edge(&self) -> Option<Vec<usize>> {
        let (from, to) = self.marked_edge_on_a_cycle()?;
        if from == to {
            return Some(vec![from, from]);
        }
        let back = self
            .path_between(to, from)
            .expect("same non-trivial SCC implies a path back");
        let mut cycle = vec![from];
        cycle.extend(back);
        Some(cycle)
    }

    /// Nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                for s in self.successors(n) {
                    if !seen.contains(&s) {
                        stack.push(s);
                    }
                }
            }
        }
        seen
    }
}

/// Iterative Tarjan from node `v`, over the successor lists `succ` indexed
/// by `first` (see [`DiGraph::sccs`]). Each frame on the call stack is a node and
/// the position of its next successor, so no list is copied on descent.
fn tarjan(v: usize, first: &[usize], succ: &[usize], state: &mut TarjanState) {
    let mut call_stack: Vec<(usize, usize)> = vec![(v, first[v])];
    state.visit(v);
    while let Some((node, mut i)) = call_stack.pop() {
        let mut descended = false;
        while i < first[node + 1] {
            let w = succ[i];
            i += 1;
            match state.index[w] {
                None => {
                    // Descend into w.
                    call_stack.push((node, i));
                    state.visit(w);
                    call_stack.push((w, first[w]));
                    descended = true;
                    break;
                }
                Some(widx) => {
                    if state.on_stack[w] {
                        state.lowlink[node] = state.lowlink[node].min(widx);
                    }
                }
            }
        }
        if descended {
            continue;
        }
        // Finished node: pop SCC if root, propagate lowlink to parent.
        if Some(state.lowlink[node]) == state.index[node] {
            let mut comp = Vec::new();
            loop {
                let w = state.stack.pop().expect("stack underflow in Tarjan");
                state.on_stack[w] = false;
                comp.push(w);
                if w == node {
                    break;
                }
            }
            state.components.push(comp);
        }
        if let Some(&(parent, _)) = call_stack.last() {
            state.lowlink[parent] = state.lowlink[parent].min(state.lowlink[node]);
        }
    }
}

struct TarjanState {
    index: Vec<Option<usize>>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    components: Vec<Vec<usize>>,
}

impl TarjanState {
    /// Numbers node `v` and pushes it on the SCC stack.
    fn visit(&mut self, v: usize) {
        self.index[v] = Some(self.next_index);
        self.lowlink[v] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_of_a_simple_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, false);
        g.add_edge(2, 0, false);
        g.add_edge(2, 3, false);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
        assert!(g.has_cycle());
    }

    #[test]
    fn dag_has_no_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, true);
        g.add_edge(0, 2, false);
        assert!(!g.has_cycle());
        assert!(!g.has_cycle_through_marked_edge());
        assert_eq!(g.sccs().len(), 3);
    }

    #[test]
    fn marked_cycle_detection() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1, false);
        g.add_edge(1, 0, false);
        // Cycle exists but no marked edge on it.
        assert!(g.has_cycle());
        assert!(!g.has_cycle_through_marked_edge());
        g.add_edge(1, 0, true);
        assert!(g.has_cycle_through_marked_edge());
    }

    #[test]
    fn marked_self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(5, 5, true);
        assert!(g.has_cycle());
        assert!(g.has_cycle_through_marked_edge());
    }

    #[test]
    fn reachability() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, false);
        g.add_node(7);
        let r = g.reachable_from(0);
        assert!(r.contains(&0) && r.contains(&1) && r.contains(&2));
        assert!(!r.contains(&7));
    }

    #[test]
    fn isolated_nodes_are_their_own_scc() {
        let mut g = DiGraph::new();
        g.add_node(1);
        g.add_node(2);
        assert_eq!(g.sccs().len(), 2);
        assert!(!g.has_cycle());
    }

    #[test]
    fn marked_edge_is_not_downgraded() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1, true);
        g.add_edge(0, 1, false);
        assert!(g.has_marked_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    /// A deterministic pseudo-random graph (linear-congruential stream), used to
    /// differentially test the cycle-extraction routines against the independent
    /// SCC-based boolean predicates.
    fn pseudo_random_graph(seed: u64, nodes: usize, edges: usize) -> DiGraph {
        let mut g = DiGraph::new();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for n in 0..nodes {
            g.add_node(n);
        }
        for _ in 0..edges {
            let from = next() % nodes;
            let to = next() % nodes;
            let marked = next() % 3 == 0;
            g.add_edge(from, to, marked);
        }
        g
    }

    #[test]
    fn cycle_extraction_agrees_with_the_boolean_predicates() {
        // `find_cycle` / `find_cycle_through_marked_edge` are the new witness
        // producers; `has_cycle` / `has_cycle_through_marked_edge` are the original
        // SCC characterizations. They are independent implementations — this
        // differential keeps them from drifting apart.
        for seed in 0..40u64 {
            let nodes = 2 + (seed as usize % 7);
            let edges = seed as usize % 12;
            let g = pseudo_random_graph(seed, nodes, edges);
            assert_eq!(
                g.find_cycle().is_some(),
                g.has_cycle(),
                "find_cycle disagrees with has_cycle (seed {seed})"
            );
            assert_eq!(
                g.find_cycle_through_marked_edge().is_some(),
                g.has_cycle_through_marked_edge(),
                "marked-cycle extraction disagrees with the predicate (seed {seed})"
            );
            // Returned cycles must be genuine edge paths that close.
            if let Some(cycle) = g.find_cycle() {
                assert!(cycle.len() >= 2);
                assert_eq!(cycle.first(), cycle.last());
                for pair in cycle.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]), "non-edge in cycle {cycle:?}");
                }
            }
            if let Some(cycle) = g.find_cycle_through_marked_edge() {
                assert_eq!(cycle.first(), cycle.last());
                assert!(
                    g.has_marked_edge(cycle[0], cycle[1]),
                    "marked cycle must start with its marked edge: {cycle:?}"
                );
                for pair in cycle.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]), "non-edge in cycle {cycle:?}");
                }
            }
        }
    }

    #[test]
    fn large_chain_does_not_overflow_stack() {
        let mut g = DiGraph::new();
        for i in 0..20_000 {
            g.add_edge(i, i + 1, false);
        }
        assert_eq!(g.sccs().len(), 20_001);
        assert!(!g.has_cycle());
    }
}
