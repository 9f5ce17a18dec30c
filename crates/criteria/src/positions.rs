//! The positions of a TGD set compiled once into dense tables, for the
//! position-based criteria WA, SC and SwA.
//!
//! [`PositionTable::compile`] numbers every position of the set's TGDs with a
//! dense `u32` id, in the order the weak-acyclicity graph meets them: per TGD,
//! per frontier variable (sorted) and per body occurrence, the body position,
//! then the variable's head positions, then the positions of the existential
//! variables; after the frontier, every other position of the TGD's atoms. So
//! the ids are the dependency graph's node numbers, which its
//! [`PositionCycle`](crate::Witness::PositionCycle) witness depends on.
//!
//! Per TGD the table keeps one *clause* per frontier variable — its distinct
//! body position ids and its distinct head position ids — and one *marker* per
//! existential variable, its distinct head position ids. Clauses, markers and
//! the clauses watching each position are lists in flat `u32` storage with
//! offsets.
//!
//! Both fixpoints of the criteria are one counter propagation over the clauses
//! (`Propagation`): each clause counts its body positions not reached yet,
//! reaching a position decrements the clauses that watch it, and a clause at 0
//! reaches its head positions. A run is linear in the positions it reaches and
//! the clauses watching them. Started from every marker, it computes SC's
//! affected positions; started from one marker, the positions SwA's nulls of
//! that marker reach, the clauses at 0 being the frontier variables whose body
//! occurrences they all reach.

use crate::criterion::AnalysisContext;
use chase_core::hash::FastMap;
use chase_core::{DependencySet, Position, Term};
use std::ops::Range;
use std::rc::Rc;

/// The position table of the context's set, compiled once per analysis by
/// whichever of WA, SC and SwA asks first.
pub fn position_table_in(cx: &AnalysisContext) -> Rc<PositionTable> {
    cx.shared("position table", || PositionTable::compile(cx.sigma()))
}

/// Lists of `u32` in one buffer: list `k` is `items[offsets[k]..offsets[k + 1]]`.
#[derive(Clone, Debug)]
struct Lists {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    fn new() -> Self {
        Lists {
            offsets: vec![0],
            items: Vec::new(),
        }
    }

    /// Appends `items` as the next list.
    fn push(&mut self, items: &[u32]) {
        self.items.extend_from_slice(items);
        let end = u32::try_from(self.items.len()).expect("fewer than 2^32 list items");
        self.offsets.push(end);
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// One TGD of a [`PositionTable`].
#[derive(Clone, Debug)]
pub(crate) struct Rule {
    /// The TGD's index in the set.
    pub(crate) dep: usize,
    /// Its clauses, one per frontier variable, in sorted variable order.
    pub(crate) clauses: Range<usize>,
    /// Its markers, one per existential variable, in the order of
    /// [`chase_core::Tgd::existential_variables`].
    pub(crate) markers: Range<usize>,
}

impl Rule {
    pub(crate) fn is_existential(&self) -> bool {
        !self.markers.is_empty()
    }
}

/// The positions of a set's TGDs under dense ids, with one clause per frontier
/// variable and one marker per existential variable; see the module docs.
#[derive(Clone, Debug)]
pub struct PositionTable {
    positions: Vec<Position>,
    rules: Vec<Rule>,
    /// Per clause, its distinct body position ids.
    clause_body: Lists,
    /// Per clause, its distinct head position ids.
    clause_head: Lists,
    /// Per marker, its distinct head position ids.
    marker_head: Lists,
    /// Per position, the clauses whose body has it.
    watchers: Lists,
}

/// Dense ids for positions, in the order they are first met.
#[derive(Default)]
struct Numbering {
    id_of: FastMap<Position, u32>,
    positions: Vec<Position>,
}

impl Numbering {
    fn id(&mut self, p: Position) -> u32 {
        let next = u32::try_from(self.positions.len()).expect("fewer than 2^32 positions");
        let id = *self.id_of.entry(p).or_insert(next);
        if id == next {
            self.positions.push(p);
        }
        id
    }

    /// Appends the ids of `positions` to `out`, each once.
    fn distinct_ids(&mut self, positions: impl Iterator<Item = Position>, out: &mut Vec<u32>) {
        out.clear();
        for p in positions {
            let id = self.id(p);
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
}

impl PositionTable {
    /// Compiles the TGDs of `sigma`; EGDs have no clause and no marker.
    pub fn compile(sigma: &DependencySet) -> Self {
        let mut numbering = Numbering::default();
        let mut rules = Vec::new();
        let mut clause_body = Lists::new();
        let mut clause_head = Lists::new();
        let mut marker_head = Lists::new();
        let mut body = Vec::new();
        let mut head = Vec::new();
        for (id, dep) in sigma.iter() {
            let Some(tgd) = dep.as_tgd() else { continue };
            let existential = tgd.existential_variables();
            let clauses = clause_body.len();
            for (k, &x) in tgd.frontier_variables().iter().enumerate() {
                body.clear();
                for (occurrence, p) in tgd.body_positions_of(x).enumerate() {
                    let pid = numbering.id(p);
                    if !body.contains(&pid) {
                        body.push(pid);
                    }
                    // The graph meets the head positions after the first body
                    // occurrence of each variable, and the existential ones after
                    // that of the first variable.
                    if occurrence == 0 {
                        numbering.distinct_ids(tgd.head_positions_of(x), &mut head);
                        if k == 0 {
                            for &z in existential {
                                tgd.head_positions_of(z).for_each(|q| {
                                    numbering.id(q);
                                });
                            }
                        }
                    }
                }
                clause_body.push(&body);
                clause_head.push(&head);
            }
            for atom in tgd.body().iter().chain(tgd.head()) {
                for (i, t) in atom.terms.iter().enumerate() {
                    if matches!(t, Term::Var(_) | Term::Const(_)) {
                        numbering.id(Position::new(atom.predicate, i));
                    }
                }
            }
            let markers = marker_head.len();
            for &z in existential {
                numbering.distinct_ids(tgd.head_positions_of(z), &mut head);
                marker_head.push(&head);
            }
            rules.push(Rule {
                dep: id.0,
                clauses: clauses..clause_body.len(),
                markers: markers..marker_head.len(),
            });
        }
        // The watchers, bucketed by position: count, prefix-sum, fill.
        let positions = numbering.positions.len();
        let mut offsets = vec![0u32; positions + 1];
        for &p in &clause_body.items {
            offsets[p as usize + 1] += 1;
        }
        for p in 0..positions {
            offsets[p + 1] += offsets[p];
        }
        let mut items = vec![0; clause_body.items.len()];
        let mut next = offsets.clone();
        for c in 0..clause_body.len() {
            for &p in clause_body.get(c) {
                items[next[p as usize] as usize] = c as u32;
                next[p as usize] += 1;
            }
        }
        let watchers = Lists { offsets, items };
        PositionTable {
            positions: numbering.positions,
            rules,
            clause_body,
            clause_head,
            marker_head,
            watchers,
        }
    }

    /// Every position, indexed by its id.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// The TGDs, in the set's order.
    pub(crate) fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The distinct body position ids of clause `c`.
    pub(crate) fn body(&self, c: usize) -> &[u32] {
        self.clause_body.get(c)
    }

    /// The distinct head position ids of clause `c`.
    pub(crate) fn head(&self, c: usize) -> &[u32] {
        self.clause_head.get(c)
    }

    /// The distinct head position ids of marker `m`.
    pub(crate) fn marker(&self, m: usize) -> &[u32] {
        self.marker_head.get(m)
    }

    /// The head position ids of every marker, one list after the other.
    pub(crate) fn all_markers(&self) -> &[u32] {
        &self.marker_head.items
    }
}

/// The counter propagation over a table's clauses; see the module docs. One
/// value runs any number of propagations, each started by [`Propagation::run`].
pub(crate) struct Propagation<'t> {
    table: &'t PositionTable,
    reached: Vec<bool>,
    /// Per clause, its body positions not reached yet.
    pending: Vec<u32>,
    /// The reached positions, in the order they were reached.
    visited: Vec<u32>,
}

impl<'t> Propagation<'t> {
    pub(crate) fn new(table: &'t PositionTable) -> Self {
        Propagation {
            table,
            reached: vec![false; table.positions.len()],
            pending: (0..table.clause_body.len())
                .map(|c| table.body(c).len() as u32)
                .collect(),
            visited: Vec::new(),
        }
    }

    /// Propagates from the positions `seeds`, undoing the previous run first.
    pub(crate) fn run(&mut self, seeds: &[u32]) {
        let table = self.table;
        for &p in &self.visited {
            self.reached[p as usize] = false;
            for &c in table.watchers.get(p as usize) {
                self.pending[c as usize] = table.body(c as usize).len() as u32;
            }
        }
        self.visited.clear();
        for &p in seeds {
            self.reach(p);
        }
        let mut next = 0;
        while let Some(&p) = self.visited.get(next) {
            next += 1;
            for &c in table.watchers.get(p as usize) {
                self.pending[c as usize] -= 1;
                if self.pending[c as usize] == 0 {
                    for &q in table.head(c as usize) {
                        self.reach(q);
                    }
                }
            }
        }
    }

    fn reach(&mut self, p: u32) {
        if !self.reached[p as usize] {
            self.reached[p as usize] = true;
            self.visited.push(p);
        }
    }

    /// Whether the last run reached position `p`.
    pub(crate) fn reached(&self, p: u32) -> bool {
        self.reached[p as usize]
    }

    /// The positions the last run reached, in the order it reached them.
    pub(crate) fn visited(&self) -> &[u32] {
        &self.visited
    }

    /// Whether the last run reached every body position of clause `c`.
    pub(crate) fn has_fired(&self, c: usize) -> bool {
        self.pending[c] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::{Tgd, Variable};
    use std::collections::BTreeSet;

    /// The positions reached from `seeds` by rescanning every frontier variable of
    /// every TGD until nothing changes: a variable whose body positions are all
    /// reached reaches its head positions.
    fn rescan(sigma: &DependencySet, seeds: BTreeSet<Position>) -> BTreeSet<Position> {
        let mut reach = seeds;
        loop {
            let mut changed = false;
            for tgd in sigma.iter().filter_map(|(_, d)| d.as_tgd()) {
                for &x in tgd.frontier_variables() {
                    if tgd.body_positions_of(x).all(|p| reach.contains(&p)) {
                        for q in tgd.head_positions_of(x) {
                            changed |= reach.insert(q);
                        }
                    }
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    fn existential_positions(tgd: &Tgd, z: Variable) -> BTreeSet<Position> {
        tgd.head_positions_of(z).collect()
    }

    fn reached_set(table: &PositionTable, propagation: &Propagation) -> BTreeSet<Position> {
        propagation
            .visited()
            .iter()
            .map(|&p| table.positions()[p as usize])
            .collect()
    }

    /// A seeded program of 1–6 TGDs over `P/1`, `E/2` and `T/3`, with repeated
    /// body variables (`E(?x, ?x)`), one variable twice at one position
    /// (`E(?x, ?y), E(?x, ?z)`) and up to two existential variables, plus an EGD
    /// at times.
    fn random_program(seed: u64) -> DependencySet {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let predicates = [("P", 1), ("E", 2), ("T", 3)];
        let mut text = String::new();
        if seed.is_multiple_of(3) {
            text.push_str("rep: E(?x, ?x) -> exists ?w: E(?x, ?w), P(?w).\n");
        }
        if seed.is_multiple_of(4) {
            text.push_str("dup: E(?x, ?y), E(?x, ?z) -> exists ?w: T(?y, ?z, ?w).\n");
        }
        if seed.is_multiple_of(5) {
            text.push_str("key: E(?x, ?y), E(?x, ?z) -> ?y = ?z.\n");
        }
        for i in 0..1 + below(6) {
            let mut body = Vec::new();
            let mut vars: Vec<&str> = Vec::new();
            for _ in 0..1 + below(3) {
                let (name, arity) = predicates[below(3)];
                let terms: Vec<&str> = (0..arity).map(|_| ["?x", "?y", "?z"][below(3)]).collect();
                for v in &terms {
                    if !vars.contains(v) {
                        vars.push(v);
                    }
                }
                body.push(format!("{name}({})", terms.join(", ")));
            }
            let mut head = Vec::new();
            let mut existential: Vec<&str> = Vec::new();
            for _ in 0..1 + below(2) {
                let (name, arity) = predicates[below(3)];
                let terms: Vec<&str> = (0..arity)
                    .map(|_| {
                        if below(3) == 0 {
                            let z = ["?w", "?v"][below(2)];
                            if !existential.contains(&z) {
                                existential.push(z);
                            }
                            z
                        } else {
                            vars[below(vars.len())]
                        }
                    })
                    .collect();
                head.push(format!("{name}({})", terms.join(", ")));
            }
            let exists = if existential.is_empty() {
                String::new()
            } else {
                format!("exists {}: ", existential.join(", "))
            };
            text.push_str(&format!(
                "r{i}: {} -> {exists}{}.\n",
                body.join(", "),
                head.join(", ")
            ));
        }
        parse_dependencies(&text).expect("generated programs parse")
    }

    #[test]
    fn the_propagation_equals_the_rescan_to_fixpoint() {
        for seed in 0..400 {
            let sigma = random_program(seed);
            let table = PositionTable::compile(&sigma);
            let mut propagation = Propagation::new(&table);
            let tgds: Vec<&Tgd> = sigma.iter().filter_map(|(_, d)| d.as_tgd()).collect();

            // Affected positions: from every existential position at once.
            let seeds = tgds
                .iter()
                .flat_map(|t| t.existential_variables().iter().map(|&z| (*t, z)))
                .flat_map(|(t, z)| existential_positions(t, z))
                .collect();
            propagation.run(table.all_markers());
            assert_eq!(
                reached_set(&table, &propagation),
                rescan(&sigma, seeds),
                "affected positions, seed {seed}:\n{sigma}"
            );

            // Per marker, the positions its nulls reach, and the clauses at 0.
            let rules = table.rules();
            for (r, tgd) in tgds.iter().enumerate() {
                for (m, &z) in rules[r].markers.clone().zip(tgd.existential_variables()) {
                    propagation.run(table.marker(m));
                    let reach = rescan(&sigma, existential_positions(tgd, z));
                    assert_eq!(
                        reached_set(&table, &propagation),
                        reach,
                        "marker {z} of rule {r}, seed {seed}:\n{sigma}"
                    );
                    for (s, other) in tgds.iter().enumerate() {
                        for (c, &x) in rules[s].clauses.clone().zip(other.frontier_variables()) {
                            let all = other.body_positions_of(x).all(|p| reach.contains(&p));
                            assert_eq!(propagation.has_fired(c), all, "seed {seed}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_repeated_variable_waits_for_all_its_positions() {
        // The null of r1 reaches E[2] only; E(x, x) needs E[1] too.
        let sigma =
            parse_dependencies("r1: S(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?x) -> S(?x).")
                .unwrap();
        let table = PositionTable::compile(&sigma);
        let mut propagation = Propagation::new(&table);
        propagation.run(table.marker(0));
        let reached: Vec<String> = propagation
            .visited()
            .iter()
            .map(|&p| table.positions()[p as usize].to_string())
            .collect();
        assert_eq!(reached, ["E[2]"]);
        // r2's clause for x watches E[1] and E[2], once each, and is not at 0.
        let clause = table.rules()[1].clauses.start;
        assert_eq!(table.body(clause).len(), 2);
        assert!(!propagation.has_fired(clause));
    }

    #[test]
    fn ids_follow_the_dependency_graphs_first_meeting_order() {
        let sigma = parse_dependencies(
            "r1: A(?x), B(c, ?x) -> exists ?z: C(?x, ?z), D(?x). r2: F(?u) -> G(?u, ?u).",
        )
        .unwrap();
        let table = PositionTable::compile(&sigma);
        let order: Vec<String> = table.positions().iter().map(|p| p.to_string()).collect();
        // x's first body occurrence A[1], its head C[1] and D[1], z's C[2], x's
        // second body occurrence B[2], then the constant's B[1]; r2 alike.
        assert_eq!(
            order,
            ["A[1]", "C[1]", "D[1]", "C[2]", "B[2]", "B[1]", "F[1]", "G[1]", "G[2]"]
        );
        let rules = table.rules();
        assert_eq!(table.head(rules[1].clauses.start), [7, 8]);
        assert_eq!(rules.len(), 2);
        assert!(rules[0].is_existential() && !rules[1].is_existential());
    }
}
