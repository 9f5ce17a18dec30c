//! Data exchange: compute a universal solution for a source-to-target mapping with
//! target key constraints (EGDs), then answer queries certainly.
//!
//! This is the classical application scenario from the paper's introduction: the chase
//! materialises a target instance (a universal solution) from source facts,
//! source-to-target TGDs and target dependencies, and certain answers to conjunctive
//! queries are obtained by evaluating them over the universal solution and discarding
//! tuples with labeled nulls.
//!
//! ```sh
//! cargo run --example data_exchange
//! ```

use chase_core::builder::{atom, cst, var};
use chase_core::Variable;
use egd_chase::prelude::*;

fn main() {
    // Source schema: Emp(name, dept_name), DeptLocation(dept_name, city).
    // Target schema: Works(emp, dept), Dept(dept, city), Person(emp).
    let program = parse_program(
        r#"
        # source-to-target TGDs
        m1: Emp(?e, ?dn) -> exists ?d: Works(?e, ?d), DeptName(?d, ?dn).
        m2: DeptLocation(?dn, ?c) -> exists ?d: DeptName(?d, ?dn), DeptCity(?d, ?c).
        m3: Emp(?e, ?dn) -> Person(?e).

        # target dependencies: DeptName is a key for departments (an EGD), and every
        # department with a name must eventually carry a city (an existential TGD).
        t1: DeptName(?d1, ?n), DeptName(?d2, ?n) -> ?d1 = ?d2.
        t2: DeptName(?d, ?n) -> exists ?c: DeptCity(?d, ?c).

        # source instance
        Emp(alice, sales).
        Emp(bob, sales).
        Emp(carol, research).
        DeptLocation(sales, berlin).
        "#,
    )
    .expect("the mapping parses");

    println!("Termination analysis of the mapping + target dependencies:");
    println!(
        "  weak acyclicity (WA): {}",
        WeakAcyclicity.accepts(&program.dependencies)
    );
    println!(
        "  semi-acyclic (SAC):   {}",
        SemiAcyclicity.accepts(&program.dependencies)
    );

    // The chase computes a universal solution. The EGD t1 merges the department nulls
    // invented for alice and bob (same department name) and identifies the sales
    // department with the one carrying the Berlin location.
    let outcome = Chase::standard(&program.dependencies)
        .with_order(StepOrder::EgdsFirst)
        .run(&program.database);
    let solution = outcome
        .instance()
        .expect("the chase terminates on this mapping")
        .clone();
    println!("\nUniversal solution ({} facts):", solution.len());
    for fact in solution.sorted_facts() {
        println!("  {fact}");
    }

    // Certain answers.
    let q_people = ConjunctiveQuery::new(
        vec![atom("Person", vec![var("x")])],
        vec![Variable::new("x")],
    );
    let q_same_dept = ConjunctiveQuery::new(
        vec![
            atom("Works", vec![var("x"), var("d")]),
            atom("Works", vec![var("y"), var("d")]),
        ],
        vec![Variable::new("x"), Variable::new("y")],
    );
    let q_berlin_workers = ConjunctiveQuery::new(
        vec![
            atom("Works", vec![var("x"), var("d")]),
            atom("DeptCity", vec![var("d"), cst("berlin")]),
        ],
        vec![Variable::new("x")],
    );

    println!("\nCertain answers:");
    println!(
        "  people:                    {:?}",
        certain_answers(&[q_people], &solution)
    );
    println!(
        "  colleague pairs:           {:?}",
        certain_answers(&[q_same_dept], &solution)
    );
    println!(
        "  people working in Berlin:  {:?}",
        certain_answers(&[q_berlin_workers], &solution)
    );
    println!("\nNote how alice and bob are certainly colleagues because the key constraint");
    println!("merged the two invented department nulls, and how carol's department city is");
    println!("unknown (a labeled null), so she does not appear among the Berlin workers.");
}
