//! Monotonicity property for the `Adn∃` adornment algorithm, pinning the exact
//! failure shape of the fixed `adorn_with` soundness gap: adding dependencies to
//! a set must never turn a rejection of the set's cyclic gadget into an
//! acceptance. The historical bug did exactly that — the gadget alone was
//! rejected, but adding an unrelated functional-role EGD (plus enough flow for a
//! θ-merge) flipped the verdict to an unsound acceptance.
//!
//! The ontology generator emits the gadget on a dedicated `Rcyc…` role that no
//! other dependency (in particular no EGD) ever constrains, so every superset
//! drawn from the same generated set still contains the untouched
//! non-terminating cycle and must be rejected.

use chase_core::DependencySet;
use chase_ontology::generator::{generate, OntologyProfile};
use chase_termination::adornment::adorn;

/// Splits a generated cyclic set into (gadget, rest): the gadget is every
/// dependency mentioning the generator's dedicated `Rcyc…` role.
fn split_gadget(
    sigma: &DependencySet,
) -> (Vec<chase_core::Dependency>, Vec<chase_core::Dependency>) {
    let mut gadget = Vec::new();
    let mut rest = Vec::new();
    for (_, d) in sigma.iter() {
        if d.predicates()
            .iter()
            .any(|p| p.to_string().starts_with("Rcyc"))
        {
            gadget.push(d.clone());
        } else {
            rest.push(d.clone());
        }
    }
    (gadget, rest)
}

/// For each seeded cyclic profile: the gadget subset is rejected, and so is
/// every prefix-superset `gadget ∪ rest[..k]` up to the full generated set —
/// growing the set can only add evidence against termination, never remove the
/// gadget's cycle.
#[test]
fn adding_dependencies_never_flips_a_gadget_rejection_into_acceptance() {
    for seed in 0..8u64 {
        let sigma = generate(&OntologyProfile {
            existential: 2,
            full: 4,
            egds: 1,
            cyclic: true,
            seed,
        });
        let (gadget, rest) = split_gadget(&sigma);
        assert!(
            !gadget.is_empty(),
            "seed {seed}: cyclic profile must contain the Rcyc gadget"
        );
        for k in 0..=rest.len() {
            let subset: DependencySet = rest[..k].iter().chain(gadget.iter()).cloned().collect();
            assert!(
                !adorn(&subset).acyclic,
                "seed {seed}: gadget + first {k} other dependencies must stay \
                 rejected (monotonicity of rejection)"
            );
        }
    }
}
