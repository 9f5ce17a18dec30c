//! # chase-ontology
//!
//! A seeded, deterministic generator of ontology-style dependency sets that reproduces
//! the *shape* of the corpus used in the experimental evaluation of Calautti et al.
//! (PVLDB 2016): 178 real-world ontologies (Gardiner corpus, LUBM, Phenoscape, OBO)
//! partitioned into eight classes by the number of existentially quantified TGDs and
//! the number of EGDs (Table 2(a) of the paper).
//!
//! The real corpus is not redistributable here, so the generator emits dependency sets
//! with the same statistics — class sizes, `|Σ|`, `|Σ∃|`, `|Σegd|`, `|Σ∀|/|Σ∃|` ratios —
//! using the rule shapes that dominate OWL-derived dependency sets: concept
//! inclusions, role domains and ranges, existential restrictions, role inverses,
//! functional roles and keys (as EGDs). A configurable fraction of the generated sets
//! contains a genuine null-propagation cycle, mirroring the non-terminating ontologies
//! of the original corpus. The class statistics the generator reproduces are listed
//! in [`corpus`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod families;
pub mod generator;
pub mod scale;
pub mod updates;

pub use corpus::{paper_corpus, scaled_paper_corpus, CorpusClass, GeneratedOntology};
pub use families::{atlas_corpus, families, generate_family, AtlasProgram, FamilySpec};
pub use generator::{generate, generate_database, OntologyProfile};
pub use scale::{
    data_exchange_dependencies, data_exchange_instance, for_each_scale_fact, ScaleProfile,
};
pub use updates::{update_stream, UpdateBatch, UpdateStreamProfile};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::corpus::{paper_corpus, scaled_paper_corpus, CorpusClass, GeneratedOntology};
    pub use crate::families::{atlas_corpus, families, generate_family, AtlasProgram, FamilySpec};
    pub use crate::generator::{generate, generate_database, OntologyProfile};
    pub use crate::scale::{
        data_exchange_dependencies, data_exchange_instance, for_each_scale_fact, ScaleProfile,
    };
    pub use crate::updates::{update_stream, UpdateBatch, UpdateStreamProfile};
}
