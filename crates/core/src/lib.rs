//! # dasp-core — declarative approximate selection predicates
//!
//! A Rust reproduction of the similarity-predicate framework of
//! *"Benchmarking Declarative Approximate Selection Predicates"*
//! (Hassanzadeh, 2007). The library implements every predicate class of the
//! paper on top of the [`relq`] relational engine: preprocessing materializes
//! token and weight tables into a relational catalog, and every query is
//! executed as a declarative plan over those tables — the Rust analogue of
//! the paper's SQL statements.
//!
//! ## Predicate classes
//!
//! Every predicate is a [`PredicateKind`], executed through the handle
//! [`SelectionEngine::predicate`] returns; each module documents its class:
//!
//! * **Overlap** (§3.1, [`overlap`]): [`PredicateKind::IntersectSize`],
//!   [`PredicateKind::Jaccard`], [`PredicateKind::WeightedMatch`],
//!   [`PredicateKind::WeightedJaccard`]
//! * **Aggregate weighted** (§3.2, [`aggregate`]): [`PredicateKind::Cosine`],
//!   [`PredicateKind::Bm25`]
//! * **Language modeling** (§3.3, [`langmodel`], [`hmm`]):
//!   [`PredicateKind::LanguageModel`], [`PredicateKind::Hmm`]
//! * **Edit based** (§3.4, [`editpred`]): [`PredicateKind::EditSimilarity`]
//! * **Combination** (§3.5, [`combination`]): [`PredicateKind::Ges`],
//!   [`PredicateKind::GesJaccard`], [`PredicateKind::GesApx`],
//!   [`PredicateKind::SoftTfIdf`]
//!
//! The eight overlap, aggregate-weighted and language-modeling predicates
//! are one `SUM(weight) … GROUP BY tid` shape over a token join and share
//! one kernel core; the edit and combination predicates are four UDF cores.
//! Per-predicate parameters live in [`Params`].
//!
//! ## Quick start
//!
//! The query API is session-based: one [`engine::SelectionEngine`] per base
//! relation builds the shared phase-1 artifacts (token tables, indexes,
//! weight tables) exactly once; [`engine::Query`] objects are tokenized once
//! and reusable across all 13 predicates; and [`engine::Exec`] pushes top-k /
//! threshold selection down into the relational plans.
//!
//! ```
//! use dasp_core::{Corpus, Exec, Params, PredicateKind, SelectionEngine};
//!
//! let corpus = Corpus::from_strings(vec![
//!     "Morgan Stanley Group Inc.",
//!     "Morgan Stanle Grop Inc.",
//!     "Beijing Hotel",
//! ]);
//! let engine = SelectionEngine::from_corpus(corpus, &Params::default());
//! let bm25 = engine.predicate(PredicateKind::Bm25);
//! // Tokenize the query once; execute it under any mode, any predicate.
//! let query = engine.query("Morgan Stanley Group Incorporated");
//! let top1 = bm25.execute(&query, Exec::TopK(1)).unwrap();
//! assert_eq!(top1[0].tid, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod combination;
pub mod corpus;
pub mod dict;
pub mod editpred;
pub mod engine;
pub mod envknob;
pub mod error;
pub mod factory;
pub mod fault;
pub mod hmm;
pub mod langmodel;
pub mod live;
pub mod native;
pub mod overlap;
pub mod params;
mod parts;
pub mod predicate;
pub mod pruning;
pub mod record;
pub mod serve;
pub mod tables;

pub use corpus::{Corpus, QueryTokens, TokenizedCorpus};
pub use dict::{TokenDict, TokenId};
pub use engine::{
    BudgetReport, BudgetedRun, CacheStats, Exec, PredicateHandle, Query, SelectionEngine,
};
pub use error::DaspError;
pub use factory::{build_all, build_predicate};
pub use fault::{FaultPlan, FaultStats};
pub use live::{LiveEngine, LiveMetrics, LiveQueryStats};
pub use params::{
    Bm25Params, EditParams, ExecBudget, GesParams, HmmParams, OverlapWeighting, Params,
    SoftTfIdfParams,
};
pub use predicate::{Predicate, PredicateClass, PredicateKind};
pub use pruning::{prune_by_idf, PruneStats};
pub use record::{Record, ScoredTid, Tid};
pub use serve::{LatencyStats, ServeRequest, ServeResponse, ServeStats, ServingEngine};
