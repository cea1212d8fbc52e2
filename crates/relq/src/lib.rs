//! # relq — a small in-memory relational query engine
//!
//! `relq` is the declarative substrate of the DASP reproduction. The paper
//! ("Benchmarking Declarative Approximate Selection Predicates") expresses
//! every similarity predicate as SQL over token and weight tables executed by
//! a relational DBMS; this crate provides the equivalent building blocks:
//!
//! * typed in-memory [`Table`]s, each one flat row-major arena of cells that
//!   hands rows out as `&[Value]` slices, with a [`Catalog`] of named
//!   relations stored behind `Arc` (scans share storage, they never copy
//!   rows),
//! * persistent inverted indexes built at registration time
//!   ([`Catalog::register_indexed`]) and probed by [`Plan::IndexJoin`],
//! * tid-ordered [`PostingIndex`]es (built from `(tid, token, weights)`
//!   rows with one or more weight lanes by [`PostingIndex::from_lanes`] and
//!   added to a catalog by [`Catalog::attach_posting`]) behind
//!   the bounded operators [`Plan::TopKBounded`] and
//!   [`Plan::ThresholdBounded`], which sum a probe's scaled contributions
//!   per tid in a windowed dense accumulator — the same bytes as the
//!   `Aggregate`-then-select pipeline they replace; a `TopK` or filter over
//!   a projection of the kernel's sums joined to a per-tid table runs on
//!   typed `f64` columns until the kept rows (the typed finish),
//! * scalar [`Expr`]essions (arithmetic, `LOG`, `EXP`, `POWER`, comparisons),
//! * grouped aggregation ([`AggFunc`]: `COUNT`, `SUM`, `MIN`, `MAX`, `AVG`),
//! * composable logical [`Plan`]s (scan, filter, project, hash join, index
//!   join, aggregate, sort, distinct, union, limit) executed by [`execute`],
//! * [`PreparedPlan`]s with named table/scalar parameters ([`Bindings`]),
//!   built once at preprocessing time and executed per query.
//!
//! ```
//! use relq::{Bindings, Catalog, ExecLimits, Plan, PreparedPlan, TableBuilder, DataType, AggFunc, col};
//!
//! let tokens = TableBuilder::new()
//!     .column("tid", DataType::Int)
//!     .column("token", DataType::Str)
//!     .row(vec![1.into(), "db".into()])
//!     .row(vec![1.into(), "lab".into()])
//!     .row(vec![2.into(), "db".into()])
//!     .build()
//!     .unwrap();
//! let query = TableBuilder::new()
//!     .column("token", DataType::Str)
//!     .row(vec!["db".into()])
//!     .build()
//!     .unwrap();
//!
//! // Preprocessing: register the base relation once, with its token index.
//! let mut catalog = Catalog::new();
//! catalog.register_indexed("base_tokens", tokens, &["token"]).unwrap();
//!
//! // The IntersectSize predicate of the paper (Figure 4.1), prepared once:
//! let plan = PreparedPlan::new(
//!     Plan::index_join("base_tokens", &["token"], Plan::param("query_tokens"), &["token"])
//!         .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")]),
//! );
//! // Query time: bind this query's token table and probe the index.
//! let bindings = Bindings::new().with_table("query_tokens", query);
//! let scores = plan.execute(&catalog, &bindings, &ExecLimits::unlimited()).unwrap();
//! assert_eq!(scores.num_rows(), 2);
//! # let _ = col("tid");
//! ```

#![forbid(unsafe_code)]

mod agg;
mod bindings;
mod catalog;
mod error;
mod exec;
mod expr;
pub mod fault;
mod group;
mod limits;
mod plan;
mod posting;
mod prepared;
mod schema;
mod table;
mod topk;
mod value;

pub use agg::{AggFunc, Aggregate};
pub use bindings::Bindings;
pub use catalog::{Catalog, TableIndex};
pub use error::{RelqError, Result};
pub use exec::{execute, execute_naive, execute_with, execute_with_limits};
pub use expr::{col, lit, param, BinaryOp, Expr, ScalarFn};
pub use fault::{fault_point, set_fault_hook};
pub use limits::{ExecLimits, ExecReport};
pub use plan::{Plan, ProjectItem, SortOrder};
pub use posting::{PostingIndex, PostingList};
pub use prepared::PreparedPlan;
pub use schema::{Field, Schema};
pub use table::{Rows, Table, TableBuilder};
pub use topk::BoundedHeap;
pub use value::{DataType, Row, Value};
