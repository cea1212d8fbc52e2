//! Prepared plans: build a plan template once at preprocessing time, execute
//! it many times with per-query [`Bindings`].
//!
//! This is the query-time contract every predicate in `dasp-core` follows:
//! `build()` registers its base relations (indexed) in a [`Catalog`] and
//! constructs one `PreparedPlan` whose leaves are [`Plan::Param`] /
//! [`Expr::Param`](crate::Expr::Param) placeholders; `rank()` only binds the
//! query-side tables and scalars and executes. The plan tree is never
//! reconstructed per query.

use crate::bindings::Bindings;
use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::{execute_naive, execute_with_limits};
use crate::limits::ExecLimits;
use crate::plan::Plan;
use crate::table::Table;
use std::sync::Arc;

/// A reusable plan template with named parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPlan {
    plan: Plan,
}

impl PreparedPlan {
    /// Wrap a plan (typically containing `Param` leaves) for reuse.
    pub fn new(plan: Plan) -> Self {
        PreparedPlan { plan }
    }

    /// The underlying plan template.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Execute with the default engine — zero-clone scans and index-probing
    /// `IndexJoin`s — under a cooperative budget: the candidate-scoring
    /// operators charge `limits` and stop cleanly on exhaustion, returning
    /// the anytime answer built so far (see [`crate::execute_with_limits`]).
    /// Pass [`ExecLimits::unlimited`] to run to completion.
    pub fn execute(
        &self,
        catalog: &Catalog,
        bindings: &Bindings,
        limits: &ExecLimits,
    ) -> Result<Arc<Table>> {
        execute_with_limits(&self.plan, catalog, bindings, limits)
    }

    /// Execute under the pre-refactor cost model (clone-per-scan, per-query
    /// full-table hash builds). Byte-identical output to [`Self::execute`];
    /// exists for equivalence tests and as the benchmark baseline.
    pub fn execute_unindexed(&self, catalog: &Catalog, bindings: &Bindings) -> Result<Arc<Table>> {
        execute_naive(&self.plan, catalog, bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::value::DataType;
    use crate::TableBuilder;

    #[test]
    fn prepared_plan_executes_repeatedly_with_different_bindings() {
        let base = TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Str)
            .row(vec![1.into(), "ab".into()])
            .row(vec![2.into(), "ab".into()])
            .row(vec![2.into(), "cd".into()])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register_indexed("base", base, &["token"]).unwrap();
        let prepared = PreparedPlan::new(
            Plan::index_join("base", &["token"], Plan::param("q"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")]),
        );
        assert_eq!(prepared.plan().node_count(), 3);

        let q1 = TableBuilder::new()
            .column("token", DataType::Str)
            .row(vec!["ab".into()])
            .build()
            .unwrap();
        let b1 = Bindings::new().with_table("q", q1);
        assert_eq!(
            prepared.execute(&catalog, &b1, &ExecLimits::unlimited()).unwrap().num_rows(),
            2
        );
        assert_eq!(prepared.execute_unindexed(&catalog, &b1).unwrap().num_rows(), 2);

        let q2 = TableBuilder::new()
            .column("token", DataType::Str)
            .row(vec!["cd".into()])
            .build()
            .unwrap();
        let b2 = Bindings::new().with_table("q", q2);
        let r2 = prepared.execute(&catalog, &b2, &ExecLimits::unlimited()).unwrap();
        assert_eq!(r2.num_rows(), 1);
        assert_eq!(r2.value(0, "tid").unwrap().as_i64().unwrap(), 2);
    }
}
