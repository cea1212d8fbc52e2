//! Aggregate functions used by GROUP BY plans.

use crate::error::Result;
use crate::expr::Expr;
use crate::value::{DataType, Value};

/// Supported aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows in the group.
    CountStar,
    /// `COUNT(expr)` — counts rows where `expr` is not NULL.
    Count(Expr),
    /// `COUNT(DISTINCT expr)`.
    CountDistinct(Expr),
    /// `SUM(expr)`.
    Sum(Expr),
    /// `MIN(expr)`.
    Min(Expr),
    /// `MAX(expr)`.
    Max(Expr),
    /// `AVG(expr)`.
    Avg(Expr),
}

impl AggFunc {
    /// The argument expression (`None` for `COUNT(*)`).
    pub(crate) fn arg(&self) -> Option<&Expr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(e)
            | AggFunc::CountDistinct(e)
            | AggFunc::Sum(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e)
            | AggFunc::Avg(e) => Some(e),
        }
    }
}

/// An aggregate paired with its output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub func: AggFunc,
    pub alias: String,
}

impl Aggregate {
    pub fn new(func: AggFunc, alias: &str) -> Self {
        Aggregate { func, alias: alias.to_string() }
    }

    /// Output data type of the aggregate.
    pub fn output_type(&self) -> DataType {
        match self.func {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::CountDistinct(_) => DataType::Int,
            _ => DataType::Float,
        }
    }
}

/// Running accumulator for one aggregate in one group.
#[derive(Debug, Clone)]
pub(crate) enum Accumulator {
    Count(i64),
    CountDistinct(std::collections::HashSet<Value>),
    Sum { total: f64, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { total: f64, count: i64 },
}

impl Accumulator {
    pub(crate) fn for_func(func: &AggFunc) -> Self {
        match func {
            AggFunc::CountStar | AggFunc::Count(_) => Accumulator::Count(0),
            AggFunc::CountDistinct(_) => Accumulator::CountDistinct(Default::default()),
            AggFunc::Sum(_) => Accumulator::Sum { total: 0.0, seen: false },
            AggFunc::Min(_) => Accumulator::Min(None),
            AggFunc::Max(_) => Accumulator::Max(None),
            AggFunc::Avg(_) => Accumulator::Avg { total: 0.0, count: 0 },
        }
    }

    /// Fold one evaluated value (`None` means COUNT(*), which ignores values).
    pub(crate) fn update(&mut self, value: Option<Value>) -> Result<()> {
        match self {
            Accumulator::Count(n) => match value {
                None => *n += 1,
                Some(v) if !v.is_null() => *n += 1,
                Some(_) => {}
            },
            Accumulator::CountDistinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            Accumulator::Sum { total, seen } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *total += v.as_f64()?;
                        *seen = true;
                    }
                }
            }
            Accumulator::Min(current) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match current {
                            None => true,
                            Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                        };
                        if replace {
                            *current = Some(v);
                        }
                    }
                }
            }
            Accumulator::Max(current) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match current {
                            None => true,
                            Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            *current = Some(v);
                        }
                    }
                }
            }
            Accumulator::Avg { total, count } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *total += v.as_f64()?;
                        *count += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub(crate) fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(n),
            Accumulator::CountDistinct(set) => Value::Int(set.len() as i64),
            Accumulator::Sum { total, seen } => {
                if seen {
                    Value::Float(total)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(v) => v.unwrap_or(Value::Null),
            Accumulator::Max(v) => v.unwrap_or(Value::Null),
            Accumulator::Avg { total, count } => {
                if count > 0 {
                    Value::Float(total / count as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;

    #[test]
    fn count_star_counts_all_rows() {
        let mut acc = Accumulator::for_func(&AggFunc::CountStar);
        for _ in 0..5 {
            acc.update(None).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int(5));
    }

    #[test]
    fn count_skips_nulls() {
        let mut acc = Accumulator::for_func(&AggFunc::Count(col("x")));
        acc.update(Some(Value::Int(1))).unwrap();
        acc.update(Some(Value::Null)).unwrap();
        acc.update(Some(Value::Int(2))).unwrap();
        assert_eq!(acc.finish(), Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let mut acc = Accumulator::for_func(&AggFunc::CountDistinct(col("x")));
        for v in ["a", "b", "a", "c"] {
            acc.update(Some(Value::Str(v.into()))).unwrap();
        }
        acc.update(Some(Value::Null)).unwrap();
        assert_eq!(acc.finish(), Value::Int(3));
    }

    #[test]
    fn sum_avg_min_max() {
        let vals = [2.0, 4.0, 6.0];
        let mut sum = Accumulator::for_func(&AggFunc::Sum(col("x")));
        let mut avg = Accumulator::for_func(&AggFunc::Avg(col("x")));
        let mut min = Accumulator::for_func(&AggFunc::Min(col("x")));
        let mut max = Accumulator::for_func(&AggFunc::Max(col("x")));
        for v in vals {
            for acc in [&mut sum, &mut avg, &mut min, &mut max] {
                acc.update(Some(Value::Float(v))).unwrap();
            }
        }
        assert_eq!(sum.finish(), Value::Float(12.0));
        assert_eq!(avg.finish(), Value::Float(4.0));
        assert_eq!(min.finish(), Value::Float(2.0));
        assert_eq!(max.finish(), Value::Float(6.0));
    }

    #[test]
    fn empty_groups_yield_null_or_zero() {
        assert_eq!(Accumulator::for_func(&AggFunc::CountStar).finish(), Value::Int(0));
        assert_eq!(Accumulator::for_func(&AggFunc::Sum(col("x"))).finish(), Value::Null);
        assert_eq!(Accumulator::for_func(&AggFunc::Avg(col("x"))).finish(), Value::Null);
        assert_eq!(Accumulator::for_func(&AggFunc::Min(col("x"))).finish(), Value::Null);
    }

    #[test]
    fn output_types() {
        assert_eq!(Aggregate::new(AggFunc::CountStar, "c").output_type(), DataType::Int);
        assert_eq!(Aggregate::new(AggFunc::Sum(col("x")), "s").output_type(), DataType::Float);
    }
}
