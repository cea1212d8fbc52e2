//! Scalar expressions evaluated against rows.
//!
//! The paper's SQL statements use arithmetic, `LOG`, `EXP`, `POWER`, `SQRT`
//! and comparisons; this module provides exactly that surface.

use crate::bindings::Bindings;
use crate::error::{RelqError, Result};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Binary arithmetic and comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    /// Natural logarithm.
    Ln,
    Exp,
    Sqrt,
    Abs,
    /// `POWER(base, exponent)`.
    Power,
    /// Smallest of two numbers (SQL `LEAST`).
    Least,
    /// Largest of two numbers (SQL `GREATEST`).
    Greatest,
}

/// Expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column of the input schema by name.
    Column(String),
    /// A constant.
    Literal(Value),
    /// A named scalar parameter of a prepared plan, resolved from the
    /// execution's [`Bindings`] (see [`crate::PreparedPlan`]).
    Param(String),
    /// Binary operation.
    Binary { op: BinaryOp, left: Box<Expr>, right: Box<Expr> },
    /// One-argument scalar function call.
    Unary { func: ScalarFn, arg: Box<Expr> },
    /// Two-argument scalar function call (`Power`, `Least`, `Greatest`).
    BinaryFn { func: ScalarFn, left: Box<Expr>, right: Box<Expr> },
}

/// Reference a column by name.
pub fn col(name: &str) -> Expr {
    Expr::Column(name.to_string())
}

/// A literal value.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

/// A named scalar parameter, bound per execution via
/// [`Bindings::with_scalar`](crate::Bindings::with_scalar).
pub fn param(name: &str) -> Expr {
    Expr::Param(name.to_string())
}

// The fluent builder names (`add`, `sub`, `mul`, `div`) intentionally mirror
// SQL/`Expr`-DSL conventions rather than implementing `std::ops`: operator
// overloading would also demand `Expr + f64` etc., while the method form
// keeps the plan-construction code uniform.
#[allow(clippy::should_implement_trait)]
impl Expr {
    fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(self), right: Box::new(other) }
    }

    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Add, other)
    }
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Sub, other)
    }
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Mul, other)
    }
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Div, other)
    }
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }
    pub fn not_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, other)
    }
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// Natural logarithm of this expression.
    pub fn ln(self) -> Expr {
        Expr::Unary { func: ScalarFn::Ln, arg: Box::new(self) }
    }
    pub fn exp(self) -> Expr {
        Expr::Unary { func: ScalarFn::Exp, arg: Box::new(self) }
    }
    pub fn sqrt(self) -> Expr {
        Expr::Unary { func: ScalarFn::Sqrt, arg: Box::new(self) }
    }
    pub fn abs(self) -> Expr {
        Expr::Unary { func: ScalarFn::Abs, arg: Box::new(self) }
    }
    /// `POWER(self, exponent)`.
    pub fn power(self, exponent: Expr) -> Expr {
        Expr::BinaryFn { func: ScalarFn::Power, left: Box::new(self), right: Box::new(exponent) }
    }
    pub fn least(self, other: Expr) -> Expr {
        Expr::BinaryFn { func: ScalarFn::Least, left: Box::new(self), right: Box::new(other) }
    }
    pub fn greatest(self, other: Expr) -> Expr {
        Expr::BinaryFn { func: ScalarFn::Greatest, left: Box::new(self), right: Box::new(other) }
    }

    /// True when the expression tree contains any [`Expr::Param`] leaf.
    pub fn has_params(&self) -> bool {
        match self {
            Expr::Param(_) => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } | Expr::BinaryFn { left, right, .. } => {
                left.has_params() || right.has_params()
            }
            Expr::Unary { arg, .. } => arg.has_params(),
        }
    }

    /// Resolve every [`Expr::Param`] leaf against the scalar bindings,
    /// producing a parameter-free expression (errors on unbound names).
    pub fn bind(&self, bindings: &Bindings) -> Result<Expr> {
        Ok(match self {
            Expr::Param(name) => Expr::Literal(bindings.scalar(name)?.clone()),
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind(bindings)?),
                right: Box::new(right.bind(bindings)?),
            },
            Expr::Unary { func, arg } => {
                Expr::Unary { func: *func, arg: Box::new(arg.bind(bindings)?) }
            }
            Expr::BinaryFn { func, left, right } => Expr::BinaryFn {
                func: *func,
                left: Box::new(left.bind(bindings)?),
                right: Box::new(right.bind(bindings)?),
            },
        })
    }

    /// Static output type of the expression against an input schema, when it
    /// can be derived without evaluating a row. `None` for unknown columns,
    /// NULL literals and unbound parameters.
    pub fn output_type(&self, schema: &Schema) -> Option<DataType> {
        match self {
            Expr::Column(name) => schema.index_of(name).ok().map(|i| schema.field(i).dtype),
            Expr::Literal(v) => v.data_type(),
            Expr::Param(_) => None,
            Expr::Binary { op, left, right } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => {
                    match (left.output_type(schema)?, right.output_type(schema)?) {
                        (DataType::Int, DataType::Int) => Some(DataType::Int),
                        (DataType::Str, _) | (_, DataType::Str) => None,
                        _ => Some(DataType::Float),
                    }
                }
                BinaryOp::Div => Some(DataType::Float),
                // Comparisons and boolean connectives yield SQL-style 0/1.
                _ => Some(DataType::Int),
            },
            Expr::Unary { .. } | Expr::BinaryFn { .. } => Some(DataType::Float),
        }
    }

    /// Evaluate the expression against one row with the given schema.
    pub fn evaluate(&self, row: &[Value], schema: &Schema) -> Result<Value> {
        match self {
            Expr::Column(name) => {
                let idx = schema.index_of(name)?;
                Ok(row[idx].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(name) => Err(RelqError::UnboundParam(name.clone())),
            Expr::Binary { op, left, right } => {
                let l = left.evaluate(row, schema)?;
                let r = right.evaluate(row, schema)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { func, arg } => eval_unary(*func, arg.evaluate(row, schema)?),
            Expr::BinaryFn { func, left, right } => {
                let l = left.evaluate(row, schema)?;
                let r = right.evaluate(row, schema)?;
                eval_binary_fn(*func, &l, &r)
            }
        }
    }

    /// Compile the expression against a fixed schema: column names resolve to
    /// indices once, so per-row evaluation does no name lookups. Fails on
    /// unknown columns and on unbound parameters (bind scalars first).
    pub(crate) fn compile(&self, schema: &Schema) -> Result<CompiledExpr> {
        Ok(match self {
            Expr::Column(name) => CompiledExpr::Column(schema.index_of(name)?),
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Param(name) => return Err(RelqError::UnboundParam(name.clone())),
            Expr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(left.compile(schema)?),
                right: Box::new(right.compile(schema)?),
            },
            Expr::Unary { func, arg } => {
                CompiledExpr::Unary { func: *func, arg: Box::new(arg.compile(schema)?) }
            }
            Expr::BinaryFn { func, left, right } => CompiledExpr::BinaryFn {
                func: *func,
                left: Box::new(left.compile(schema)?),
                right: Box::new(right.compile(schema)?),
            },
        })
    }
}

/// An expression with column references resolved to positional indices.
/// Evaluates against a *split* row — the virtual concatenation of a base-row
/// slice and a probe-row slice — so fused join-aggregate execution never has
/// to materialize joined rows. Produces bit-identical values to
/// [`Expr::evaluate`] over the materialized concatenation: the scalar
/// semantics are shared (`eval_binary` / `eval_unary` / `eval_binary_fn`).
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    Column(usize),
    Literal(Value),
    Binary { op: BinaryOp, left: Box<CompiledExpr>, right: Box<CompiledExpr> },
    Unary { func: ScalarFn, arg: Box<CompiledExpr> },
    BinaryFn { func: ScalarFn, left: Box<CompiledExpr>, right: Box<CompiledExpr> },
}

impl CompiledExpr {
    /// Evaluate against one contiguous row.
    pub(crate) fn evaluate(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledExpr::Column(idx) => Ok(row[*idx].clone()),
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Binary { op, left, right } => {
                let l = left.evaluate(row)?;
                let r = right.evaluate(row)?;
                eval_binary(*op, &l, &r)
            }
            CompiledExpr::Unary { func, arg } => eval_unary(*func, arg.evaluate(row)?),
            CompiledExpr::BinaryFn { func, left, right } => {
                let l = left.evaluate(row)?;
                let r = right.evaluate(row)?;
                eval_binary_fn(*func, &l, &r)
            }
        }
    }

    /// Evaluate against the virtual row `left ++ right` where `left` has
    /// `split` columns.
    pub(crate) fn evaluate_split(
        &self,
        left_row: &[Value],
        right_row: &[Value],
        split: usize,
    ) -> Result<Value> {
        match self {
            CompiledExpr::Column(idx) => Ok(if *idx < split {
                left_row[*idx].clone()
            } else {
                right_row[*idx - split].clone()
            }),
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Binary { op, left, right } => {
                let l = left.evaluate_split(left_row, right_row, split)?;
                let r = right.evaluate_split(left_row, right_row, split)?;
                eval_binary(*op, &l, &r)
            }
            CompiledExpr::Unary { func, arg } => {
                eval_unary(*func, arg.evaluate_split(left_row, right_row, split)?)
            }
            CompiledExpr::BinaryFn { func, left, right } => {
                let l = left.evaluate_split(left_row, right_row, split)?;
                let r = right.evaluate_split(left_row, right_row, split)?;
                eval_binary_fn(*func, &l, &r)
            }
        }
    }
}

/// An unboxed float evaluator for expression trees that provably coerce to
/// `f64` anyway: no string columns, no comparisons/boolean connectives, and
/// no `Int (+|-|*) Int` nodes (those produce exact 64-bit integers in the
/// generic evaluator, which an `f64` pipeline could round). Within that
/// fragment, evaluation performs bit-identical arithmetic to
/// [`Expr::evaluate`] — every value the generic path would coerce with
/// `as_f64` is read as `f64` at the leaf — so fused aggregation can use it
/// without changing results. `None` models SQL NULL with the same
/// propagation rules.
#[derive(Debug, Clone)]
pub(crate) enum FloatExpr {
    Column(usize),
    Const(Option<f64>),
    Binary { op: BinaryOp, left: Box<FloatExpr>, right: Box<FloatExpr> },
    Unary { func: ScalarFn, arg: Box<FloatExpr> },
    BinaryFn { func: ScalarFn, left: Box<FloatExpr>, right: Box<FloatExpr> },
}

/// Static type of a float-safe subtree: whether the generic evaluator would
/// have produced `Value::Int` (bare integer leaf) or `Value::Float`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum FloatExprType {
    IntLeaf,
    Float,
}

impl FloatExpr {
    /// Translate a parameter-free expression into the float fragment.
    /// Returns `None` when the expression is outside the fragment (then the
    /// caller falls back to [`CompiledExpr`]).
    pub(crate) fn from_expr(expr: &Expr, schema: &Schema) -> Option<(FloatExpr, FloatExprType)> {
        match expr {
            Expr::Column(name) => {
                let idx = schema.index_of(name).ok()?;
                match schema.field(idx).dtype {
                    DataType::Str => None,
                    DataType::Int => Some((FloatExpr::Column(idx), FloatExprType::IntLeaf)),
                    DataType::Float => Some((FloatExpr::Column(idx), FloatExprType::Float)),
                }
            }
            Expr::Literal(Value::Null) => Some((FloatExpr::Const(None), FloatExprType::Float)),
            Expr::Literal(Value::Int(v)) => {
                // Large integer literals would round when carried as f64.
                (v.abs() <= (1i64 << 53))
                    .then_some((FloatExpr::Const(Some(*v as f64)), FloatExprType::IntLeaf))
            }
            Expr::Literal(Value::Float(x)) => {
                Some((FloatExpr::Const(Some(*x)), FloatExprType::Float))
            }
            Expr::Literal(Value::Str(_)) | Expr::Param(_) => None,
            Expr::Binary { op, left, right } => {
                match op {
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {}
                    // Comparisons and boolean connectives are outside the
                    // float fragment (they yield SQL-style Int 0/1).
                    _ => return None,
                }
                let (l, lt) = Self::from_expr(left, schema)?;
                let (r, rt) = Self::from_expr(right, schema)?;
                // Int (+|-|*) Int is exact integer arithmetic generically.
                if *op != BinaryOp::Div
                    && lt == FloatExprType::IntLeaf
                    && rt == FloatExprType::IntLeaf
                {
                    return None;
                }
                Some((
                    FloatExpr::Binary { op: *op, left: Box::new(l), right: Box::new(r) },
                    FloatExprType::Float,
                ))
            }
            Expr::Unary { func, arg } => {
                let (a, _) = Self::from_expr(arg, schema)?;
                Some((FloatExpr::Unary { func: *func, arg: Box::new(a) }, FloatExprType::Float))
            }
            Expr::BinaryFn { func, left, right } => {
                let (l, _) = Self::from_expr(left, schema)?;
                let (r, _) = Self::from_expr(right, schema)?;
                Some((
                    FloatExpr::BinaryFn { func: *func, left: Box::new(l), right: Box::new(r) },
                    FloatExprType::Float,
                ))
            }
        }
    }

    /// Evaluate against the virtual row `left ++ right` (`left` has `split`
    /// columns); `Ok(None)` is SQL NULL.
    pub(crate) fn evaluate_split(
        &self,
        left_row: &[Value],
        right_row: &[Value],
        split: usize,
    ) -> Result<Option<f64>> {
        match self {
            FloatExpr::Column(idx) => {
                leaf_f64(if *idx < split { &left_row[*idx] } else { &right_row[*idx - split] })
            }
            FloatExpr::Const(v) => Ok(*v),
            FloatExpr::Binary { op, left, right } => {
                let (Some(a), Some(b)) = (
                    left.evaluate_split(left_row, right_row, split)?,
                    right.evaluate_split(left_row, right_row, split)?,
                ) else {
                    return Ok(None);
                };
                arith_f64(*op, a, b).map(Some)
            }
            FloatExpr::Unary { func, arg } => {
                let Some(x) = arg.evaluate_split(left_row, right_row, split)? else {
                    return Ok(None);
                };
                unary_f64(*func, x).map(Some)
            }
            FloatExpr::BinaryFn { func, left, right } => {
                let (Some(a), Some(b)) = (
                    left.evaluate_split(left_row, right_row, split)?,
                    right.evaluate_split(left_row, right_row, split)?,
                ) else {
                    return Ok(None);
                };
                binary_fn_f64(*func, a, b).map(Some)
            }
        }
    }

    /// Evaluate over `n` rows at once, a column at a time: `column(idx)`
    /// returns column `idx`'s `n` values (`None` is SQL NULL). Every row's
    /// value has the bits [`evaluate_split`](Self::evaluate_split) gives
    /// it; a row whose evaluation errs fails the whole call (with the
    /// erring node's error, not necessarily the first row's).
    pub(crate) fn evaluate_columns<F>(&self, n: usize, column: &F) -> Result<Vec<Option<f64>>>
    where
        F: Fn(usize) -> Result<Vec<Option<f64>>>,
    {
        match self {
            FloatExpr::Column(idx) => column(*idx),
            FloatExpr::Const(v) => Ok(vec![*v; n]),
            FloatExpr::Binary { op, left, right } => {
                let (l, r) =
                    (left.evaluate_columns(n, column)?, right.evaluate_columns(n, column)?);
                both(|a, b| arith_f64(*op, a, b), l, r)
            }
            FloatExpr::Unary { func, arg } => {
                let mut out = arg.evaluate_columns(n, column)?;
                for value in out.iter_mut().flatten() {
                    *value = unary_f64(*func, *value)?;
                }
                Ok(out)
            }
            FloatExpr::BinaryFn { func, left, right } => {
                let (l, r) =
                    (left.evaluate_columns(n, column)?, right.evaluate_columns(n, column)?);
                both(|a, b| binary_fn_f64(*func, a, b), l, r)
            }
        }
    }
}

/// `f` over two columns row by row: NULL where either side is NULL.
#[inline]
fn both(
    f: impl Fn(f64, f64) -> Result<f64>,
    left: Vec<Option<f64>>,
    right: Vec<Option<f64>>,
) -> Result<Vec<Option<f64>>> {
    let mut out = left;
    for (a, b) in out.iter_mut().zip(right) {
        *a = match (*a, b) {
            (Some(x), Some(y)) => Some(f(x, y)?),
            _ => None,
        };
    }
    Ok(out)
}

/// A cell read as a float-fragment leaf: NULL is `None`, numerics widen to
/// `f64` as [`FloatExpr::evaluate_split`] reads them.
pub(crate) fn leaf_f64(v: &Value) -> Result<Option<f64>> {
    match v {
        Value::Null => Ok(None),
        Value::Int(i) => Ok(Some(*i as f64)),
        Value::Float(x) => Ok(Some(*x)),
        other => Err(RelqError::TypeMismatch { expected: "numeric", found: format!("{other}") }),
    }
}

/// `op` over two non-NULL float operands. Every evaluator — the `Value`
/// one and both forms of the float fragment — computes through these three
/// functions, which is what keeps their results bit-identical.
#[inline]
fn arith_f64(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
    Ok(match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(RelqError::Arithmetic("division by zero".to_string()));
            }
            a / b
        }
        _ => unreachable!("only arithmetic operators compute on floats"),
    })
}

/// A one-argument function of a non-NULL float (see [`arith_f64`]).
#[inline]
fn unary_f64(func: ScalarFn, x: f64) -> Result<f64> {
    Ok(match func {
        ScalarFn::Ln => {
            if x <= 0.0 {
                return Err(RelqError::Arithmetic(format!("LOG of non-positive value {x}")));
            }
            x.ln()
        }
        ScalarFn::Exp => x.exp(),
        ScalarFn::Sqrt => {
            if x < 0.0 {
                return Err(RelqError::Arithmetic(format!("SQRT of negative value {x}")));
            }
            x.sqrt()
        }
        ScalarFn::Abs => x.abs(),
        other => {
            return Err(RelqError::InvalidPlan(format!("{other:?} is not a one-argument function")))
        }
    })
}

/// A two-argument function of two non-NULL floats (see [`arith_f64`]).
#[inline]
fn binary_fn_f64(func: ScalarFn, a: f64, b: f64) -> Result<f64> {
    Ok(match func {
        ScalarFn::Power => a.powf(b),
        ScalarFn::Least => a.min(b),
        ScalarFn::Greatest => a.max(b),
        other => {
            return Err(RelqError::InvalidPlan(format!("{other:?} is not a two-argument function")))
        }
    })
}

fn eval_unary(func: ScalarFn, v: Value) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    unary_f64(func, v.as_f64()?).map(Value::Float)
}

fn eval_binary_fn(func: ScalarFn, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    binary_fn_f64(func, l.as_f64()?, r.as_f64()?).map(Value::Float)
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Keep integer arithmetic exact when both sides are integers and
            // the operation is not division (SQL-style division is fractional
            // here because every weight formula in the paper needs it).
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                match op {
                    Add => return Ok(Value::Int(a + b)),
                    Sub => return Ok(Value::Int(a - b)),
                    Mul => return Ok(Value::Int(a * b)),
                    _ => {}
                }
            }
            arith_f64(op, l.as_f64()?, r.as_f64()?).map(Value::Float)
        }
        Eq => Ok(Value::Int((l == r) as i64)),
        NotEq => Ok(Value::Int((l != r) as i64)),
        Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Int(0));
            }
            let ord = l.total_cmp(r);
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(b as i64))
        }
        And => Ok(Value::Int((l.as_bool()? && r.as_bool()?) as i64)),
        Or => Ok(Value::Int((l.as_bool()? || r.as_bool()?) as i64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float), ("s", DataType::Str)])
    }

    fn row() -> Row {
        vec![Value::Int(4), Value::Float(2.5), Value::Str("x".into())]
    }

    #[test]
    fn column_and_literal() {
        let s = schema();
        assert_eq!(col("a").evaluate(&row(), &s).unwrap(), Value::Int(4));
        assert_eq!(lit(7i64).evaluate(&row(), &s).unwrap(), Value::Int(7));
        assert!(col("zzz").evaluate(&row(), &s).is_err());
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let e = col("a").add(col("b"));
        assert_eq!(e.evaluate(&row(), &s).unwrap(), Value::Float(6.5));
        let e = col("a").mul(lit(3i64));
        assert_eq!(e.evaluate(&row(), &s).unwrap(), Value::Int(12));
        let e = col("a").div(lit(8i64));
        assert_eq!(e.evaluate(&row(), &s).unwrap(), Value::Float(0.5));
        let e = col("a").div(lit(0i64));
        assert!(e.evaluate(&row(), &s).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let s = schema();
        assert_eq!(col("a").gt(lit(3i64)).evaluate(&row(), &s).unwrap(), Value::Int(1));
        assert_eq!(col("a").lt(lit(3i64)).evaluate(&row(), &s).unwrap(), Value::Int(0));
        assert_eq!(col("s").eq(lit("x")).evaluate(&row(), &s).unwrap(), Value::Int(1));
        let e = col("a").gt(lit(3i64)).and(col("b").lt(lit(3.0)));
        assert_eq!(e.evaluate(&row(), &s).unwrap(), Value::Int(1));
        let e = col("a").gt(lit(100i64)).or(col("b").lt(lit(3.0)));
        assert_eq!(e.evaluate(&row(), &s).unwrap(), Value::Int(1));
    }

    #[test]
    fn scalar_functions() {
        let s = schema();
        let v = col("b").ln().evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert!((v - 2.5f64.ln()).abs() < 1e-12);
        let v = lit(1.0).exp().evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert!((v - std::f64::consts::E).abs() < 1e-12);
        let v = lit(9.0).sqrt().evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert!((v - 3.0).abs() < 1e-12);
        let v = lit(2.0).power(lit(10.0)).evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert!((v - 1024.0).abs() < 1e-9);
        let v = lit(2.0).least(lit(5.0)).evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert_eq!(v, 2.0);
        let v = lit(2.0).greatest(lit(5.0)).evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert_eq!(v, 5.0);
        assert!(lit(-1.0).ln().evaluate(&row(), &s).is_err());
        assert!(lit(-1.0).sqrt().evaluate(&row(), &s).is_err());
        let v = lit(-1.5).abs().evaluate(&row(), &s).unwrap().as_f64().unwrap();
        assert_eq!(v, 1.5);
    }

    #[test]
    fn params_bind_and_refuse_unbound_evaluation() {
        let s = schema();
        let e = col("a").add(param("boost"));
        assert!(e.has_params());
        assert!(!col("a").add(lit(1i64)).has_params());
        // Unbound evaluation is an error, not a silent default.
        assert!(matches!(e.evaluate(&row(), &s), Err(RelqError::UnboundParam(_))));
        let bindings = crate::Bindings::new().with_scalar("boost", 10i64);
        let bound = e.bind(&bindings).unwrap();
        assert!(!bound.has_params());
        assert_eq!(bound.evaluate(&row(), &s).unwrap(), Value::Int(14));
        assert!(e.bind(&crate::Bindings::new()).is_err());
    }

    #[test]
    fn output_types_derive_from_expressions() {
        let s = schema();
        assert_eq!(col("a").output_type(&s), Some(DataType::Int));
        assert_eq!(col("b").output_type(&s), Some(DataType::Float));
        assert_eq!(col("s").output_type(&s), Some(DataType::Str));
        assert_eq!(col("missing").output_type(&s), None);
        assert_eq!(col("a").add(col("a")).output_type(&s), Some(DataType::Int));
        assert_eq!(col("a").add(col("b")).output_type(&s), Some(DataType::Float));
        assert_eq!(col("a").div(col("a")).output_type(&s), Some(DataType::Float));
        assert_eq!(col("a").gt(lit(1i64)).output_type(&s), Some(DataType::Int));
        assert_eq!(col("b").ln().output_type(&s), Some(DataType::Float));
        assert_eq!(lit(2.0).power(lit(3.0)).output_type(&s), Some(DataType::Float));
        assert_eq!(lit(Value::Null).output_type(&s), None);
        assert_eq!(param("p").output_type(&s), None);
    }

    #[test]
    fn null_propagation() {
        let s = Schema::from_pairs(&[("n", DataType::Float)]);
        let r = vec![Value::Null];
        assert_eq!(col("n").add(lit(1.0)).evaluate(&r, &s).unwrap(), Value::Null);
        assert_eq!(col("n").ln().evaluate(&r, &s).unwrap(), Value::Null);
        assert_eq!(col("n").gt(lit(0.0)).evaluate(&r, &s).unwrap(), Value::Int(0));
    }
}
