//! In-memory tables: a schema plus one flat cell arena.
//!
//! A table keeps its cells row-major in a single `Vec<Value>`, `width`
//! cells per row, next to an explicit row count. A relation of any size is
//! one allocation (plus the strings its cells own): rows are handed out as
//! `&[Value]` slices of the arena ([`Table::row`], [`Table::rows`]), never
//! as per-row vectors. The row count is stored rather than derived because
//! a zero-width table (no columns, e.g. `SELECT` of nothing) has rows but
//! no cells.

use crate::error::{RelqError, Result};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Row, Value};
use std::fmt;
use std::iter::FusedIterator;

/// A materialized relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    /// `num_rows × schema.len()` cells, row-major.
    cells: Vec<Value>,
    num_rows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table { schema, cells: Vec::new(), num_rows: 0 }
    }

    /// Create an empty table whose arena holds `rows` rows before it grows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let cells = Vec::with_capacity(rows.saturating_mul(schema.len()));
        Table { schema, cells, num_rows: 0 }
    }

    /// Create a table from a schema and pre-built rows (rows are validated).
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut t = Table::with_capacity(schema, rows.len());
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Create a table from a row-major arena without validating it. Used
    /// internally by operators that write cells known to match the schema.
    pub(crate) fn from_cells_unchecked(schema: Schema, cells: Vec<Value>, num_rows: usize) -> Self {
        debug_assert_eq!(cells.len(), num_rows * schema.len(), "arena is not num_rows × width");
        Table { schema, cells, num_rows }
    }

    /// The schema, the arena and the row count, for operators that reuse an
    /// owned input's arena.
    pub(crate) fn into_parts(self) -> (Schema, Vec<Value>, usize) {
        (self.schema, self.cells, self.num_rows)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns, i.e. cells per row.
    pub(crate) fn width(&self) -> usize {
        self.schema.len()
    }

    /// Row `i` as a slice of the arena. Panics when `i >= num_rows()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.num_rows, "row {i} out of range for {} rows", self.num_rows);
        let width = self.width();
        &self.cells[i * width..(i + 1) * width]
    }

    /// The rows in table order, each a slice of the arena.
    pub fn rows(&self) -> Rows<'_> {
        Rows { cells: &self.cells, width: self.width(), left: self.num_rows }
    }

    /// Every cell, row-major.
    pub(crate) fn cells(&self) -> &[Value] {
        &self.cells
    }

    /// The rows as owned vectors (one allocation per row).
    pub fn into_rows(self) -> Vec<Row> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Append a row, checking arity and types (NULL is allowed in any column).
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        self.check_row(&row)?;
        self.cells.extend(row);
        self.num_rows += 1;
        Ok(())
    }

    /// [`push_row`](Self::push_row) from an array: the same checks, and no
    /// allocation once [`with_capacity`](Self::with_capacity) sized the
    /// arena.
    pub fn push<const N: usize>(&mut self, row: [Value; N]) -> Result<()> {
        self.check_row(&row)?;
        self.cells.extend(row);
        self.num_rows += 1;
        Ok(())
    }

    /// The arity and type checks of [`push_row`](Self::push_row).
    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RelqError::ArityMismatch { expected: self.schema.len(), found: row.len() });
        }
        for (value, field) in row.iter().zip(self.schema.fields()) {
            if let Some(dt) = value.data_type() {
                let compatible =
                    dt == field.dtype || (field.dtype == DataType::Float && dt == DataType::Int);
                if !compatible {
                    return Err(RelqError::TypeMismatch {
                        expected: match field.dtype {
                            DataType::Int => "Int",
                            DataType::Float => "Float",
                            DataType::Str => "Str",
                        },
                        found: format!("{dt} in column {}", field.name),
                    });
                }
            }
        }
        Ok(())
    }

    /// Append many rows.
    pub fn extend_rows(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for r in rows {
            self.push_row(r)?;
        }
        Ok(())
    }

    /// Get the value at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Result<&Value> {
        let idx = self.schema.index_of(column)?;
        Ok(&self.row(row)[idx])
    }

    /// Extract a whole column by name.
    pub fn column(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(column)?;
        Ok(self.rows().map(|r| r[idx].clone()).collect())
    }

    /// Sort rows in place by the given column, ascending or descending
    /// (stable: equal keys keep their order).
    pub fn sort_by_column(&mut self, column: &str, descending: bool) -> Result<()> {
        let idx = self.schema.index_of(column)?;
        let mut order: Vec<usize> = (0..self.num_rows).collect();
        order.sort_by(|&a, &b| {
            let ord = self.row(a)[idx].total_cmp(&self.row(b)[idx]);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        self.permute(&order);
        Ok(())
    }

    /// Reorder the rows so that row `i` becomes the old row `order[i]`;
    /// `order` is a permutation of `0..num_rows`. Cells move, none is cloned.
    pub(crate) fn permute(&mut self, order: &[usize]) {
        debug_assert_eq!(order.len(), self.num_rows);
        let width = self.width();
        let mut old = std::mem::take(&mut self.cells);
        self.cells.reserve_exact(old.len());
        for &i in order {
            let row = &mut old[i * width..(i + 1) * width];
            self.cells.extend(row.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        }
    }

    /// Render the table as a simple aligned text grid (for examples / debug).
    pub fn to_pretty_string(&self) -> String {
        let headers: Vec<String> = self.schema.fields().iter().map(|f| f.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Iterator over a table's rows as arena slices (see [`Table::rows`]).
/// Counts rows rather than cells, so a zero-width table yields one empty
/// slice per row.
#[derive(Clone)]
pub struct Rows<'a> {
    cells: &'a [Value],
    width: usize,
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, rest) = self.cells.split_at(self.width);
        self.cells = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl FusedIterator for Rows<'_> {}

/// Two row sequences are equal when they hold equal rows in the same order,
/// so results compare as `a.rows() == b.rows()` whatever their column names.
impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.left == other.left && self.clone().eq(other.clone())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Fluent builder for constructing tables in tests and preprocessing code.
#[derive(Debug, Default)]
pub struct TableBuilder {
    fields: Vec<Field>,
    rows: Vec<Row>,
}

impl TableBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a column.
    pub fn column(mut self, name: &str, dtype: DataType) -> Self {
        self.fields.push(Field::new(name, dtype));
        self
    }

    /// Add a row of values.
    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.rows.push(values);
        self
    }

    /// Finish, validating every row against the declared schema.
    pub fn build(self) -> Result<Table> {
        Table::new(Schema::new(self.fields), self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token_table() -> Table {
        TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Str)
            .row(vec![1.into(), "ab".into()])
            .row(vec![1.into(), "bc".into()])
            .row(vec![2.into(), "ab".into()])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let t = token_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, "token").unwrap(), &Value::Str("ab".into()));
        assert_eq!(t.column("tid").unwrap(), vec![1.into(), 1.into(), 2.into()]);
        assert!(t.value(0, "missing").is_err());
    }

    #[test]
    fn arity_and_type_checking() {
        let mut t = Table::empty(Schema::from_pairs(&[("a", DataType::Int)]));
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(t.push_row(vec![Value::Str("x".into())]).is_err());
        assert!(t.push_row(vec![Value::Null]).is_ok());
        assert!(t.push_row(vec![Value::Int(7)]).is_ok());
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn int_values_accepted_in_float_columns() {
        let mut t = Table::empty(Schema::from_pairs(&[("w", DataType::Float)]));
        assert!(t.push_row(vec![Value::Int(3)]).is_ok());
        assert!(t.push_row(vec![Value::Float(0.5)]).is_ok());
    }

    #[test]
    fn sorting_descending() {
        let mut t = token_table();
        t.sort_by_column("tid", true).unwrap();
        assert_eq!(t.value(0, "tid").unwrap(), &Value::Int(2));
    }

    #[test]
    fn rows_are_adjacent_slices_of_one_arena() {
        let schema = Schema::from_pairs(&[("tid", DataType::Int), ("w", DataType::Float)]);
        let mut pushed = Table::with_capacity(schema.clone(), 4);
        for i in 0..4 {
            pushed.push([Value::Int(i), Value::Float(i as f64 / 2.0)]).unwrap();
        }
        let rows = (0..4).map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)]).collect();
        let validated = Table::new(schema, rows).unwrap();
        assert_eq!(pushed, validated);
        for t in [&pushed, &validated, &token_table()] {
            let width = t.width();
            let rows: Vec<&[Value]> = t.rows().collect();
            assert_eq!(rows.len(), t.num_rows());
            assert_eq!(t.cells().len(), t.num_rows() * width);
            assert_eq!(rows[0].as_ptr(), t.cells().as_ptr());
            for (i, pair) in rows.windows(2).enumerate() {
                assert_eq!(pair[0].len(), width);
                assert_eq!(pair[1].as_ptr(), pair[0].as_ptr().wrapping_add(width), "row {i}");
                assert_eq!(pair[1], t.row(i + 1));
            }
        }
    }

    #[test]
    fn zero_width_tables_count_their_rows() {
        let mut t = Table::with_capacity(Schema::new(Vec::new()), 3);
        for _ in 0..3 {
            t.push([]).unwrap();
        }
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert_eq!((t.num_rows(), t.cells().len()), (3, 0));
        assert_eq!(t.rows().len(), 3);
        assert!(t.rows().all(<[Value]>::is_empty));
        assert_eq!(t.clone().into_rows(), vec![Vec::<Value>::new(); 3]);
        assert!(t.row(2).is_empty());
    }

    #[test]
    fn sorting_is_stable_and_moves_whole_rows() {
        let mut t = token_table();
        t.sort_by_column("token", false).unwrap();
        let rows: Vec<Row> = t.into_rows();
        assert_eq!(
            rows,
            vec![
                vec![1.into(), "ab".into()],
                vec![2.into(), "ab".into()],
                vec![1.into(), "bc".into()],
            ]
        );
    }

    #[test]
    fn pretty_print_contains_headers_and_cells() {
        let s = token_table().to_pretty_string();
        assert!(s.contains("tid"));
        assert!(s.contains("token"));
        assert!(s.contains("bc"));
    }
}
