//! A named collection of tables (the "database" the plans run against), with
//! optional persistent inverted indexes.
//!
//! ## The indexed-catalog contract
//!
//! Tables are stored as `Arc<Table>`, each one flat arena of cells (see
//! [`Table`]): [`Plan::Scan`](crate::Plan::Scan) hands out a shared handle,
//! so scanning never copies rows. Registration is the *only* time a table's
//! rows are walked — [`Catalog::register_indexed`] builds a persistent
//! [`TableIndex`] (key values → row ids) right then, which is the
//! preprocessing-time analogue of the paper's clustered index on the
//! token/weight relations. A row id addresses one `width`-cell slice of the
//! arena. At query time [`Plan::IndexJoin`](crate::Plan::IndexJoin) probes
//! that index, so a lookup costs O(matching rows) instead of O(table) — the
//! base relation is never re-hashed or re-scanned per query.

use crate::error::{RelqError, Result};
use crate::posting::PostingIndex;
use crate::table::Table;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A persistent inverted index over one or more key columns of a table: maps
/// each distinct non-NULL key to the ids of the rows carrying it, in table
/// order (so index probes enumerate matches exactly as a hash join built on
/// the full table would). The ids of all keys share one arena, each key's
/// run contiguous, so the index holds one allocation per key (the key
/// itself) rather than two.
#[derive(Debug, Clone)]
pub struct TableIndex {
    key_cols: Vec<String>,
    /// Key → its run `(start, len)` in `row_ids`.
    map: HashMap<Vec<Value>, (u32, u32)>,
    row_ids: Vec<u32>,
    /// For a single Int key column holding each value at most once over a
    /// compact range (a per-tuple table keyed on tid): the smallest key and
    /// the row id of every key from it on, `u32::MAX` where none.
    dense: Option<(i64, Vec<u32>)>,
}

impl TableIndex {
    fn build(table: &Table, key_cols: &[String]) -> Result<Self> {
        if key_cols.is_empty() {
            return Err(RelqError::InvalidPlan(
                "an index needs at least one key column".to_string(),
            ));
        }
        let key_idx: Vec<usize> =
            key_cols.iter().map(|c| table.schema().index_of(c)).collect::<Result<_>>()?;
        // Pass 1: number the distinct keys in first-seen order, count their
        // rows, and note each row's key number (`u32::MAX` for a NULL key,
        // which SQL equality never matches). One scratch key serves every
        // row: a key is copied into the map only when it is new.
        let mut map: HashMap<Vec<Value>, (u32, u32)> = HashMap::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut row_keys: Vec<u32> = Vec::with_capacity(table.num_rows());
        let mut key: Vec<Value> = Vec::with_capacity(key_idx.len());
        for row in table.rows() {
            key.clear();
            key.extend(key_idx.iter().map(|&i| row[i].clone()));
            if key.iter().any(Value::is_null) {
                row_keys.push(u32::MAX);
                continue;
            }
            let slot = match map.get(key.as_slice()) {
                Some(&(slot, _)) => slot,
                None => {
                    let slot = counts.len() as u32;
                    map.insert(key.clone(), (slot, 0));
                    counts.push(0);
                    slot
                }
            };
            counts[slot as usize] += 1;
            row_keys.push(slot);
        }
        // Pass 2: lay the runs out back to back in key-number order and
        // scatter the row ids into them, in table order.
        let mut starts: Vec<u32> = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &c in &counts {
            starts.push(total);
            total += c;
        }
        let mut row_ids = vec![0u32; total as usize];
        let mut next = starts.clone();
        for (row_no, &slot) in row_keys.iter().enumerate() {
            if slot != u32::MAX {
                row_ids[next[slot as usize] as usize] = row_no as u32;
                next[slot as usize] += 1;
            }
        }
        for run in map.values_mut() {
            let slot = run.0 as usize;
            *run = (starts[slot], counts[slot]);
        }
        let dense = Self::dense_unique(&map, &row_ids);
        Ok(TableIndex { key_cols: key_cols.to_vec(), map, row_ids, dense })
    }

    /// The dense key → row array of a unique single-Int-column key whose
    /// range spans at most twice the key count (plus a little slack), else
    /// `None`.
    fn dense_unique(
        map: &HashMap<Vec<Value>, (u32, u32)>,
        row_ids: &[u32],
    ) -> Option<(i64, Vec<u32>)> {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (key, &(_, len)) in map {
            let [Value::Int(k)] = key.as_slice() else { return None };
            if len != 1 {
                return None;
            }
            (lo, hi) = (lo.min(*k), hi.max(*k));
        }
        let span = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        if span > 2 * map.len() + 64 {
            return None;
        }
        let mut rows = vec![u32::MAX; span];
        for (key, &(start, _)) in map {
            let Value::Int(k) = key[0] else { unreachable!("checked above") };
            rows[(k - lo) as usize] = row_ids[start as usize];
        }
        Some((lo, rows))
    }

    /// The indexed key columns, in key order.
    pub fn key_cols(&self) -> &[String] {
        &self.key_cols
    }

    /// Row ids whose key equals `key`, in table order.
    pub fn lookup(&self, key: &[Value]) -> Option<&[u32]> {
        let &(start, len) = self.map.get(key)?;
        Some(&self.row_ids[start as usize..(start + len) as usize])
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// The row whose single Int key is `key`, through the dense key → row
    /// array: `None` when the index has no such array (not a unique compact
    /// Int key, see [`has_dense_keys`](Self::has_dense_keys)) or no row
    /// carries `key`.
    #[inline]
    pub(crate) fn dense_row(&self, key: i64) -> Option<usize> {
        let (lo, rows) = self.dense.as_ref()?;
        let at = usize::try_from(key.checked_sub(*lo)?).ok()?;
        rows.get(at).filter(|&&row| row != u32::MAX).map(|&row| row as usize)
    }

    /// Whether lookups by a single Int key can go through the dense key →
    /// row array ([`dense_row`](Self::dense_row)).
    pub(crate) fn has_dense_keys(&self) -> bool {
        self.dense.is_some()
    }
}

/// Per-column `(min, max)` ranges of the Int columns of an indexed table.
/// Computed once at registration; `None` for non-Int columns, for columns
/// containing no Int values, and for columns holding unexpected value types.
/// The fused index-join aggregation uses these to switch from hash-based to
/// dense-array group lookup when a GROUP BY key has a compact Int range.
fn int_column_stats(table: &Table) -> Vec<Option<(i64, i64)>> {
    table
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(i, field)| {
            if field.dtype != crate::value::DataType::Int {
                return None;
            }
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            let mut any = false;
            for row in table.rows() {
                match &row[i] {
                    Value::Int(v) => {
                        any = true;
                        min = min.min(*v);
                        max = max.max(*v);
                    }
                    Value::Null => {}
                    _ => return None,
                }
            }
            any.then_some((min, max))
        })
        .collect()
}

/// Catalog of named, materialized tables stored behind `Arc` plus their
/// persistent indexes and registration-time column statistics.
///
/// Tables *and* indexes live behind `Arc`, so `Catalog::clone` is cheap and
/// shares both: the predicate engine clones one shared base catalog per
/// predicate and registers only predicate-specific tables on top, without
/// ever duplicating phase-1 tables or rebuilding their indexes.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    indexes: BTreeMap<String, Vec<Arc<TableIndex>>>,
    int_stats: BTreeMap<String, Vec<Option<(i64, i64)>>>,
    /// Tid-ordered posting lists (see [`PostingIndex`]), the registration
    /// artifact behind [`Plan::TopKBounded`](crate::Plan::TopKBounded).
    postings: BTreeMap<String, Arc<PostingIndex>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table under a name. The table is stored behind
    /// `Arc`, so scans share it without copying rows. Replacing a table drops
    /// any indexes built for the previous registration.
    pub fn register(&mut self, name: &str, table: impl Into<Arc<Table>>) {
        self.indexes.remove(name);
        self.int_stats.remove(name);
        self.postings.remove(name);
        self.tables.insert(name.to_string(), table.into());
    }

    /// Register a table and build a persistent index over `key_cols` in the
    /// same step (preprocessing-time work; query-time `IndexJoin`s probe it).
    /// Int-column min/max statistics are collected in the same pass so the
    /// executor can use dense group lookups. Fails if a key column does not
    /// exist in the table's schema.
    pub fn register_indexed(
        &mut self,
        name: &str,
        table: impl Into<Arc<Table>>,
        key_cols: &[&str],
    ) -> Result<()> {
        let table = table.into();
        let cols: Vec<String> = key_cols.iter().map(|s| s.to_string()).collect();
        let index = TableIndex::build(&table, &cols)?;
        self.indexes.remove(name);
        self.postings.remove(name);
        self.indexes.insert(name.to_string(), vec![Arc::new(index)]);
        self.int_stats.insert(name.to_string(), int_column_stats(&table));
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Attach an already built (shared) posting index under `name` — the
    /// lazy-shared-artifact path: one engine builds the index once and every
    /// predicate catalog aliases it. No table need be registered under
    /// `name`: the bounded operators read only the posting, so a catalog
    /// that serves nothing else holds the posting alone. Registering a table
    /// under `name` later drops the posting.
    pub fn attach_posting(&mut self, name: &str, posting: Arc<PostingIndex>) {
        self.postings.insert(name.to_string(), posting);
    }

    /// The posting index of a table, if one was registered or attached.
    pub fn posting_for(&self, name: &str) -> Option<&Arc<PostingIndex>> {
        self.postings.get(name)
    }

    /// Copy every registration of `other` into this catalog (shared `Arc`
    /// handles — tables, indexes, statistics and postings are aliased, never
    /// rebuilt). Entries in `other` replace same-named entries here. This is
    /// how the engine layer composes per-artifact mini-catalogs into the
    /// minimal catalog each predicate actually probes.
    pub fn merge_from(&mut self, other: &Catalog) {
        for (name, table) in &other.tables {
            self.tables.insert(name.clone(), table.clone());
            self.indexes.remove(name);
            self.int_stats.remove(name);
            self.postings.remove(name);
            if let Some(ixs) = other.indexes.get(name) {
                self.indexes.insert(name.clone(), ixs.clone());
            }
            if let Some(stats) = other.int_stats.get(name) {
                self.int_stats.insert(name.clone(), stats.clone());
            }
            if let Some(p) = other.postings.get(name) {
                self.postings.insert(name.clone(), p.clone());
            }
        }
        for (name, posting) in &other.postings {
            if !other.tables.contains_key(name) {
                self.postings.insert(name.clone(), posting.clone());
            }
        }
    }

    /// Build an additional index over an already registered table (no-op when
    /// an index on exactly these key columns already exists).
    pub fn add_index(&mut self, name: &str, key_cols: &[&str]) -> Result<()> {
        let table = self.get_shared(name)?;
        let cols: Vec<String> = key_cols.iter().map(|s| s.to_string()).collect();
        if self.index_for(name, &cols).is_some() {
            return Ok(());
        }
        let index = TableIndex::build(&table, &cols)?;
        self.indexes.entry(name.to_string()).or_default().push(Arc::new(index));
        Ok(())
    }

    /// Remove a table (and its indexes), returning the shared handle.
    pub fn deregister(&mut self, name: &str) -> Option<Arc<Table>> {
        self.indexes.remove(name);
        self.int_stats.remove(name);
        self.postings.remove(name);
        self.tables.remove(name)
    }

    /// The `(min, max)` range of an Int column of an indexed table, when the
    /// registration pass could determine one.
    pub fn int_column_range(&self, name: &str, col: usize) -> Option<(i64, i64)> {
        *self.int_stats.get(name)?.get(col)?
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| RelqError::UnknownTable(name.to_string()))
    }

    /// Look up a table by name, returning the shared handle (used by scans).
    pub fn get_shared(&self, name: &str) -> Result<Arc<Table>> {
        self.tables.get(name).cloned().ok_or_else(|| RelqError::UnknownTable(name.to_string()))
    }

    /// The index of `name` over exactly `key_cols`, if one was registered.
    pub fn index_for(&self, name: &str, key_cols: &[String]) -> Option<&TableIndex> {
        self.indexes.get(name)?.iter().find(|ix| ix.key_cols == key_cols).map(Arc::as_ref)
    }

    /// Whether a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Total number of rows across all registered tables (used to report
    /// preprocessing space, analogous to the paper's intermediate-table count).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.num_rows()).sum()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn small_table(rows: usize) -> Table {
        let mut t = Table::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        for i in 0..rows {
            t.push_row(vec![((i % 3) as i64).into()]).unwrap();
        }
        t
    }

    #[test]
    fn unique_compact_int_keys_get_a_dense_row_array() {
        let index = |keys: Vec<Value>| {
            let mut t = Table::empty(Schema::from_pairs(&[("k", DataType::Int)]));
            for key in keys {
                t.push_row(vec![key]).unwrap();
            }
            TableIndex::build(&t, &["k".to_string()]).unwrap()
        };
        // Keys 5, 3, 9 (and a NULL, which no lookup matches) in rows 0..4.
        let dense = index(vec![5.into(), 3.into(), Value::Null, 9.into()]);
        assert!(dense.has_dense_keys());
        let rows: Vec<_> = (2..=10).map(|key| dense.dense_row(key)).collect();
        let expected = [None, Some(1), None, Some(0), None, None, None, Some(3), None];
        assert_eq!(rows, expected);
        assert_eq!(dense.dense_row(i64::MIN), None);
        // A repeated key, a sparse range and an empty table get none.
        assert!(!index(vec![1.into(), 1.into()]).has_dense_keys());
        assert!(!index(vec![0.into(), 1_000.into()]).has_dense_keys());
        assert!(!index(Vec::new()).has_dense_keys());
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register("a", small_table(3));
        c.register("b", small_table(2));
        assert_eq!(c.len(), 2);
        assert!(c.contains("a"));
        assert_eq!(c.get("a").unwrap().num_rows(), 3);
        assert!(c.get("zzz").is_err());
        assert!(c.get_shared("zzz").is_err());
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert_eq!(c.total_rows(), 5);
    }

    #[test]
    fn replace_and_deregister() {
        let mut c = Catalog::new();
        c.register("a", small_table(3));
        c.register("a", small_table(7));
        assert_eq!(c.get("a").unwrap().num_rows(), 7);
        let removed = c.deregister("a").unwrap();
        assert_eq!(removed.num_rows(), 7);
        assert!(!c.contains("a"));
        assert!(c.deregister("a").is_none());
    }

    #[test]
    fn scans_share_storage_instead_of_cloning() {
        let mut c = Catalog::new();
        c.register("a", small_table(4));
        let s1 = c.get_shared("a").unwrap();
        let s2 = c.get_shared("a").unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "shared handles must alias the same allocation");
    }

    #[test]
    fn register_indexed_builds_a_probeable_index() {
        let mut c = Catalog::new();
        c.register_indexed("a", small_table(7), &["x"]).unwrap();
        let ix = c.index_for("a", &["x".to_string()]).expect("index exists");
        assert_eq!(ix.key_cols(), ["x".to_string()]);
        // x cycles 0,1,2 over 7 rows: key 0 -> rows {0,3,6}.
        assert_eq!(ix.lookup(&[Value::Int(0)]), Some(&[0u32, 3, 6][..]));
        assert_eq!(ix.lookup(&[Value::Int(9)]), None);
        assert_eq!(ix.num_keys(), 3);
    }

    #[test]
    fn indexing_unknown_columns_fails_and_nulls_are_skipped() {
        let mut c = Catalog::new();
        assert!(c.register_indexed("a", small_table(2), &["nope"]).is_err());
        let mut t = Table::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        c.register_indexed("b", t, &["x"]).unwrap();
        let ix = c.index_for("b", &["x".to_string()]).unwrap();
        assert_eq!(ix.num_keys(), 1);
        assert!(ix.lookup(&[Value::Null]).is_none());
    }

    #[test]
    fn int_column_stats_are_collected_at_registration() {
        let mut t =
            Table::empty(Schema::from_pairs(&[("tid", DataType::Int), ("w", DataType::Float)]));
        t.push_row(vec![3.into(), 0.5.into()]).unwrap();
        t.push_row(vec![Value::Null, 0.25.into()]).unwrap();
        t.push_row(vec![7.into(), 0.75.into()]).unwrap();
        let mut c = Catalog::new();
        c.register_indexed("t", t, &["tid"]).unwrap();
        assert_eq!(c.int_column_range("t", 0), Some((3, 7)));
        assert_eq!(c.int_column_range("t", 1), None, "Float columns have no Int stats");
        assert_eq!(c.int_column_range("t", 9), None);
        assert_eq!(c.int_column_range("zzz", 0), None);
        // Plain registration does not collect stats (scans don't need them).
        c.register("u", small_table(3));
        assert_eq!(c.int_column_range("u", 0), None);
    }

    #[test]
    fn cloning_a_catalog_shares_tables_and_indexes() {
        let mut base = Catalog::new();
        base.register_indexed("a", small_table(7), &["x"]).unwrap();
        let clone = base.clone();
        let t1 = base.get_shared("a").unwrap();
        let t2 = clone.get_shared("a").unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "cloned catalogs must alias table storage");
        let i1 = base.index_for("a", &["x".to_string()]).unwrap() as *const TableIndex;
        let i2 = clone.index_for("a", &["x".to_string()]).unwrap() as *const TableIndex;
        assert_eq!(i1, i2, "cloned catalogs must alias index storage");
        // Registrations in the clone never leak back into the original.
        let mut clone = clone;
        clone.register("b", small_table(1));
        assert!(clone.contains("b"));
        assert!(!base.contains("b"));
    }

    #[test]
    fn posting_registration_attachment_and_merge() {
        let mut t = Table::empty(Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("token", DataType::Int),
            ("weight", DataType::Float),
        ]));
        t.push_row(vec![1.into(), 7.into(), 0.5.into()]).unwrap();
        t.push_row(vec![2.into(), 7.into(), 1.5.into()]).unwrap();
        let mut c = Catalog::new();
        c.register_indexed("w", t, &["token"]).unwrap();
        assert!(c.posting_for("w").is_none());
        let rows = [(1, Value::Int(7), 0.5), (2, Value::Int(7), 1.5)];
        let p = Arc::new(PostingIndex::from_rows(rows).unwrap());
        c.attach_posting("w", p.clone());
        assert_eq!(c.posting_for("w").unwrap().num_postings(), 2);
        assert!(Arc::ptr_eq(&p, c.posting_for("w").unwrap()));
        // merge_from aliases table, index and posting storage.
        let mut merged = Catalog::new();
        merged.merge_from(&c);
        assert!(Arc::ptr_eq(&merged.get_shared("w").unwrap(), &c.get_shared("w").unwrap()));
        assert!(Arc::ptr_eq(merged.posting_for("w").unwrap(), &p));
        assert!(merged.index_for("w", &["token".to_string()]).is_some());
        assert_eq!(merged.int_column_range("w", 0), c.int_column_range("w", 0));
        // A posting attaches with or without a table under its name, and
        // merging carries a posting-only entry over to a catalog holding the
        // table.
        let mut other = Catalog::new();
        other.attach_posting("w", p.clone());
        assert!(Arc::ptr_eq(other.posting_for("w").unwrap(), &p));
        assert!(!other.contains("w"));
        let mut with_table = Catalog::new();
        with_table.register("w", small_table(1));
        with_table.merge_from(&other);
        assert!(Arc::ptr_eq(with_table.posting_for("w").unwrap(), &p));
        assert_eq!(with_table.get("w").unwrap().num_rows(), 1);
        other.register("w", small_table(1));
        other.attach_posting("w", p.clone());
        assert!(Arc::ptr_eq(other.posting_for("w").unwrap(), &p));
        // Replacing the table drops the (now stale) posting index.
        other.register("w", small_table(2));
        assert!(other.posting_for("w").is_none());
    }

    #[test]
    fn add_index_supports_multiple_key_sets() {
        let mut t = Table::empty(Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]));
        t.push_row(vec![1.into(), 10.into()]).unwrap();
        t.push_row(vec![1.into(), 20.into()]).unwrap();
        let mut c = Catalog::new();
        c.register_indexed("t", t, &["x"]).unwrap();
        c.add_index("t", &["x", "y"]).unwrap();
        c.add_index("t", &["x"]).unwrap(); // no-op duplicate
        assert!(c.index_for("t", &["x".to_string()]).is_some());
        let composite = c.index_for("t", &["x".to_string(), "y".to_string()]).unwrap();
        assert_eq!(composite.lookup(&[Value::Int(1), Value::Int(20)]), Some(&[1u32][..]));
        // Re-registering drops stale indexes.
        c.register("t", small_table(1));
        assert!(c.index_for("t", &["x".to_string()]).is_none());
    }
}
