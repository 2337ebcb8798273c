//! In-memory relations: the view each wrapper exports (§2.1).
//!
//! Relations are row stores with optional per-attribute secondary indexes.
//! A source engine uses them to answer selection queries
//! (`sq(c_i, R_j)`), semijoin queries (`sjq(c_i, R_j, Y)`), and full loads
//! (`lq(R_j)`).

use crate::condition::{CmpOp, Condition, Predicate};
use crate::error::Result;
use crate::itemset::ItemSet;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Item, Value};
use std::collections::BTreeMap;

/// An in-memory relation over the common schema.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
    /// attr index → (value → row ids), built on demand.
    indexes: BTreeMap<usize, BTreeMap<Value, Vec<usize>>>,
    /// index over the merge attribute: item → row ids.
    merge_index: Option<BTreeMap<Value, Vec<usize>>>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
            indexes: BTreeMap::new(),
            merge_index: None,
        }
    }

    /// Creates a relation from rows.
    ///
    /// # Panics
    /// Panics if a row's arity does not match the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Relation {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.arity(),
                schema.arity(),
                "row {i} arity {} does not match schema arity {}",
                r.arity(),
                schema.arity()
            );
        }
        Relation {
            schema,
            rows,
            indexes: BTreeMap::new(),
            merge_index: None,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All tuples in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Appends a tuple, invalidating indexes.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the schema.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(t.arity(), self.schema.arity(), "tuple arity mismatch");
        self.rows.push(t);
        self.indexes.clear();
        self.merge_index = None;
    }

    /// Builds a secondary index over attribute `attr_idx` (idempotent).
    pub fn build_index(&mut self, attr_idx: usize) {
        if self.indexes.contains_key(&attr_idx) {
            return;
        }
        let mut idx: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            idx.entry(row.get(attr_idx).clone()).or_default().push(rid);
        }
        self.indexes.insert(attr_idx, idx);
    }

    /// Builds the merge-attribute index (idempotent).
    pub fn build_merge_index(&mut self) {
        if self.merge_index.is_some() {
            return;
        }
        let mi = self.schema.merge_index();
        let mut idx: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            idx.entry(row.get(mi).clone()).or_default().push(rid);
        }
        self.merge_index = Some(idx);
    }

    /// Evaluates `sq(c, R)`: the set of items whose tuples satisfy `c`,
    /// together with the number of tuples examined (for cost accounting).
    ///
    /// Uses a secondary index for top-level point/range predicates when one
    /// has been built; falls back to a full scan otherwise.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn select_items(&self, cond: &Condition) -> Result<SelectOutcome> {
        // Index fast path: single Cmp predicate over an indexed attribute.
        if let Predicate::Cmp { attr, op, value } = &cond.pred {
            if let Ok(aidx) = self.schema.index_of(attr) {
                if let Some(index) = self.indexes.get(&aidx) {
                    if !matches!(value, Value::Null) {
                        return Ok(self.select_via_index(index, *op, value));
                    }
                }
            }
        }
        let mut items = Vec::new();
        for row in &self.rows {
            if cond.eval(row, &self.schema)? {
                items.push(row.item(&self.schema));
            }
        }
        Ok(SelectOutcome {
            items: ItemSet::from_items(items),
            tuples_examined: self.rows.len(),
        })
    }

    fn select_via_index(
        &self,
        index: &BTreeMap<Value, Vec<usize>>,
        op: CmpOp,
        value: &Value,
    ) -> SelectOutcome {
        use std::ops::Bound::*;
        let mi = self.schema.merge_index();
        let mut items = Vec::new();
        let mut examined = 0usize;
        let take = |rids: &Vec<usize>, items: &mut Vec<Item>, examined: &mut usize| {
            for &rid in rids {
                items.push(Item(self.rows[rid].get(mi).clone()));
                *examined += 1;
            }
        };
        match op {
            CmpOp::Eq => {
                if let Some(rids) = index.get(value) {
                    take(rids, &mut items, &mut examined);
                }
            }
            CmpOp::Ne => {
                for (v, rids) in index {
                    if v != value {
                        take(rids, &mut items, &mut examined);
                    }
                }
            }
            CmpOp::Lt => {
                for (_, rids) in index.range::<Value, _>((Unbounded, Excluded(value))) {
                    take(rids, &mut items, &mut examined);
                }
            }
            CmpOp::Le => {
                for (_, rids) in index.range::<Value, _>((Unbounded, Included(value))) {
                    take(rids, &mut items, &mut examined);
                }
            }
            CmpOp::Gt => {
                for (_, rids) in index.range::<Value, _>((Excluded(value), Unbounded)) {
                    take(rids, &mut items, &mut examined);
                }
            }
            CmpOp::Ge => {
                for (_, rids) in index.range::<Value, _>((Included(value), Unbounded)) {
                    take(rids, &mut items, &mut examined);
                }
            }
        }
        SelectOutcome {
            items: ItemSet::from_items(items),
            tuples_examined: examined,
        }
    }

    /// Evaluates `sjq(c, R, bindings)`: the subset of `bindings` whose items
    /// satisfy `c` at this relation (§2.1).
    ///
    /// Uses the merge index when built (probing each binding), otherwise a
    /// single scan filtered against the binding set.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn semijoin_items(&self, cond: &Condition, bindings: &ItemSet) -> Result<SelectOutcome> {
        if let Some(merge_index) = &self.merge_index {
            let mut out = Vec::new();
            let mut examined = 0usize;
            for item in bindings {
                if let Some(rids) = merge_index.get(item.value()) {
                    for &rid in rids {
                        examined += 1;
                        if cond.eval(&self.rows[rid], &self.schema)? {
                            out.push(item.clone());
                            break;
                        }
                    }
                }
            }
            return Ok(SelectOutcome {
                items: ItemSet::from_items(out),
                tuples_examined: examined,
            });
        }
        let mut out = Vec::new();
        for row in &self.rows {
            let item = row.item(&self.schema);
            if bindings.contains(&item) && cond.eval(row, &self.schema)? {
                out.push(item);
            }
        }
        Ok(SelectOutcome {
            items: ItemSet::from_items(out),
            tuples_examined: self.rows.len(),
        })
    }

    /// Ids of the rows whose merge item is in `items`, ascending.
    ///
    /// Probes the merge index once per item when it is built, otherwise
    /// scans every row.
    pub fn rows_with_items(&self, items: &ItemSet) -> Vec<usize> {
        let Some(merge_index) = &self.merge_index else {
            return (0..self.rows.len())
                .filter(|&rid| items.contains(&self.rows[rid].item(&self.schema)))
                .collect();
        };
        let mut rids: Vec<usize> = items
            .iter()
            .filter_map(|item| merge_index.get(item.value()))
            .flatten()
            .copied()
            .collect();
        rids.sort_unstable();
        // Two distinct `Int` items beyond 2^53 can both equal one
        // `Float` key; the row is still returned once.
        rids.dedup();
        rids
    }

    /// All distinct merge-attribute items in the relation.
    pub fn distinct_items(&self) -> ItemSet {
        ItemSet::from_items(self.rows.iter().map(|r| r.item(&self.schema)))
    }

    /// Total wire size in bytes if the entire relation is shipped (`lq`).
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(Tuple::wire_size).sum()
    }
}

/// Result of a selection or semijoin evaluation at a source, with the
/// amount of work done (for the processing component of query cost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectOutcome {
    /// Qualifying items.
    pub items: ItemSet,
    /// Tuples the engine had to examine.
    pub tuples_examined: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::dmv_schema;
    use crate::tuple;

    /// The paper's Figure 1, relation R1.
    fn r1() -> Relation {
        Relation::from_rows(
            dmv_schema(),
            vec![
                tuple!["J55", "dui", 1993i64],
                tuple!["T21", "sp", 1994i64],
                tuple!["T80", "dui", 1993i64],
            ],
        )
    }

    #[test]
    fn select_items_full_scan() {
        let out = r1()
            .select_items(&Predicate::eq("V", "dui").into())
            .unwrap();
        assert_eq!(out.items, ItemSet::from_items(["J55", "T80"]));
        assert_eq!(out.tuples_examined, 3);
    }

    #[test]
    fn select_items_via_index() {
        let mut r = r1();
        r.build_index(1);
        let out = r.select_items(&Predicate::eq("V", "dui").into()).unwrap();
        assert_eq!(out.items, ItemSet::from_items(["J55", "T80"]));
        assert_eq!(out.tuples_examined, 2, "index should touch only matches");
    }

    #[test]
    fn index_range_scans() {
        let mut r = r1();
        r.build_index(2);
        let lt = r
            .select_items(&Predicate::cmp("D", CmpOp::Lt, 1994i64).into())
            .unwrap();
        assert_eq!(lt.items, ItemSet::from_items(["J55", "T80"]));
        let ge = r
            .select_items(&Predicate::cmp("D", CmpOp::Ge, 1994i64).into())
            .unwrap();
        assert_eq!(ge.items, ItemSet::from_items(["T21"]));
        let ne = r
            .select_items(&Predicate::cmp("D", CmpOp::Ne, 1993i64).into())
            .unwrap();
        assert_eq!(ne.items, ItemSet::from_items(["T21"]));
    }

    #[test]
    fn index_and_scan_agree() {
        let mut indexed = r1();
        indexed.build_index(1);
        let plain = r1();
        for cond in [
            Predicate::eq("V", "dui"),
            Predicate::eq("V", "nope"),
            Predicate::cmp("V", CmpOp::Ge, "sp"),
        ] {
            let a = indexed.select_items(&cond.clone().into()).unwrap().items;
            let b = plain.select_items(&cond.into()).unwrap().items;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn semijoin_scan_and_probe_agree() {
        let bindings = ItemSet::from_items(["J55", "T21", "ZZZ"]);
        let cond: Condition = Predicate::eq("V", "sp").into();
        let scan = r1().semijoin_items(&cond, &bindings).unwrap();
        let mut probed = r1();
        probed.build_merge_index();
        let probe = probed.semijoin_items(&cond, &bindings).unwrap();
        assert_eq!(scan.items, ItemSet::from_items(["T21"]));
        assert_eq!(scan.items, probe.items);
        assert!(probe.tuples_examined <= scan.tuples_examined);
    }

    #[test]
    fn semijoin_result_is_subset_of_bindings() {
        let bindings = ItemSet::from_items(["T80"]);
        let out = r1()
            .semijoin_items(&Predicate::eq("V", "dui").into(), &bindings)
            .unwrap();
        assert!(out.items.is_subset_of(&bindings));
        assert_eq!(out.items, bindings);
    }

    #[test]
    fn distinct_items_and_sizes() {
        let r = r1();
        assert_eq!(r.distinct_items().len(), 3);
        assert_eq!(r.len(), 3);
        assert!(r.wire_size() > 0);
    }

    #[test]
    fn push_invalidates_indexes() {
        let mut r = r1();
        r.build_index(1);
        r.push(tuple!["A00", "dui", 1999i64]);
        let out = r.select_items(&Predicate::eq("V", "dui").into()).unwrap();
        assert_eq!(out.items, ItemSet::from_items(["A00", "J55", "T80"]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Relation::from_rows(dmv_schema(), vec![tuple!["J55", "dui"]]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(dmv_schema());
        assert!(r.is_empty());
        let out = r.select_items(&Predicate::eq("V", "dui").into()).unwrap();
        assert!(out.items.is_empty());
    }
}
