//! Inputs: the synthetic source populations, the query streams, and
//! their SQL text.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use fusion::core::phase2::CoverageCatalog;
use fusion::core::FusionQuery;
use fusion::stats::SplitMix64;
use fusion::types::{CmpOp, Condition, Item, ItemSet, Predicate, Relation, Schema, Tuple, Value};
use fusion::workload::synth::{
    capabilities_for, synth_scenario, synth_schema, CapabilityMix, SynthSpec, ATTR_RANGE, NUM_ATTRS,
};
use fusion::workload::Scenario;

use crate::measure::median;

/// The mediator's view of a population: wrappers, network, domain size
/// and the phase-two coverage catalog.
pub struct World {
    pub schema: Schema,
    pub scenario: Scenario,
    pub catalog: CoverageCatalog,
}

/// Builds a world: data generation, wrapper construction and catalog
/// building. This is what `setup_s` times.
pub fn build_world(spec: &SynthSpec) -> World {
    // The scenario's own query is unused: every benchmark query arrives
    // as SQL text.
    let scenario = synth_scenario(spec, &[0.5]);
    let fetchable: Vec<bool> = (0..spec.n_sources)
        .map(|j| capabilities_for(spec.capability_mix, j, spec.n_sources).record_fetch)
        .collect();
    let schema = synth_schema();
    let catalog = CoverageCatalog::from_relations(&schema, &scenario.relations, &fetchable);
    World {
        schema,
        scenario,
        catalog,
    }
}

/// Times the set-up that `setup_s` reports. `start` builds the world
/// `SETUP_FIRST_REPS` times and keeps the last. During a `server_zipf`
/// run, `resample` builds and drops one more world, outside the timed
/// regions, once `SETUP_EVERY_S` have passed since the last build. The
/// host's speed changes over tens of seconds (NOTES.md, "Noise"), so
/// set-ups spread over the whole run give a steadier median than a
/// burst at its start.
pub struct SetupClock {
    spec: SynthSpec,
    times: Vec<f64>,
    last: Instant,
}

const SETUP_FIRST_REPS: usize = 5;
const SETUP_EVERY_S: f64 = 3.0;

impl SetupClock {
    pub fn start(spec: SynthSpec) -> (SetupClock, World) {
        let mut clock = SetupClock {
            spec,
            times: Vec::new(),
            last: Instant::now(),
        };
        let mut world = clock.build();
        while clock.times.len() < SETUP_FIRST_REPS {
            drop(world);
            world = clock.build();
        }
        (clock, world)
    }

    fn build(&mut self) -> World {
        let t0 = Instant::now();
        let world = build_world(&self.spec);
        self.times.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        world
    }

    pub fn resample(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            drop(self.build());
        }
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// The population of `adhoc_wide` and `server_zipf`: eight sources of
/// 1k rows over a 2k-item universe (each item sits at about four
/// sources), mixed link profiles, and the first quarter of the sources
/// emulating semijoins with passed-binding probes.
pub fn wide_spec(seed: u64) -> SynthSpec {
    SynthSpec {
        n_sources: 8,
        domain_size: 2_000,
        rows_per_source: 1_000,
        seed,
        capability_mix: CapabilityMix::FractionEmulated {
            frac: 0.25,
            batch: 20,
        },
        link: None,
        ..SynthSpec::default_with(8, seed)
    }
}

/// The population of `bulk_fetch`: sixteen fully capable sources of 5k
/// rows over a 20k-item universe, mixed link profiles.
pub fn bulk_spec(seed: u64) -> SynthSpec {
    SynthSpec {
        n_sources: 16,
        domain_size: 20_000,
        rows_per_source: 5_000,
        seed,
        capability_mix: CapabilityMix::AllFull,
        link: None,
        ..SynthSpec::default_with(16, seed)
    }
}

/// Renders a fusion query as SQL with pairwise merge equalities
/// (`u1.M = u2.M AND u2.M = u3.M`). `FusionQuery::to_sql` writes the
/// chained form `u1.M = u2.M = u3.M`, which the parser rejects for
/// m >= 3 (see NOTES.md).
pub fn render_sql(query: &FusionQuery) -> String {
    let merge = &query.schema().merge_attribute().name;
    let m = query.m();
    let from: Vec<String> = (1..=m).map(|i| format!("U u{i}")).collect();
    let mut clauses: Vec<String> = (1..m)
        .map(|i| format!("u{i}.{merge} = u{}.{merge}", i + 1))
        .collect();
    for (i, c) in query.conditions().iter().enumerate() {
        let Predicate::Cmp { attr, op, value } = &c.pred else {
            panic!("benchmark queries use single comparisons, got {c}");
        };
        clauses.push(format!("u{}.{attr} {op} {value}", i + 1));
    }
    format!(
        "SELECT u1.{merge} FROM {} WHERE {}",
        from.join(", "),
        clauses.join(" AND ")
    )
}

/// One generated query: the SQL text the mediator receives and the
/// query it is meant to express, from which the expected answer is
/// computed independently of the parser.
pub struct QueryInput {
    pub sql: String,
    pub intended: FusionQuery,
}

/// A deterministic stream of distinct ad-hoc queries: `m` cycles
/// through a shuffled block of `m_values`, conditions `A_k < t` pick
/// distinct attributes in random order, and selectivities are uniform
/// in `sel`. A query never repeats within a stream.
pub struct QueryStream {
    rng: SplitMix64,
    m_values: Vec<usize>,
    block: Vec<usize>,
    sel: (f64, f64),
    seen: HashSet<String>,
}

impl QueryStream {
    pub fn new(seed: u64, m_values: &[usize], sel: (f64, f64)) -> QueryStream {
        assert!(m_values.iter().all(|m| (1..=NUM_ATTRS).contains(m)));
        QueryStream {
            rng: SplitMix64::new(seed),
            m_values: m_values.to_vec(),
            block: Vec::new(),
            sel,
            seen: HashSet::new(),
        }
    }

    fn next_m(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = self.m_values.clone();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.next_below(i + 1);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block refilled above")
    }

    pub fn next_query(&mut self) -> QueryInput {
        let m = self.next_m();
        loop {
            let mut attrs: Vec<usize> = (1..=NUM_ATTRS).collect();
            for i in 0..m {
                let j = self.rng.next_range(i, NUM_ATTRS);
                attrs.swap(i, j);
            }
            let conditions: Vec<Condition> = attrs[..m]
                .iter()
                .map(|&a| {
                    let s = self.rng.next_f64_range(self.sel.0, self.sel.1);
                    let threshold = (s * ATTR_RANGE as f64).round() as i64;
                    Predicate::cmp(format!("A{a}"), CmpOp::Lt, threshold).into()
                })
                .collect();
            let intended =
                FusionQuery::new(synth_schema(), conditions).expect("generated query is valid");
            let sql = render_sql(&intended);
            if self.seen.insert(sql.clone()) {
                return QueryInput { sql, intended };
            }
        }
    }
}

/// Per source, the lexicographically least row of each of `items`:
/// what a phase-two record is assembled from. Used only by the output
/// check.
pub fn least_rows(relations: &[Relation], items: &ItemSet) -> Vec<HashMap<Item, Tuple>> {
    let merge = synth_schema().merge_index();
    let wanted: HashSet<&Value> = items.iter().map(|i| &i.0).collect();
    relations
        .iter()
        .map(|r| {
            let mut by_item: HashMap<Item, Tuple> = HashMap::new();
            for row in r.rows() {
                if !wanted.contains(row.get(merge)) {
                    continue;
                }
                let item = Item(row.get(merge).clone());
                match by_item.get(&item) {
                    Some(cur) if cur.values() <= row.values() => {}
                    _ => {
                        by_item.insert(item, row.clone());
                    }
                }
            }
            by_item
        })
        .collect()
}

/// The value list of a record stitched from per-attribute sources.
pub fn stitched_record(
    item: &Item,
    attr_sources: &[(usize, usize)],
    rows: &[HashMap<Item, Tuple>],
    merge_index: usize,
) -> Option<Tuple> {
    let mut cols: Vec<(usize, Value)> = vec![(merge_index, item.0.clone())];
    for &(attr, source) in attr_sources {
        let row = rows[source].get(item)?;
        cols.push((attr, row.get(attr).clone()));
    }
    cols.sort_by_key(|(a, _)| *a);
    Some(Tuple::new(cols.into_iter().map(|(_, v)| v).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::workload::synth::synth_query;

    #[test]
    fn rendered_sql_parses_back_to_the_same_query() {
        for sels in [&[0.2][..], &[0.2, 0.4], &[0.1, 0.3, 0.5, 0.2, 0.6]] {
            let q = synth_query(sels);
            let parsed = fusion::parse_fusion_query(&render_sql(&q), &synth_schema()).unwrap();
            assert_eq!(parsed.conditions(), q.conditions());
        }
    }

    #[test]
    fn streams_are_deterministic_and_never_repeat() {
        let mut a = QueryStream::new(3, &[5, 6, 7, 8], (0.1, 0.5));
        let mut b = QueryStream::new(3, &[5, 6, 7, 8], (0.1, 0.5));
        let mut seen = HashSet::new();
        for _ in 0..40 {
            let (x, y) = (a.next_query(), b.next_query());
            assert_eq!(x.sql, y.sql);
            assert!(seen.insert(x.sql));
            assert!((5..=8).contains(&x.intended.m()));
        }
    }
}
