//! The single-client workloads, `adhoc_wide` and `bulk_fetch`: one
//! closed-loop client sends SQL text and waits for each checked answer.

use std::collections::BTreeMap;
use std::time::Instant;

use fusion::core::phase2::{certify_fetch_plan, non_merge_attrs, plan_fetch, FetchPlan};
use fusion::core::postopt::postoptimize;
use fusion::core::{
    analyze_plan, sja_optimal, sja_plus, stage_decomposition, FusionQuery, NetworkCostModel, Plan,
    PostOptConfig, Verdict,
};
use fusion::exec::{
    execute_fetch_plan, execute_plan, execute_plan_parallel, execute_plan_unchecked, fetch_planned,
    ExecutionOutcome, ParallelConfig, Phase2Outcome,
};
use fusion::types::error::{FusionError, Result};
use fusion::types::{Item, ItemSet};
use fusion::workload::synth::SynthSpec;

use crate::measure::{peak_rss_mb, CpuClock, Fnv};
use crate::report::{Busy, Fingerprint, LayerCounts, RunReport, Sample, THREADS};
use crate::trace::Tracer;
use crate::world::{least_rows, stitched_record, QueryInput, QueryStream, SetupClock, World};

/// Phase two fetches the records of one result page: the first
/// `PAGE` answer items.
const PAGE: usize = 1_000;

/// Which public call chain a query takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The CLI default: parse, `NetworkCostModel`, `sja_plus`,
    /// `execute_plan`.
    Sequential,
    /// The response-time path: parse, `NetworkCostModel`, `sja_plus`,
    /// `execute_plan_parallel`, then `fetch_planned` of every non-merge
    /// attribute for one result page.
    ParallelFetch,
}

/// A single-client workload.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: fn(u64) -> SynthSpec,
    pub m_values: &'static [usize],
    pub sel: (f64, f64),
    pub path: Path,
    /// Every untimed run completes at least this many queries, and
    /// `sim_cost_per_query` averages exactly these, so it is a
    /// deterministic function of the seed.
    pub fixed_queries: usize,
    /// The fingerprint covers this prefix of the query stream.
    pub fingerprint_queries: usize,
}

/// What one query produced, kept for the check and the tallies.
struct QueryRun {
    query: FusionQuery,
    plan: Plan,
    est_cost: f64,
    outcome: ExecutionOutcome,
    stages: usize,
    exchanges: usize,
    bytes: usize,
    fetch: Option<(ItemSet, FetchPlan, Phase2Outcome)>,
}

impl QueryRun {
    fn sim_cost(&self) -> f64 {
        self.outcome.total_cost().value()
            + self
                .fetch
                .as_ref()
                .map_or(0.0, |(_, _, o)| o.total_cost().value())
    }
}

fn first_items(answer: &ItemSet, k: usize) -> ItemSet {
    let items = answer.as_slice();
    ItemSet::from_sorted_unique(items[..k.min(items.len())].to_vec())
}

/// Runs one query from SQL text to answer. With tracing on, composite
/// calls are split into their public parts (`sja_optimal` then
/// `postoptimize` is exactly `sja_plus`; `analyze_plan` then
/// `execute_plan_unchecked` is exactly `execute_plan`; `plan_fetch`,
/// `certify_fetch_plan` then `execute_fetch_plan` is exactly
/// `fetch_planned` without a cache), each in its own span.
fn run_query(w: &World, path: Path, sql: &str, q: u64, tr: &mut Tracer) -> Result<QueryRun> {
    let sources = &w.scenario.sources;
    let s = tr.begin("sql.parse", q);
    let query = fusion::parse_fusion_query(sql, &w.schema)?;
    tr.end(s);
    let mut network = w.scenario.network();
    let s = tr.begin("core.cost.model", q);
    let model = NetworkCostModel::new(sources, &network, &query, Some(w.scenario.domain_size));
    tr.end(s);
    let plus = if tr.is_on() {
        let s = tr.begin("core.optimizer.sja", q);
        let base = sja_optimal(&model);
        tr.end(s);
        let s = tr.begin("core.postopt", q);
        let plus = postoptimize(base, &model, PostOptConfig::default());
        tr.end(s);
        plus
    } else {
        sja_plus(&model)
    };
    let plan = plus.plan;
    let (outcome, stages) = match path {
        Path::Sequential if tr.is_on() => {
            let s = tr.begin("core.analyze.prove", q);
            let analysis = analyze_plan(&plan)?;
            if let Verdict::Refuted(cx) = analysis.verdict() {
                return Err(FusionError::invalid_plan(format!("unsound plan:\n{cx}")));
            }
            tr.end(s);
            let s = tr.begin("exec.interp.run", q);
            let outcome = execute_plan_unchecked(&plan, &query, sources, &mut network)?;
            tr.end(s);
            (outcome, 0)
        }
        Path::Sequential => (execute_plan(&plan, &query, sources, &mut network)?, 0),
        Path::ParallelFetch => {
            let s = tr.begin("exec.parallel.run", q);
            let config = ParallelConfig::with_threads(THREADS);
            let par = execute_plan_parallel(&plan, &query, sources, &mut network, &config)?;
            tr.end(s);
            (par.outcome, par.stages)
        }
    };
    let fetch = if path == Path::ParallelFetch {
        let page = first_items(&outcome.answer, PAGE);
        let attrs = non_merge_attrs(&w.schema);
        let (fplan, fetched) = if tr.is_on() {
            let s = tr.begin("core.phase2.plan", q);
            let arity = w.schema.arity();
            let fplan = plan_fetch(&page, &attrs, &w.catalog, &model, arity, &ItemSet::empty());
            tr.end(s);
            let s = tr.begin("core.phase2.certify", q);
            certify_fetch_plan(&fplan, &page, &w.catalog, &model)?;
            tr.end(s);
            let s = tr.begin("exec.phase2.fetch", q);
            let fetched = execute_fetch_plan(&fplan, &w.schema, sources, &mut network, None)?;
            tr.end(s);
            (fplan, fetched)
        } else {
            let (fplan, _, fetched) = fetch_planned(
                &page,
                &attrs,
                &w.catalog,
                &model,
                &w.schema,
                sources,
                &mut network,
                None,
                None,
            )?;
            (fplan, fetched)
        };
        Some((page, fplan, fetched))
    } else {
        None
    };
    let trace = network.trace();
    Ok(QueryRun {
        query,
        plan,
        est_cost: plus.cost.value(),
        outcome,
        stages,
        exchanges: trace.len(),
        bytes: trace.iter().map(|e| e.req_bytes + e.resp_bytes).sum(),
        fetch,
    })
}

/// Standalone probe calls for the layers the parallel executor runs
/// internally (its soundness guard and stage decomposition) and for
/// the sequential interpreter on the same plan. They run after the
/// query's root span closes, outside its tree and outside the timing.
fn run_probes(w: &World, run: &QueryRun, q: u64, tr: &mut Tracer) -> Result<()> {
    let s = tr.probe("core.analyze.prove", q);
    let proved = analyze_plan(&run.plan);
    tr.end(s);
    proved?;
    let s = tr.probe("core.dataflow.stages", q);
    let stages = stage_decomposition(&run.plan);
    tr.end(s);
    stages?;
    let mut network = w.scenario.network();
    let s = tr.probe("exec.interp.run", q);
    let executed = execute_plan_unchecked(&run.plan, &run.query, &w.scenario.sources, &mut network);
    tr.end(s);
    executed.map(drop)
}

/// The independent output check: the answer must equal the naive
/// evaluation of the intended query over the raw relations, and each
/// phase-two record must be stitched from the relations' rows exactly
/// as the fetch plan assigned its attributes.
fn check(w: &World, input: &QueryInput, run: &QueryRun) -> std::result::Result<(), String> {
    let expected = input
        .intended
        .naive_answer(&w.scenario.relations)
        .map_err(|e| format!("naive evaluation failed: {e}"))?;
    if run.outcome.answer != expected {
        return Err(format!(
            "wrong answer: {} items, expected {}",
            run.outcome.answer.len(),
            expected.len()
        ));
    }
    let Some((page, fplan, fetched)) = &run.fetch else {
        return Ok(());
    };
    if !fetched.completeness.is_exact() || !fetched.missing.is_empty() {
        return Err("phase two returned an incomplete record set".into());
    }
    let mut assigned: BTreeMap<&Item, Vec<(usize, usize)>> = BTreeMap::new();
    for a in &fplan.assignments {
        for (item, attrs) in &a.covers {
            let e = assigned.entry(item).or_default();
            e.extend(attrs.iter().map(|&attr| (attr, a.source.0)));
        }
    }
    let n_attrs = non_merge_attrs(&w.schema).len();
    let rows = least_rows(&w.scenario.relations, page);
    let mut expected_records = Vec::with_capacity(page.len());
    for item in page {
        let Some(srcs) = assigned.get(item) else {
            return Err(format!("page item {item} has no fetch assignment"));
        };
        if srcs.len() != n_attrs {
            return Err(format!(
                "page item {item} is assigned {} attributes",
                srcs.len()
            ));
        }
        let rec = stitched_record(item, srcs, &rows, w.schema.merge_index())
            .ok_or_else(|| format!("item {item} fetched from a source that lacks it"))?;
        expected_records.push(rec);
    }
    if assigned.len() != page.len() {
        return Err("fetch plan covers items outside the page".into());
    }
    expected_records.sort_by(|a, b| a.values().cmp(b.values()));
    expected_records.dedup();
    if fetched.records != expected_records {
        return Err("phase-two records differ from the relations' rows".into());
    }
    Ok(())
}

/// When a pass stops: after `seconds` of timed work and at least
/// `min_queries` queries, or after exactly `count` queries.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Time { seconds: f64, min_queries: usize },
    Count(usize),
}

/// No pass outlives this much wall time, whatever it was asked for.
const WALL_CAP_S: f64 = 120.0;

/// The tallies of one side (untraced or traced) of a pass.
#[derive(Default)]
struct Side {
    samples: Vec<Sample>,
    busy: Busy,
    failed: usize,
    counts: LayerCounts,
    /// Sums of ln(estimated / executed phase-one cost) and of its
    /// absolute value.
    ln_est_over_actual: f64,
    abs_ln_est_over_actual: f64,
    fingerprint: Fnv,
    fingerprint_counts: LayerCounts,
    fingerprint_cost: f64,
}

impl Side {
    /// Runs, times and checks one query.
    fn query(
        &mut self,
        wl: &Workload,
        w: &World,
        input: &QueryInput,
        q: usize,
        tr: &mut Tracer,
        cpu: &CpuClock,
    ) -> f64 {
        let qid = q as u64;
        let cpu0 = cpu.seconds();
        let t0 = Instant::now();
        let root = tr.begin("query", qid);
        let result = run_query(w, wl.path, &input.sql, qid, tr);
        tr.unwind(root);
        let wall = t0.elapsed().as_secs_f64();
        self.busy.cpu_s += cpu.seconds() - cpu0;
        self.busy.wall_s += wall;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: query {q} failed: {e}", wl.name);
                self.failed += 1;
                return wall;
            }
        };
        if tr.is_on() && wl.path == Path::ParallelFetch {
            if let Err(e) = run_probes(w, &run, qid, tr) {
                eprintln!("{}: probes of query {q} failed: {e}", wl.name);
                self.failed += 1;
            }
        }
        if let Err(e) = check(w, input, &run) {
            eprintln!("{}: query {q}: {e}\n  {}", wl.name, input.sql);
            self.failed += 1;
            return wall;
        }
        self.samples.push(Sample {
            latency_s: wall,
            sim_cost: run.sim_cost(),
        });
        let c = counts_of(&run);
        self.counts.add(&c);
        let ln_ratio = (run.est_cost / run.outcome.total_cost().value()).ln();
        self.ln_est_over_actual += ln_ratio;
        self.abs_ln_est_over_actual += ln_ratio.abs();
        if q < wl.fingerprint_queries {
            self.fingerprint.str(&run.plan.listing());
            self.fingerprint.str(&run.outcome.answer.to_string());
            if let Some((_, _, fetched)) = &run.fetch {
                self.fingerprint.str(&format!("{:?}", fetched.records));
            }
            self.fingerprint_counts.add(&c);
            self.fingerprint_cost += run.sim_cost();
        }
        wall
    }

    fn attempted(&self) -> usize {
        self.samples.len() + self.failed
    }
}

/// One pass over the seed's query stream. With a tracer, every query
/// runs twice, untraced and traced, in alternating order, so the
/// tracing overhead is a paired difference that machine drift during
/// the run does not bias.
fn pass(
    wl: &Workload,
    w: &World,
    seed: u64,
    stop: Stop,
    mut tracer: Option<&mut Tracer>,
    cpu: &CpuClock,
) -> (Side, Side) {
    let mut stream = QueryStream::new(seed, wl.m_values, wl.sel);
    let (mut plain, mut traced) = (Side::default(), Side::default());
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let mut timed = 0.0;
    for q in 0.. {
        let done = match stop {
            Stop::Time {
                seconds,
                min_queries,
            } => q >= min_queries && timed >= seconds,
            Stop::Count(k) => q >= k,
        };
        if done || started.elapsed().as_secs_f64() > WALL_CAP_S {
            break;
        }
        let input = stream.next_query();
        match tracer.as_deref_mut() {
            None => timed += plain.query(wl, w, &input, q, &mut off, cpu),
            Some(tr) if q % 2 == 0 => {
                timed += plain.query(wl, w, &input, q, &mut off, cpu);
                timed += traced.query(wl, w, &input, q, tr, cpu);
            }
            Some(tr) => {
                timed += traced.query(wl, w, &input, q, tr, cpu);
                timed += plain.query(wl, w, &input, q, &mut off, cpu);
            }
        }
    }
    (plain, traced)
}

fn counts_of(run: &QueryRun) -> LayerCounts {
    let remote: Vec<_> = run
        .outcome
        .ledger
        .entries()
        .iter()
        .filter(|e| e.attempts > 0)
        .collect();
    LayerCounts {
        queries: 1.0,
        remote_steps: remote.len() as f64,
        rows_shipped: remote.iter().map(|e| e.items_out as f64).sum(),
        answer_items: run.outcome.answer.len() as f64,
        exchanges: run.exchanges as f64,
        bytes: run.bytes as f64,
        stages: run.stages as f64,
        assignments: run
            .fetch
            .as_ref()
            .map_or(0.0, |(_, p, _)| p.assignments.len() as f64),
    }
}

/// Runs a single-client workload. Untraced, it measures the end-to-end
/// metrics; traced, it runs every query untraced and traced and reports
/// per-layer self times, counts and the tracing overhead.
pub fn run(wl: &Workload, seed: u64, seconds: f64, traced: bool) -> RunReport {
    // No resampling of the set-up during the run: a second world alive
    // beside the run's own would double `bulk_fetch`'s peak RSS.
    let (setup, world) = SetupClock::start((wl.spec)(seed));
    let cpu = CpuClock::new();
    // Warm-up on a disjoint stream: lazy set-up finishes before timing.
    let (warm, _) = pass(wl, &world, seed ^ 0x5741_524d, Stop::Count(2), None, &cpu);
    let mut tr = Tracer::new(true);
    let stop = Stop::Time {
        seconds,
        min_queries: if traced {
            wl.fingerprint_queries
        } else {
            wl.fixed_queries
        },
    };
    let (plain, t) = pass(wl, &world, seed, stop, traced.then_some(&mut tr), &cpu);
    let mut report = RunReport::new(wl.name, seed, traced);
    report.attempted = plain.attempted() + t.attempted();
    report.failed = warm.failed + plain.failed + t.failed;
    report.fingerprint = Fingerprint {
        queries: wl.fingerprint_queries,
        hash: plain.fingerprint.hex(),
        sim_cost_per_query: Some(plain.fingerprint_cost / wl.fingerprint_queries as f64),
        counts: Some(plain.fingerprint_counts),
    };
    if !traced {
        let fixed = wl.fixed_queries.min(plain.samples.len());
        let sim: f64 = plain.samples[..fixed].iter().map(|s| s.sim_cost).sum();
        let sim = sim / fixed.max(1) as f64;
        report.end_to_end(
            setup.median(),
            &plain.samples,
            plain.busy,
            sim,
            peak_rss_mb(),
        );
        return report;
    }
    let n = t.counts.queries.max(1.0);
    let pairs = plain.attempted().max(1) as f64;
    let overhead_us = (t.busy.wall_s - plain.busy.wall_s) / pairs * 1e6;
    let estimates = (
        (t.ln_est_over_actual / n).exp(),
        (t.abs_ln_est_over_actual / n).exp(),
    );
    report.per_layer(&tr, &t.counts, Some(estimates), overhead_us);
    report.spans = Some(tr.to_json());
    report
}
