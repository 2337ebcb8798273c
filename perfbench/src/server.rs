//! The `server_zipf` workload: eight closed-loop tenants share one Zipf
//! query pool on the multi-tenant mediator server (`serve`, two
//! workers, otherwise the default `ServerConfig`), with source updates
//! mixed into the reads.
//!
//! A run is a sequence of rounds. Each round renders every tenant's
//! event stream as SQL, then times parsing plus one `serve` call. Each
//! round starts with a cold shared cache, as every `serve` call does.

use std::collections::HashMap;
use std::time::Instant;

use fusion::core::postopt::postoptimize;
use fusion::core::{analyze_plan, sja_optimal, FusionQuery, NetworkCostModel, PostOptConfig};
use fusion::exec::{
    replay_serial, serve, verify_replay_parity, ServerConfig, ServerReport, TenantEvent,
};
use fusion::types::{ItemSet, SourceId};
use fusion::workload::session::{generate_session_for_tenant, SessionEvent, SessionSpec};

use crate::measure::{peak_rss_mb, CpuClock, Fnv};
use crate::report::{Busy, Fingerprint, LayerCounts, RunReport, Sample, THREADS};
use crate::trace::Tracer;
use crate::world::{render_sql, wide_spec, SetupClock, World};

pub const NAME: &str = "server_zipf";
const TENANTS: usize = 8;
/// Events per tenant per round (about 5% of them updates).
const EVENTS_PER_TENANT: usize = 40;
const POOL: usize = 64;
/// Every timed run completes at least this many queries.
const MIN_QUERIES: usize = 100;

/// One tenant event before the timed region: SQL text and the pool
/// entry it came from, or a source update.
enum Input {
    Query { pool: usize, sql: String },
    Update(SourceId),
}

/// The query pool is the same for every seed: the server workload is
/// one application with a fixed catalog of query shapes, and its hot
/// shapes decide most of a run's cost. The seed picks the population
/// and the tenants' streams.
const POOL_SEED: u64 = 0x5E55_1011;

fn session_spec() -> SessionSpec {
    SessionSpec {
        m: 3,
        n_sources: 8,
        pool: POOL,
        n_queries: EVENTS_PER_TENANT,
        skew: 1.1,
        update_rate: 0.05,
        sel_range: (0.05, 0.4),
        seed: POOL_SEED,
    }
}

/// The tenants' inputs for one round of the run with seed `ctx.seed`.
/// Every round draws fresh tenant streams over the same pool.
fn round_inputs(ctx: Ctx<'_>, round: usize) -> Vec<Vec<Input>> {
    (0..TENANTS)
        .map(|t| {
            let stream = ctx
                .seed
                .wrapping_mul(1 << 20)
                .wrapping_add((round * TENANTS + t + 1) as u64);
            generate_session_for_tenant(ctx.spec, stream)
                .events
                .into_iter()
                .map(|e| match e {
                    SessionEvent::Query { index, .. } => Input::Query {
                        pool: index,
                        sql: ctx.pool_sql[index].clone(),
                    },
                    SessionEvent::Update { source } => Input::Update(source),
                })
                .collect()
        })
        .collect()
}

/// The tallies of one round.
#[derive(Default)]
struct Round {
    samples: Vec<Sample>,
    busy: Busy,
    failed: usize,
    counts: LayerCounts,
    hits: u64,
    residual_hits: u64,
    lookups: u64,
    evictions: u64,
    invalidations: u64,
    shared: usize,
    certify_s: f64,
    commuting_pairs: usize,
    answers: Fnv,
}

#[derive(Clone, Copy)]
struct Ctx<'a> {
    seed: u64,
    world: &'a World,
    spec: &'a SessionSpec,
    pool: &'a [FusionQuery],
    pool_sql: &'a [String],
    cpu: &'a CpuClock,
}

/// One timed round: the tenants' inputs, what `serve` returned, and
/// the time spent.
struct Served {
    round: usize,
    inputs: Vec<Vec<Input>>,
    tenants: Vec<Vec<TenantEvent>>,
    parse_s: HashMap<(usize, usize), f64>,
    busy: Busy,
    report: fusion::types::error::Result<ServerReport>,
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        ..ServerConfig::default()
    }
}

/// Times one round: parsing every event's SQL, then one `serve` call.
fn serve_round(ctx: Ctx<'_>, round: usize, tr: &mut Tracer) -> Served {
    let w = ctx.world;
    let inputs = round_inputs(ctx, round);
    let netf = || w.scenario.network();
    let cpu0 = ctx.cpu.seconds();
    let t0 = Instant::now();
    let qid = round as u64;
    let root = tr.begin("server.round", qid);
    let mut parse_s: HashMap<(usize, usize), f64> = HashMap::new();
    let mut tenants: Vec<Vec<TenantEvent>> = Vec::with_capacity(inputs.len());
    for (t, stream) in inputs.iter().enumerate() {
        let mut events = Vec::with_capacity(stream.len());
        for (i, input) in stream.iter().enumerate() {
            match input {
                Input::Query { sql, .. } => {
                    let p0 = Instant::now();
                    let s = tr.begin("sql.parse", qid);
                    let parsed = fusion::parse_fusion_query(sql, &w.schema);
                    tr.end(s);
                    parse_s.insert((t, i), p0.elapsed().as_secs_f64());
                    match parsed {
                        Ok(q) => events.push(TenantEvent::Query(q)),
                        Err(e) => panic!("generated SQL must parse: {e}\n{sql}"),
                    }
                }
                Input::Update(s) => events.push(TenantEvent::Update(*s)),
            }
        }
        tenants.push(events);
    }
    let s = tr.begin("exec.server.serve", qid);
    let report = serve(
        &w.scenario.sources,
        &netf,
        Some(w.scenario.domain_size),
        &tenants,
        &config(),
    );
    tr.end(s);
    tr.end(root);
    Served {
        round,
        busy: Busy {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: ctx.cpu.seconds() - cpu0,
        },
        inputs,
        tenants,
        parse_s,
        report,
    }
}

/// Checks a timed round outside the timing: every answer against the
/// naive evaluation of its pool query, and the whole run against its
/// serial replay (`verify_replay_parity`). Tallies what passed.
fn check_round(ctx: Ctx<'_>, naive: &mut HashMap<usize, ItemSet>, served: Served) -> Round {
    let w = ctx.world;
    let round = served.round;
    let mut r = Round {
        busy: served.busy,
        ..Round::default()
    };
    let report = match served.report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{NAME}: round {round} failed: {e}");
            r.failed = served
                .inputs
                .iter()
                .flatten()
                .filter(|i| matches!(i, Input::Query { .. }))
                .count();
            return r;
        }
    };
    r.failed += report.shed.len();
    let netf = || w.scenario.network();
    if let Err(e) = replay_serial(
        &w.scenario.sources,
        &netf,
        Some(w.scenario.domain_size),
        &served.tenants,
        &config(),
        &report.log,
    )
    .and_then(|(replayed, fp)| verify_replay_parity(&report, &replayed, &fp))
    {
        eprintln!("{NAME}: round {round}: {e}");
        r.failed += report.results.len();
        return r;
    }
    // Closed-loop `QueryResult::latency` is the completion offset from
    // the start of the run (arrival is zero), so a query's response
    // time is the gap to its tenant's previous completion.
    let mut last_done: Vec<f64> = vec![0.0; TENANTS];
    for res in &report.results {
        let Input::Query { pool, .. } = &served.inputs[res.tenant][res.index] else {
            panic!("result for an update event");
        };
        let expected = naive.entry(*pool).or_insert_with(|| {
            ctx.pool[*pool]
                .naive_answer(&w.scenario.relations)
                .expect("naive evaluation")
        });
        if res.outcome.answer != *expected {
            eprintln!(
                "{NAME}: round {round}: wrong answer for tenant {} event {}",
                res.tenant, res.index
            );
            r.failed += 1;
            continue;
        }
        r.answers.str(&format!(
            "{} {} {}",
            res.tenant, res.index, res.outcome.answer
        ));
        let done = res.latency.as_secs_f64();
        let response = done - last_done[res.tenant] + served.parse_s[&(res.tenant, res.index)];
        last_done[res.tenant] = done;
        let remote: Vec<_> = res
            .outcome
            .ledger
            .entries()
            .iter()
            .filter(|e| e.attempts > 0)
            .collect();
        r.counts.add(&LayerCounts {
            queries: 1.0,
            remote_steps: remote.len() as f64,
            rows_shipped: remote.iter().map(|e| e.items_out as f64).sum(),
            answer_items: res.outcome.answer.len() as f64,
            exchanges: remote.iter().map(|e| e.attempts as f64).sum(),
            ..LayerCounts::default()
        });
        r.shared += res.shared;
        r.samples.push(Sample {
            latency_s: response,
            sim_cost: res.outcome.total_cost().value(),
        });
    }
    let c = &report.cache;
    r.hits = c.hits;
    r.residual_hits = c.residual_hits;
    r.lookups = c.hits + c.residual_hits + c.misses;
    r.evictions = c.evictions;
    r.invalidations = c.invalidations;
    let last = report
        .results
        .iter()
        .map(|x| x.latency.as_secs_f64())
        .fold(0.0, f64::max);
    r.certify_s = report.wall.as_secs_f64() - last;
    r.commuting_pairs = report.commuting_pairs;
    r
}

/// Standalone probes of the planning layers `serve` runs internally:
/// for every query event of the round, the cost model, SJA, the
/// postoptimizer and the soundness proof, outside the round's span tree.
fn probes(w: &World, tenants: &[Vec<TenantEvent>], qid: u64, tr: &mut Tracer) {
    for ev in tenants.iter().flatten() {
        let TenantEvent::Query(query) = ev else {
            continue;
        };
        let network = w.scenario.network();
        let s = tr.probe("core.cost.model", qid);
        let model = NetworkCostModel::new(
            &w.scenario.sources,
            &network,
            query,
            Some(w.scenario.domain_size),
        );
        tr.end(s);
        let s = tr.probe("core.optimizer.sja", qid);
        let base = sja_optimal(&model);
        tr.end(s);
        let s = tr.probe("core.postopt", qid);
        let plus = postoptimize(base, &model, PostOptConfig::default());
        tr.end(s);
        let s = tr.probe("core.analyze.prove", qid);
        let proved = analyze_plan(&plus.plan);
        tr.end(s);
        proved.expect("optimizer plans are well formed");
    }
}

/// Round tallies summed over a pass.
#[derive(Default)]
struct Pass {
    rounds: usize,
    samples: Vec<Sample>,
    busy: Busy,
    failed: usize,
    counts: LayerCounts,
    hits: u64,
    residual_hits: u64,
    lookups: u64,
    evictions: u64,
    invalidations: u64,
    shared: usize,
    certify_s: f64,
    commuting_pairs: usize,
    first_answers: Option<(usize, String)>,
}

impl Pass {
    fn add(&mut self, r: Round) {
        if self.first_answers.is_none() {
            self.first_answers = Some((r.samples.len(), r.answers.hex()));
        }
        self.rounds += 1;
        self.samples.extend(r.samples);
        self.busy.wall_s += r.busy.wall_s;
        self.busy.cpu_s += r.busy.cpu_s;
        self.failed += r.failed;
        self.counts.add(&r.counts);
        self.hits += r.hits;
        self.residual_hits += r.residual_hits;
        self.lookups += r.lookups;
        self.evictions += r.evictions;
        self.invalidations += r.invalidations;
        self.shared += r.shared;
        self.certify_s += r.certify_s;
        self.commuting_pairs += r.commuting_pairs;
    }

    fn attempted(&self) -> usize {
        self.samples.len() + self.failed
    }
}

/// No pass starts a round after this much wall time.
const WALL_CAP_S: f64 = 100.0;

/// Serves and checks rounds until `seconds` of timed work and
/// `MIN_QUERIES` queries. With a tracer, every round runs twice,
/// untraced and traced, in alternating order, so the tracing overhead
/// is a paired difference. Also returns the peak RSS when the first
/// round has been served: the replay check holds far more memory than
/// the server (see NOTES.md), and every round serves a fresh cache.
fn pass(
    ctx: Ctx<'_>,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut setup: Option<&mut SetupClock>,
) -> (Pass, Pass, f64) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let mut off = Tracer::new(false);
    let mut naive = HashMap::new();
    let mut peak_rss = None;
    let mut round = 0;
    while (plain.samples.len() < MIN_QUERIES || plain.busy.wall_s + traced.busy.wall_s < seconds)
        && started.elapsed().as_secs_f64() <= WALL_CAP_S
    {
        let order = match tracer {
            None => &[false][..],
            Some(_) if round % 2 == 0 => &[false, true],
            Some(_) => &[true, false],
        };
        for &on in order {
            let (tr, side) = match tracer.as_deref_mut() {
                Some(tr) if on => (tr, &mut traced),
                _ => (&mut off, &mut plain),
            };
            let served = serve_round(ctx, round, tr);
            peak_rss.get_or_insert_with(peak_rss_mb);
            if tr.is_on() {
                probes(ctx.world, &served.tenants, round as u64, tr);
            }
            side.add(check_round(ctx, &mut naive, served));
            if let Some(setup) = setup.as_deref_mut() {
                setup.resample();
            }
        }
        round += 1;
    }
    (plain, traced, peak_rss.unwrap_or_else(peak_rss_mb))
}

/// Runs `server_zipf`. Untraced, it measures the end-to-end metrics;
/// traced, it runs every round untraced and traced.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunReport {
    let (mut setup, world) = SetupClock::start(wide_spec(seed));
    let sspec = session_spec();
    let pool = generate_session_for_tenant(&sspec, 0).pool;
    let pool_sql: Vec<String> = pool.iter().map(render_sql).collect();
    let cpu = CpuClock::new();
    let ctx = Ctx {
        seed,
        world: &world,
        spec: &sspec,
        pool: &pool,
        pool_sql: &pool_sql,
        cpu: &cpu,
    };
    let mut tr = Tracer::new(true);
    let resample = (!traced).then_some(&mut setup);
    let (plain, t, peak_rss_mb) = pass(ctx, seconds, traced.then_some(&mut tr), resample);
    let mut report = RunReport::new(NAME, seed, traced);
    report.attempted = plain.attempted() + t.attempted();
    report.failed = plain.failed + t.failed;
    let (queries, hash) = plain.first_answers.clone().unwrap_or_default();
    report.fingerprint = Fingerprint {
        queries,
        hash,
        sim_cost_per_query: None,
        counts: None,
    };
    if !traced {
        if plain.samples.is_empty() {
            return report;
        }
        let n = plain.samples.len() as f64;
        let sim = plain.samples.iter().map(|s| s.sim_cost).sum::<f64>() / n;
        report.end_to_end(setup.median(), &plain.samples, plain.busy, sim, peak_rss_mb);
        return report;
    }
    let n = t.counts.queries.max(1.0);
    let overhead_us = (t.busy.wall_s - plain.busy.wall_s) / plain.attempted().max(1) as f64 * 1e6;
    report.per_layer(&tr, &t.counts, None, overhead_us);
    let rounds = t.rounds.max(1) as f64;
    let served = (t.hits + t.residual_hits) as f64;
    for (name, v) in [
        ("cache.hit_ratio", served / t.lookups.max(1) as f64),
        (
            "cache.residual_share",
            t.residual_hits as f64 / served.max(1.0),
        ),
        ("cache.evictions", t.evictions as f64 / rounds),
        ("cache.invalidations", t.invalidations as f64 / rounds),
        ("exec.server.shared_per_query", t.shared as f64 / n),
        ("exec.server.certify_s", t.certify_s / rounds),
        (
            "exec.server.commuting_pairs",
            t.commuting_pairs as f64 / rounds,
        ),
    ] {
        report.metrics.insert(name, v);
    }
    report.spans = Some(tr.to_json());
    report
}
