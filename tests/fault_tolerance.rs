//! Fault-tolerance integration: deterministic replay, subset soundness
//! under a seed battery, the single-source-outage acceptance criterion,
//! and faults-off parity with the plain executor.
//!
//! The seed battery size scales with `FAULT_BATTERY_SEEDS` (default 40)
//! so CI can run a heavier sweep than the local default.

use fusion::cache::AnswerCache;
use fusion::core::plan::{Plan, SimplePlanSpec, SourceChoice, Step};
use fusion::core::postopt::sja_plus;
use fusion::core::{filter_plan, sja_optimal};
use fusion::exec::{
    execute_adaptive_ft, execute_plan, execute_plan_cached, execute_plan_ft,
    execute_plan_ft_cached, execute_plan_parallel, execute_plan_parallel_ft, Completeness,
    ParallelConfig, RetryPolicy,
};
use fusion::net::{FaultPlan, FaultSpec, LinkProfile, Network};
use fusion::source::{Capabilities, InMemoryWrapper, ProcessingProfile, SourceSet, Wrapper};
use fusion::types::{CondId, ItemSet, SourceId};
use fusion::workload::synth::{synth_scenario, SynthSpec};
use fusion::workload::{dmv, Scenario};

fn battery() -> u64 {
    std::env::var("FAULT_BATTERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

fn scenarios() -> Vec<Scenario> {
    vec![
        dmv::figure1_scenario(),
        synth_scenario(&SynthSpec::default_with(6, 17), &[0.05, 0.4, 0.6]),
    ]
}

/// A spec that exercises every fault kind at once (side rates shrink as
/// the transient rate approaches 1 so the outcome mix stays valid).
fn stormy(transient: f64) -> FaultSpec {
    let side = (0.1f64).min((1.0 - transient) / 2.0);
    FaultSpec {
        transient_rate: transient,
        timeout_rate: side,
        slowdown_rate: side,
        slowdown_factor: 3.0,
        timeout_wait: 0.2,
        outage_from: None,
    }
    .validated()
}

fn run_ft(
    scenario: &Scenario,
    faults: FaultPlan,
    policy: &RetryPolicy,
) -> fusion::exec::ExecutionOutcome {
    let model = scenario.cost_model();
    let plan = sja_plus(&model).plan;
    let mut network = scenario.network();
    network.set_fault_plan(faults);
    execute_plan_ft(
        &plan,
        &scenario.query,
        &scenario.sources,
        &mut network,
        policy,
    )
    .expect("fault-tolerant execution degrades instead of failing")
}

// ---------- determinism -----------------------------------------------------

/// Same fault seed, same policy ⇒ identical answer, completeness tag,
/// ledger (attempts and failed costs included), and network trace.
#[test]
fn same_seed_replays_identically() {
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plan = sja_plus(&model).plan;
        let policy = RetryPolicy::default();
        let run = || {
            let mut network = scenario.network();
            network.set_fault_plan(FaultPlan::uniform(n, 0xBAD, stormy(0.3)));
            let out = execute_plan_ft(
                &plan,
                &scenario.query,
                &scenario.sources,
                &mut network,
                &policy,
            )
            .unwrap();
            (out, network.trace().to_vec(), network.failed_count())
        };
        let (a, trace_a, failed_a) = run();
        let (b, trace_b, failed_b) = run();
        assert_eq!(a.answer, b.answer, "{}", scenario.name);
        assert_eq!(a.completeness, b.completeness, "{}", scenario.name);
        assert_eq!(a.ledger, b.ledger, "{}", scenario.name);
        assert_eq!(trace_a, trace_b, "{}", scenario.name);
        assert_eq!(failed_a, failed_b, "{}", scenario.name);
    }
}

/// Different fault seeds leave the *exact* runs identical: an answer that
/// survives retries does not depend on which attempts failed.
#[test]
fn fault_seed_never_changes_an_exact_answer() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        for seed in 0..battery().min(16) {
            let out = run_ft(
                &scenario,
                FaultPlan::uniform(n, seed, stormy(0.2)),
                &RetryPolicy::default(),
            );
            if out.completeness.is_exact() {
                assert_eq!(out.answer, exact, "{} seed {seed}", scenario.name);
            }
        }
    }
}

// ---------- subset soundness ------------------------------------------------

/// Seed battery: under every fault seed and rate, the answer is a subset
/// of the fault-free exact answer, and `Exact` means equal. `Subset`
/// outcomes name at least one missing source.
#[test]
fn every_answer_is_a_sound_subset_of_the_exact_answer() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        for seed in 0..battery() {
            for rate in [0.3, 0.6, 0.9] {
                let out = run_ft(
                    &scenario,
                    FaultPlan::uniform(n, seed, stormy(rate)),
                    &RetryPolicy::default(),
                );
                assert!(
                    out.answer.is_subset_of(&exact),
                    "{} seed {seed} rate {rate}: {} extra items",
                    scenario.name,
                    out.answer.difference(&exact).len()
                );
                match &out.completeness {
                    Completeness::Exact => {
                        assert_eq!(
                            out.answer, exact,
                            "{} seed {seed} rate {rate}",
                            scenario.name
                        );
                    }
                    Completeness::Subset {
                        missing_sources, ..
                    } => {
                        assert!(!missing_sources.is_empty());
                        assert!(missing_sources.iter().all(|s| s.0 < n));
                    }
                }
            }
        }
    }
}

/// The adaptive executor degrades just as soundly: dead sources are
/// skipped during re-planning and the answer stays a subset.
#[test]
fn adaptive_execution_degrades_to_sound_subsets() {
    for scenario in scenarios() {
        let n = scenario.n();
        let exact = scenario.ground_truth().unwrap();
        let model = scenario.cost_model();
        for seed in 0..battery().min(16) {
            let mut network = scenario.network();
            network.set_fault_plan(FaultPlan::uniform(n, seed, stormy(0.5)));
            let out = execute_adaptive_ft(
                &scenario.query,
                &scenario.sources,
                &mut network,
                &model,
                &RetryPolicy::default(),
            )
            .unwrap();
            assert!(
                out.answer.is_subset_of(&exact),
                "{} seed {seed}",
                scenario.name
            );
            if out.completeness.is_exact() {
                assert_eq!(out.answer, exact, "{} seed {seed}", scenario.name);
            }
        }
    }
}

// ---------- acceptance criterion: single-source permanent outage -----------

/// Knocking one source out permanently yields `Completeness::Subset`
/// naming exactly that source, and the answer equals the brute-force
/// fusion answer over the surviving sources — for every source, on every
/// scenario, under both the FILTER and SJA plan shapes.
#[test]
fn single_source_outage_equals_fusion_over_survivors() {
    for scenario in scenarios() {
        let n = scenario.n();
        let model = scenario.cost_model();
        let plans = [
            ("FILTER", filter_plan(&model).plan),
            ("SJA", sja_optimal(&model).plan),
        ];
        for dead in 0..n {
            let survivors: Vec<_> = scenario
                .relations
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != dead)
                .map(|(_, r)| r.clone())
                .collect();
            let expected = scenario.query.naive_answer(&survivors).unwrap();
            for (name, plan) in &plans {
                let mut network = scenario.network();
                network.set_fault_plan(FaultPlan::none(n).with_outage(SourceId(dead), 0));
                let out = execute_plan_ft(
                    plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut network,
                    &RetryPolicy::default(),
                )
                .unwrap();
                let Completeness::Subset {
                    missing_sources, ..
                } = &out.completeness
                else {
                    panic!("{name} on {}: expected a subset answer", scenario.name);
                };
                assert_eq!(
                    missing_sources.as_slice(),
                    &[SourceId(dead)],
                    "{name} on {}",
                    scenario.name
                );
                assert_eq!(
                    out.answer,
                    expected,
                    "{name} on {} with R{} down",
                    scenario.name,
                    dead + 1
                );
            }
        }
    }
}

/// Every source down at once: the fusion of zero sources is empty, and
/// the executor still terminates with a (vacuously sound) subset.
#[test]
fn total_outage_returns_the_empty_subset() {
    let scenario = dmv::figure1_scenario();
    let n = scenario.n();
    let mut faults = FaultPlan::none(n);
    for j in 0..n {
        faults = faults.with_outage(SourceId(j), 0);
    }
    let out = run_ft(&scenario, faults, &RetryPolicy::default());
    assert_eq!(out.answer, ItemSet::empty());
    let Completeness::Subset {
        missing_sources, ..
    } = &out.completeness
    else {
        panic!("expected a subset answer");
    };
    assert_eq!(missing_sources.len(), n);
}

// ---------- faults-off parity ----------------------------------------------

/// Figure 1's relations behind wrappers that emulate semijoins with
/// passed-binding probes of `batch` bindings each (§2.3).
fn emulated_dmv(batch: usize) -> Scenario {
    let relations = dmv::figure1_relations();
    let sources = SourceSet::new(
        relations
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Box::new(InMemoryWrapper::new(
                    format!("DMV-{}", i + 1),
                    r.clone(),
                    Capabilities::emulated(batch),
                    ProcessingProfile::indexed_db(),
                    i as u64,
                )) as Box<dyn Wrapper>
            })
            .collect(),
    );
    let network = Network::uniform(relations.len(), LinkProfile::Wan.link());
    Scenario::new(
        format!("dmv-emulated-{batch}"),
        dmv::figure1_query(),
        relations,
        sources,
        network,
    )
}

/// Selections in the first round, semijoins at every source after it.
fn semijoin_plan(m: usize, n: usize) -> Plan {
    let mut choices = vec![vec![SourceChoice::Semijoin; n]; m];
    choices[0] = vec![SourceChoice::Selection; n];
    SimplePlanSpec {
        order: (0..m).map(CondId).collect(),
        choices,
    }
    .build(n)
    .unwrap()
}

/// Rewrites every semijoin to a Bloom-filter semijoin re-intersected
/// with its bindings at the mediator.
fn bloom_plan(plan: &Plan) -> Plan {
    let mut out = plan.clone();
    out.steps.clear();
    for step in &plan.steps {
        if let Step::Sjq {
            out: x,
            cond,
            source,
            input,
        } = step
        {
            let raw = out.fresh_var(format!("B{}{}", cond.0 + 1, source.0 + 1));
            out.steps.push(Step::SjqBloom {
                out: raw,
                cond: *cond,
                source: *source,
                input: *input,
                bits: 10,
            });
            out.steps.push(Step::Intersect {
                out: *x,
                inputs: vec![raw, *input],
            });
        } else {
            out.steps.push(step.clone());
        }
    }
    out
}

/// Loads `R1` once (`lq`) and answers its selections locally.
fn loaded_plan(plan: &Plan) -> Plan {
    let mut out = plan.clone();
    out.steps.clear();
    let rel = out.fresh_rel("T1");
    out.steps.push(Step::Lq {
        out: rel,
        source: SourceId(0),
    });
    for step in &plan.steps {
        match step {
            Step::Sq {
                out: x,
                cond,
                source,
            } if *source == SourceId(0) => {
                out.steps.push(Step::LocalSq {
                    out: *x,
                    cond: *cond,
                    rel,
                });
            }
            other => out.steps.push(other.clone()),
        }
    }
    out
}

/// With no fault plan (or an all-`none` one), the fault-tolerant executor
/// is byte-identical to the plain one: same answer, same ledger entry by
/// entry, `Exact` completeness, zero failed cost. The inputs reach every
/// remote step kind (native, emulated and Bloom semijoins, loads with
/// local selections), and the cached and parallel pairs are held to the
/// same parity.
#[test]
fn faults_off_is_byte_identical_to_plain_execution() {
    let mut all = scenarios();
    all.push(emulated_dmv(1));
    all.push(emulated_dmv(2));
    for scenario in all {
        let model = scenario.cost_model();
        let filter = filter_plan(&model).plan;
        let semijoin = semijoin_plan(scenario.m(), scenario.n());
        let mut plans = vec![filter.clone(), sja_plus(&model).plan, loaded_plan(&filter)];
        let bloom = (0..scenario.n()).all(|j| {
            scenario
                .sources
                .get(SourceId(j))
                .capabilities()
                .bloom_semijoin
        });
        if bloom {
            plans.push(bloom_plan(&semijoin));
        }
        plans.push(semijoin);
        for plan in plans {
            let mut plain_net = scenario.network();
            let plain =
                execute_plan(&plan, &scenario.query, &scenario.sources, &mut plain_net).unwrap();
            for faults in [None, Some(FaultPlan::none(scenario.n()))] {
                let mut ft_net = scenario.network();
                if let Some(f) = faults {
                    ft_net.set_fault_plan(f);
                }
                let ft = execute_plan_ft(
                    &plan,
                    &scenario.query,
                    &scenario.sources,
                    &mut ft_net,
                    &RetryPolicy::default(),
                )
                .unwrap();
                assert_eq!(ft.answer, plain.answer, "{}", scenario.name);
                assert_eq!(ft.ledger, plain.ledger, "{}", scenario.name);
                assert!(ft.completeness.is_exact(), "{}", scenario.name);
                assert_eq!(ft.ledger.failed_total(), fusion::types::Cost::ZERO);
                assert_eq!(ft_net.trace(), plain_net.trace(), "{}", scenario.name);
            }
            assert_cached_pair_identical(&scenario, &plan);
            assert_parallel_pair_identical(&scenario, &plan);
        }
    }
}

/// `execute_plan_cached` vs `execute_plan_ft_cached` with faults off,
/// over a cold and a warm round: identical outcomes, traces and cache
/// statistics.
fn assert_cached_pair_identical(scenario: &Scenario, plan: &Plan) {
    let mut plain_cache = AnswerCache::new(1 << 20);
    let mut ft_cache = AnswerCache::new(1 << 20);
    for round in 0..2 {
        let mut plain_net = scenario.network();
        let plain = execute_plan_cached(
            plan,
            &scenario.query,
            &scenario.sources,
            &mut plain_net,
            &mut plain_cache,
        )
        .unwrap();
        let mut ft_net = scenario.network();
        let ft = execute_plan_ft_cached(
            plan,
            &scenario.query,
            &scenario.sources,
            &mut ft_net,
            &RetryPolicy::default(),
            &mut ft_cache,
        )
        .unwrap();
        let at = format!("{} cached round {round}", scenario.name);
        assert_eq!(ft.answer, plain.answer, "{at}");
        assert_eq!(ft.ledger, plain.ledger, "{at}");
        assert_eq!(ft.completeness, plain.completeness, "{at}");
        assert_eq!(ft_net.trace(), plain_net.trace(), "{at}");
        assert_eq!(ft_cache.stats(), plain_cache.stats(), "{at}");
    }
}

/// `execute_plan_parallel` vs `execute_plan_parallel_ft` with faults
/// off: identical outcomes and traces.
fn assert_parallel_pair_identical(scenario: &Scenario, plan: &Plan) {
    let config = ParallelConfig::with_threads(2);
    let mut plain_net = scenario.network();
    let plain = execute_plan_parallel(
        plan,
        &scenario.query,
        &scenario.sources,
        &mut plain_net,
        &config,
    )
    .unwrap();
    let mut ft_net = scenario.network();
    let ft = execute_plan_parallel_ft(
        plan,
        &scenario.query,
        &scenario.sources,
        &mut ft_net,
        &RetryPolicy::default(),
        &config,
    )
    .unwrap();
    let at = format!("{} parallel", scenario.name);
    assert_eq!(ft.outcome.answer, plain.outcome.answer, "{at}");
    assert_eq!(ft.outcome.ledger, plain.outcome.ledger, "{at}");
    assert_eq!(ft.outcome.completeness, plain.outcome.completeness, "{at}");
    assert_eq!(ft_net.trace(), plain_net.trace(), "{at}");
}

/// A no-retry policy under faults still never aborts: failures become
/// drops, drops become subsets.
#[test]
fn no_retry_policy_degrades_without_error() {
    let scenario = synth_scenario(&SynthSpec::default_with(5, 23), &[0.1, 0.5]);
    let n = scenario.n();
    let exact = scenario.ground_truth().unwrap();
    for seed in 0..battery().min(16) {
        let out = run_ft(
            &scenario,
            FaultPlan::uniform(n, seed, stormy(0.5)),
            &RetryPolicy::no_retry(),
        );
        assert!(out.answer.is_subset_of(&exact), "seed {seed}");
    }
}
