//! Sequential plan interpretation with cost accounting, and the two
//! layers every executor is built from.
//!
//! * The **step layer** executes one remote step (wrapper call, message
//!   sizing, exchange, ledger entry). It is generic over an [`Exchanger`]:
//!   the exclusive legacy [`Network`] API for sequential execution, or a
//!   step-tagged shared handle for [`crate::parallel`] workers. It is
//!   also generic over fault tolerance: a [`Wire`] without fault state
//!   exchanges infallibly, one carrying a retry policy runs every
//!   exchange through the retry loop. Each remote step kind has exactly
//!   one executor.
//! * [`ExecState`] owns one run's bindings, ledger slots, pending cache
//!   admissions and drop bookkeeping. Its constructor is the one guard
//!   (semantic proof, structural validation, shape checks); its methods
//!   are the one fold and the one epilogue.
//!
//! The sequential, parallel, cached, replay, reopt and server executors
//! all run this code, so byte-identical ledgers fall out by construction.

use crate::cached::{commit_run, exec_sq_records, failed_counts, served_entry, PendingInsert};
use crate::ledger::{CostLedger, LedgerEntry, StepKind};
use crate::retry::{Completeness, RetryPolicy};
use fusion_cache::AnswerCache;
use fusion_core::analyze::{analyze_plan, Analysis, Verdict};
use fusion_core::plan::{Plan, Step};
use fusion_core::query::FusionQuery;
use fusion_net::{ExchangeKind, FailedExchange, FaultKind, MessageSize, Network};
use fusion_source::SourceSet;
use fusion_types::error::{FusionError, Result};
use fusion_types::{CondId, Condition, Cost, ItemSet, Relation, Schema, SourceId, Tuple};

/// How a step reaches the network: exclusively (sequential execution) or
/// through a shared, step-tagged source handle (parallel workers).
pub(crate) trait Exchanger {
    /// Infallible exchange — see [`Network::exchange`].
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost;

    /// Fault-aware exchange — see [`Network::try_exchange`].
    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange>;
}

impl Exchanger for Network {
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        Network::exchange(self, source, kind, req_bytes, resp_bytes)
    }

    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange> {
        Network::try_exchange(self, source, kind, req_bytes, resp_bytes)
    }
}

/// The [`Exchanger`] parallel workers use: exchanges go through a shared
/// [`fusion_net::SourceHandle`], tagged with the executing step so
/// [`Network::commit`] can restore sequential trace order.
pub(crate) struct SharedExchanger<'a> {
    pub(crate) net: &'a Network,
    pub(crate) step: usize,
}

impl Exchanger for SharedExchanger<'_> {
    fn exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Cost {
        self.net
            .handle(source)
            .exchange(self.step, kind, req_bytes, resp_bytes)
    }

    fn try_exchange(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> std::result::Result<Cost, FailedExchange> {
        self.net
            .handle(source)
            .try_exchange(self.step, kind, req_bytes, resp_bytes)
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The query answer.
    pub answer: ItemSet,
    /// Per-step executed costs.
    pub ledger: CostLedger,
    /// Whether the answer is exact or a sound subset (steps were dropped
    /// after a source was given up on). Always [`Completeness::Exact`]
    /// outside fault-tolerant execution.
    pub completeness: Completeness,
}

impl ExecutionOutcome {
    /// Total executed cost.
    pub fn total_cost(&self) -> Cost {
        self.ledger.total()
    }
}

/// Executes `plan` for `query` against `sources` over `network`.
///
/// Remote steps are charged communication costs through the network's
/// links plus processing costs from each wrapper's profile. A semijoin
/// query to a source without native support is emulated as passed-binding
/// probes, batched to the source's advertised limit (§2.3); a source that
/// supports neither fails the execution — mirroring the infinite cost the
/// optimizer would have assigned.
///
/// Before touching any source, the plan is put through the semantic
/// analyzer ([`fusion_core::analyze`]): a plan that provably does *not*
/// compute the fusion query is refused outright, with the refuting
/// counterexample in the error. Deliberately partial plans (e.g. a probe
/// of a single round) can bypass the guard via
/// [`execute_plan_unchecked`].
///
/// # Errors
/// Fails on structurally invalid or semantically unsound plans,
/// capability violations, and predicate evaluation errors.
pub fn execute_plan(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    let state = ExecState::new(plan, query, sources, true)?;
    run_sequential(state, plan, network, None, None)
}

/// [`execute_plan`] without the semantic-soundness guard: the plan is
/// still structurally validated, but it may compute something other
/// than the fusion answer (useful for executing partial plans).
///
/// # Errors
/// Fails on structurally invalid plans, capability violations, and
/// predicate evaluation errors.
pub fn execute_plan_unchecked(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
) -> Result<ExecutionOutcome> {
    let state = ExecState::new(plan, query, sources, false)?;
    run_sequential(state, plan, network, None, None)
}

/// Fault-tolerant variant of [`execute_plan`]: retries failed exchanges
/// under `policy`, gives up on sources whose faults persist, and — when
/// giving up is provably sound — degrades to a partial answer instead of
/// failing the query.
///
/// Failure handling per exchange: a failed attempt charges its request
/// cost (plus the configured timeout wait) to the step's `failed_cost`,
/// then the policy decides between a backoff-priced retry and giving up.
/// A hard outage, `breaker_threshold` consecutive failures, retry
/// exhaustion, or a blown cost deadline all mark the source *dead* for
/// the rest of the query.
///
/// Every step of a dead source is dropped: it contributes ∅ (for a
/// dropped load, an empty relation) and a zero-cost ledger entry, so the
/// ledger still matches the plan step-for-step and [`crate::schedule`]
/// can replay it. Before dropping, the plan's BDD analysis confirms the
/// degraded plan still computes a subset of the fusion answer in every
/// world ([`fusion_core::analyze::Analysis::droppable`]); if it cannot —
/// e.g. the dropped value feeds a difference subtrahend — the execution
/// errors rather than risk a superset.
///
/// The outcome's [`Completeness`] reports `Exact` when nothing was
/// dropped, otherwise `Subset` with the dead sources and weakened
/// conditions. With a trivial fault plan (or none), the answer, ledger,
/// completeness and exchange trace are byte-identical to
/// [`execute_plan`]'s; only the network's attempt cursor differs
/// ([`Network::try_exchange`] advances it, [`Network::exchange`] does
/// not).
///
/// # Errors
/// Fails on structurally invalid or semantically unsound plans,
/// capability violations, predicate evaluation errors, and source
/// failures whose steps are not droppable.
pub fn execute_plan_ft(
    plan: &Plan,
    query: &FusionQuery,
    sources: &SourceSet,
    network: &mut Network,
    policy: &RetryPolicy,
) -> Result<ExecutionOutcome> {
    let state = ExecState::new(plan, query, sources, true)?;
    run_sequential(state, plan, network, Some(policy), None)
}

/// The sequential execution loop behind every sequential entry point.
/// `policy` runs exchanges through the retry loop and drops the steps of
/// dead sources ([`execute_plan_ft`]). `cache` serves selections from the
/// answer cache (free `sq(cache)` / `sq(residual)` entries), fetches
/// misses as full records, and ends the run by bumping the epoch of every
/// source that failed an exchange and admitting the rest of the fresh
/// answers — see [`crate::cached`] for the contract.
pub(crate) fn run_sequential(
    mut state: ExecState<'_>,
    plan: &Plan,
    network: &mut Network,
    policy: Option<&RetryPolicy>,
    mut cache: Option<&mut AnswerCache>,
) -> Result<ExecutionOutcome> {
    let mut ft = policy.map(|p| FtState::new(p, plan.n_sources));
    let failed_before = match cache {
        Some(_) => failed_counts(network, plan.n_sources),
        None => Vec::new(),
    };
    for idx in 0..plan.steps.len() {
        state.step_sequential(plan, idx, network, ft.as_mut(), cache.as_deref_mut())?;
    }
    let (outcome, pending) = state.finish(plan);
    if let Some(cache) = cache {
        let exact = outcome.completeness.is_exact();
        commit_run(cache, network, &failed_before, pending, exact);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// The step layer
// ---------------------------------------------------------------------

/// One source's fault-handling state: whether it was given up on, and
/// the consecutive-failure count feeding its circuit breaker.
///
/// The parallel executor keeps one of these per source behind a mutex;
/// the sequential executors keep a plain vector inside [`FtState`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceFt {
    /// Given up on (outage, tripped breaker, retry exhaustion).
    pub(crate) dead: bool,
    /// Consecutive failures (circuit-breaker input).
    pub(crate) consecutive: usize,
}

/// Per-query fault-handling state of the sequential executors.
pub(crate) struct FtState<'a> {
    policy: &'a RetryPolicy,
    /// Per-source breaker/death state.
    srcs: Vec<SourceFt>,
}

impl<'a> FtState<'a> {
    /// Fresh state: all sources alive, breakers reset.
    pub(crate) fn new(policy: &'a RetryPolicy, n_sources: usize) -> FtState<'a> {
        FtState {
            policy,
            srcs: vec![SourceFt::default(); n_sources],
        }
    }

    /// Whether `source` has been given up on.
    pub(crate) fn dead(&self, source: SourceId) -> bool {
        self.srcs[source.0].dead
    }

    /// The policy and `source`'s fault state, as a [`Wire`] carries them.
    pub(crate) fn src(&mut self, source: SourceId) -> (&'a RetryPolicy, &mut SourceFt) {
        (self.policy, &mut self.srcs[source.0])
    }
}

/// Result of pushing one exchange through a [`Wire`].
pub(crate) enum Attempted {
    /// The exchange went through; `failed` covers earlier failed tries
    /// and backoff waits.
    Delivered {
        comm: Cost,
        attempts: usize,
        failed: Cost,
    },
    /// The policy's patience ran out; the source is now dead.
    Exhausted { attempts: usize, failed: Cost },
}

/// How a remote step reaches its source. Without fault state (`ft` is
/// `None`) every exchange is the infallible [`Exchanger::exchange`]: it
/// consumes no fault-schedule slot and leaves the network's attempt
/// cursor alone. With the retry policy and the source's fault state
/// attached, every exchange runs through the retry loop. `spent` is the
/// cost executed before the step — the basis of the policy deadline.
pub(crate) struct Wire<'a, E> {
    pub(crate) net: &'a mut E,
    pub(crate) ft: Option<(&'a RetryPolicy, &'a mut SourceFt)>,
    pub(crate) spent: Cost,
}

impl<'a, E: Exchanger> Wire<'a, E> {
    /// A wire without fault tolerance.
    pub(crate) fn plain(net: &'a mut E) -> Wire<'a, E> {
        Wire {
            net,
            ft: None,
            spent: Cost::ZERO,
        }
    }

    /// Whether the source was already given up on.
    pub(crate) fn dead(&self) -> bool {
        self.ft.as_ref().is_some_and(|(_, ft)| ft.dead)
    }

    /// The dropped outcome of a step whose source was already given up
    /// on, or `None` when the step should run.
    pub(crate) fn gone<T>(
        &self,
        idx: usize,
        kind: StepKind,
        source: SourceId,
    ) -> Option<Fetched<T>> {
        self.dead()
            .then(|| Fetched::Dropped(dropped_entry(idx, kind, source, 0, Cost::ZERO)))
    }

    /// Performs one exchange. `spent` is the cost executed so far,
    /// checked against the policy deadline: once the budget is gone,
    /// failures are final (no more retries).
    pub(crate) fn attempt(
        &mut self,
        source: SourceId,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
        spent: Cost,
    ) -> Attempted {
        let Some((policy, ft)) = &mut self.ft else {
            return Attempted::Delivered {
                comm: self.net.exchange(source, kind, req_bytes, resp_bytes),
                attempts: 1,
                failed: Cost::ZERO,
            };
        };
        let mut failed = Cost::ZERO;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            match self.net.try_exchange(source, kind, req_bytes, resp_bytes) {
                Ok(comm) => {
                    ft.consecutive = 0;
                    return Attempted::Delivered {
                        comm,
                        attempts,
                        failed,
                    };
                }
                Err(FailedExchange { kind: fault, cost }) => {
                    failed += cost;
                    ft.consecutive += 1;
                    let give_up = fault == FaultKind::Outage
                        || ft.consecutive >= policy.breaker_threshold
                        || attempts >= policy.max_attempts
                        || policy
                            .deadline
                            .is_some_and(|budget| spent + failed >= budget);
                    if give_up {
                        ft.dead = true;
                        return Attempted::Exhausted { attempts, failed };
                    }
                    // Wait before retrying; the wait is charged as
                    // failure cost (the mediator sits idle).
                    failed += policy.backoff(source, attempts);
                }
            }
        }
    }

    /// Prices a single-exchange step whose delivered `entry` is filled in
    /// bar its exchange fields: delivered, the step yields `value`; given
    /// up on, a dropped entry that still charges the failed attempts.
    pub(crate) fn deliver<T>(
        &mut self,
        entry: &LedgerEntry,
        kind: ExchangeKind,
        req_bytes: usize,
        resp_bytes: usize,
        value: T,
    ) -> Fetched<T> {
        let source = entry.source.expect("remote step has a source");
        match self.attempt(source, kind, req_bytes, resp_bytes, self.spent) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => Fetched::Done(
                value,
                LedgerEntry {
                    comm,
                    attempts,
                    failed_cost: failed,
                    ..*entry
                },
            ),
            Attempted::Exhausted { attempts, failed } => Fetched::Dropped(dropped_entry(
                entry.step, entry.kind, source, attempts, failed,
            )),
        }
    }
}

/// A ledger entry for a dropped remote step: nothing delivered, but the
/// failed attempts that led to giving up are still charged.
pub(crate) fn dropped_entry(
    step: usize,
    kind: StepKind,
    source: SourceId,
    attempts: usize,
    failed: Cost,
) -> LedgerEntry {
    LedgerEntry {
        step,
        kind,
        source: Some(source),
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out: 0,
        attempts,
        failed_cost: failed,
    }
}

/// The entry of a remote step before its exchange: one round trip, no
/// communication priced yet.
pub(crate) fn remote_entry(
    step: usize,
    kind: StepKind,
    source: SourceId,
    proc: f64,
    items_out: usize,
) -> LedgerEntry {
    LedgerEntry {
        step,
        kind,
        source: Some(source),
        comm: Cost::ZERO,
        proc: Cost::new(proc),
        round_trips: 1,
        items_out,
        attempts: 1,
        failed_cost: Cost::ZERO,
    }
}

/// What a remote step came back with: the delivered value plus its
/// entry, or — fault-tolerantly only — the entry of a dropped step (dead
/// source or retry exhaustion; the caller decides whether dropping is
/// sound). A dropped entry carries the costs already paid (delivered
/// batches and failed attempts); the step's value degrades to ∅ — a
/// partially-probed semijoin is not a sound value.
pub(crate) enum Fetched<T> {
    Done(T, LedgerEntry),
    Dropped(LedgerEntry),
}

impl<T> Fetched<T> {
    fn into_done(self, value: impl FnOnce(T) -> StepValue) -> StepDone {
        match self {
            Fetched::Done(v, entry) => StepDone {
                value: value(v),
                entry,
            },
            Fetched::Dropped(entry) => StepDone {
                value: StepValue::Dropped,
                entry,
            },
        }
    }

    /// The delivered value of a step run without fault tolerance.
    ///
    /// # Panics
    /// Panics on a dropped step: plain exchanges never give up.
    pub(crate) fn delivered(self) -> (T, LedgerEntry) {
        match self {
            Fetched::Done(v, entry) => (v, entry),
            Fetched::Dropped(_) => unreachable!("a plain exchange dropped a step"),
        }
    }
}

/// Executes one selection step: `sq(c, R)` plus its ledger entry.
pub(crate) fn exec_sq<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    sources: &SourceSet,
    mut wire: Wire<'_, E>,
) -> Result<Fetched<ItemSet>> {
    if let Some(gone) = wire.gone(idx, StepKind::Selection, source) {
        return Ok(gone);
    }
    let w = sources.get(source);
    let resp = w.select(cond)?;
    let req_bytes = MessageSize::sq_request(cond);
    let resp_bytes = MessageSize::items_response(&resp.payload);
    let proc = w
        .processing()
        .cost(resp.tuples_examined, resp.payload.len());
    let entry = remote_entry(idx, StepKind::Selection, source, proc, resp.payload.len());
    Ok(wire.deliver(
        &entry,
        ExchangeKind::Selection,
        req_bytes,
        resp_bytes,
        resp.payload,
    ))
}

/// Executes one Bloom-filter semijoin step plus its ledger entry.
pub(crate) fn exec_bloom<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    bindings: &ItemSet,
    bits: u8,
    sources: &SourceSet,
    mut wire: Wire<'_, E>,
) -> Result<Fetched<ItemSet>> {
    if let Some(gone) = wire.gone(idx, StepKind::BloomSemijoin, source) {
        return Ok(gone);
    }
    let w = sources.get(source);
    let filter = fusion_types::BloomFilter::build(bindings, bits as f64);
    let resp = w.bloom_semijoin(cond, &filter)?;
    let req_bytes = MessageSize::sq_request(cond) + filter.wire_size();
    let resp_bytes = MessageSize::items_response(&resp.payload);
    let proc = w
        .processing()
        .cost(resp.tuples_examined, resp.payload.len());
    let entry = remote_entry(
        idx,
        StepKind::BloomSemijoin,
        source,
        proc,
        resp.payload.len(),
    );
    Ok(wire.deliver(
        &entry,
        ExchangeKind::BloomSemijoin,
        req_bytes,
        resp_bytes,
        resp.payload,
    ))
}

/// Executes one full-load step `lq(R)` plus its ledger entry; the caller
/// turns the rows into a [`Relation`] under the query schema (or an empty
/// one for a dropped load).
pub(crate) fn exec_lq<E: Exchanger>(
    idx: usize,
    source: SourceId,
    sources: &SourceSet,
    mut wire: Wire<'_, E>,
) -> Result<Fetched<Vec<Tuple>>> {
    if let Some(gone) = wire.gone(idx, StepKind::Load, source) {
        return Ok(gone);
    }
    let w = sources.get(source);
    let resp = w.load()?;
    let req_bytes = MessageSize::lq_request();
    let resp_bytes = MessageSize::tuples_response(&resp.payload);
    let proc = w
        .processing()
        .cost(resp.tuples_examined, resp.payload.len());
    let entry = remote_entry(idx, StepKind::Load, source, proc, resp.payload.len());
    Ok(wire.deliver(
        &entry,
        ExchangeKind::Load,
        req_bytes,
        resp_bytes,
        resp.payload,
    ))
}

/// Executes one semijoin query, natively or by emulation. Emulation is
/// one passed-binding probe per batch of bindings (§2.3); when the source
/// is given up on mid-way, the batches already delivered stay paid for
/// and the step is dropped.
pub(crate) fn run_semijoin<E: Exchanger>(
    idx: usize,
    source: SourceId,
    cond: &Condition,
    bindings: &ItemSet,
    sources: &SourceSet,
    mut wire: Wire<'_, E>,
) -> Result<Fetched<ItemSet>> {
    let w = sources.get(source);
    let caps = *w.capabilities();
    let kind = if caps.native_semijoin {
        StepKind::Semijoin
    } else {
        StepKind::EmulatedSemijoin
    };
    let mut entry = LedgerEntry {
        step: idx,
        kind,
        source: Some(source),
        comm: Cost::ZERO,
        proc: Cost::ZERO,
        round_trips: 0,
        items_out: 0,
        attempts: 0,
        failed_cost: Cost::ZERO,
    };
    if bindings.is_empty() {
        // X ⋉ ∅ = ∅: both the native and the emulated path resolve this
        // at the mediator for free — no round trip, no source work, no
        // fault exposure. The cost estimator agrees
        // (NetworkCostModel::sjq_cost at k = 0).
        return Ok(Fetched::Done(ItemSet::empty(), entry));
    }
    if let Some(gone) = wire.gone(idx, kind, source) {
        return Ok(gone);
    }
    if caps.native_semijoin {
        let resp = w.semijoin(cond, bindings)?;
        let req_bytes = MessageSize::sjq_request(cond, bindings);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        let proc = w
            .processing()
            .cost(resp.tuples_examined, resp.payload.len());
        let entry = remote_entry(idx, kind, source, proc, resp.payload.len());
        return Ok(wire.deliver(
            &entry,
            ExchangeKind::Semijoin,
            req_bytes,
            resp_bytes,
            resp.payload,
        ));
    }
    if !caps.passed_bindings {
        return Err(FusionError::Unsupported {
            detail: format!(
                "source `{}` supports neither native nor emulated semijoins",
                w.name()
            ),
        });
    }
    let mut answers: Vec<ItemSet> = Vec::new();
    for chunk in bindings.as_slice().chunks(caps.binding_batch.max(1)) {
        let batch = ItemSet::from_sorted_unique(chunk.to_vec());
        let resp = w.probe(cond, &batch)?;
        let req_bytes = MessageSize::sjq_request(cond, &batch);
        let resp_bytes = MessageSize::items_response(&resp.payload);
        let spent = wire.spent + entry.comm + entry.proc + entry.failed_cost;
        match wire.attempt(
            source,
            ExchangeKind::BindingProbe,
            req_bytes,
            resp_bytes,
            spent,
        ) {
            Attempted::Delivered {
                comm,
                attempts,
                failed,
            } => {
                entry.comm += comm;
                entry.proc += Cost::new(
                    w.processing()
                        .cost(resp.tuples_examined, resp.payload.len()),
                );
                entry.round_trips += 1;
                entry.attempts += attempts;
                entry.failed_cost += failed;
                answers.push(resp.payload);
            }
            Attempted::Exhausted { attempts, failed } => {
                // The value is discarded (items_out = 0) and the caller
                // drops the step.
                entry.attempts += attempts;
                entry.failed_cost += failed;
                return Ok(Fetched::Dropped(entry));
            }
        }
    }
    let result = ItemSet::union_all(&answers);
    entry.items_out = result.len();
    Ok(Fetched::Done(result, entry))
}

/// What a remote step hands back to its executor: the step's value plus
/// its ledger entry. [`dispatch_remote_step`] produces it,
/// [`ExecState::apply`] folds it into executor state.
pub(crate) struct StepDone {
    pub(crate) value: StepValue,
    pub(crate) entry: LedgerEntry,
}

/// The value a remote step delivered (or, fault-tolerantly, failed to).
pub(crate) enum StepValue {
    /// A delivered item-set step (`sq` / `sjq` / Bloom `sjq`).
    Items(ItemSet),
    /// A cached-mode selection miss: the answer items plus the full
    /// records to admit to the cache after the run.
    CachedItems(ItemSet, Vec<Tuple>),
    /// A delivered full load.
    Rows(Vec<Tuple>),
    /// A dropped step (fault-tolerant mode only).
    Dropped,
}

/// Executes one remote step — the single step dispatch every executor
/// family (sequential, parallel, cached, replay, reopt, server) goes
/// through, so their per-step behavior cannot drift apart. Its
/// shared-state footprint is what the static analysis says it is: the
/// step's input variables, the step's source shard (exchange + fault
/// cursor), nothing else.
///
/// `records` marks a cached run: selection misses fetch full records
/// (sized as such) for later admission. Cache *hits* never reach this
/// function — callers resolve them beforehand.
///
/// # Panics
/// Panics when called with a mediator-local step.
pub(crate) fn dispatch_remote_step<E: Exchanger>(
    idx: usize,
    step: &Step,
    conditions: &[Condition],
    sources: &SourceSet,
    vars: &[Option<ItemSet>],
    wire: Wire<'_, E>,
    records: Option<&Schema>,
) -> Result<StepDone> {
    let bound = |v: usize| vars[v].as_ref().expect("validated: def before use");
    Ok(match step {
        Step::Sq { cond, source, .. } => {
            let c = &conditions[cond.0];
            match records {
                Some(schema) => exec_sq_records(idx, *source, c, schema, sources, wire)?
                    .into_done(|(items, rows)| StepValue::CachedItems(items, rows)),
                None => exec_sq(idx, *source, c, sources, wire)?.into_done(StepValue::Items),
            }
        }
        Step::Sjq {
            cond,
            source,
            input,
            ..
        } => {
            let c = &conditions[cond.0];
            run_semijoin(idx, *source, c, bound(input.0), sources, wire)?
                .into_done(StepValue::Items)
        }
        Step::SjqBloom {
            cond,
            source,
            input,
            bits,
            ..
        } => {
            let c = &conditions[cond.0];
            exec_bloom(idx, *source, c, bound(input.0), *bits, sources, wire)?
                .into_done(StepValue::Items)
        }
        Step::Lq { source, .. } => exec_lq(idx, *source, sources, wire)?.into_done(StepValue::Rows),
        local => panic!("dispatch_remote_step called with local step {local:?}"),
    })
}

// ---------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------

/// One plan execution's state, shared by every plan executor: variable
/// and relation bindings, one ledger slot per plan step, pending cache
/// admissions, and the fault-tolerant drop bookkeeping together with the
/// plan analysis that vets each drop.
///
/// The plan is passed to each method rather than held, so the adaptive
/// executor can splice a new suffix in mid-run ([`ExecState::resize`]).
pub(crate) struct ExecState<'q> {
    pub(crate) query: &'q FusionQuery,
    pub(crate) sources: &'q SourceSet,
    pub(crate) vars: Vec<Option<ItemSet>>,
    pub(crate) rels: Vec<Option<Relation>>,
    /// Relations whose load was dropped (fault-tolerant mode only).
    rel_dropped: Vec<bool>,
    /// Per-step ledger entries, filled in as steps complete.
    pub(crate) entries: Vec<Option<LedgerEntry>>,
    /// Cache admissions waiting for the run to finish.
    pub(crate) pending: Vec<PendingInsert>,
    /// Dropped steps, in drop order.
    dropped: Vec<usize>,
    /// Conditions weakened by drops.
    missing_conds: Vec<CondId>,
    /// The guard's analysis (absent for unchecked runs).
    analysis: Option<Analysis>,
}

impl<'q> ExecState<'q> {
    /// Checks `plan` and sets up its execution state. With `guarded`,
    /// the plan is first put through the semantic analyzer and refused
    /// when it provably does not compute the fusion query; then it is
    /// structurally validated and its shape checked against the query
    /// and the sources.
    ///
    /// # Errors
    /// Fails on semantically unsound (when guarded) or structurally
    /// invalid plans, and on condition or source count mismatches.
    pub(crate) fn new(
        plan: &Plan,
        query: &'q FusionQuery,
        sources: &'q SourceSet,
        guarded: bool,
    ) -> Result<ExecState<'q>> {
        let analysis = if guarded {
            let analysis = analyze_plan(plan)?;
            if let Verdict::Refuted(cx) = analysis.verdict() {
                return Err(FusionError::invalid_plan(format!(
                    "refusing to execute a semantically unsound plan: it does not \
                     compute the fusion query.\n{cx}"
                )));
            }
            Some(analysis)
        } else {
            None
        };
        plan.validate()?;
        if query.m() != plan.n_conditions {
            return Err(FusionError::invalid_plan(format!(
                "plan expects {} conditions, query has {}",
                plan.n_conditions,
                query.m()
            )));
        }
        if sources.len() != plan.n_sources {
            return Err(FusionError::invalid_plan(format!(
                "plan expects {} sources, got {}",
                plan.n_sources,
                sources.len()
            )));
        }
        Ok(ExecState {
            query,
            sources,
            vars: vec![None; plan.var_names.len()],
            rels: vec![None; plan.rel_names.len()],
            rel_dropped: vec![false; plan.rel_names.len()],
            entries: vec![None; plan.steps.len()],
            pending: Vec::new(),
            dropped: Vec::new(),
            missing_conds: Vec::new(),
            analysis,
        })
    }

    /// Fits the bindings and ledger slots to `plan` after a certified
    /// suffix splice (the executed prefix is shared by construction).
    pub(crate) fn resize(&mut self, plan: &Plan) {
        self.vars.resize(plan.var_names.len(), None);
        self.rels.resize(plan.rel_names.len(), None);
        self.rel_dropped.resize(plan.rel_names.len(), false);
        self.entries.resize(plan.steps.len(), None);
    }

    /// Cost of the steps completed so far, in step order — the retry
    /// deadline's basis.
    pub(crate) fn spent(&self) -> Cost {
        self.entries.iter().flatten().map(LedgerEntry::total).sum()
    }

    /// Whether no step has been dropped.
    pub(crate) fn is_exact(&self) -> bool {
        self.dropped.is_empty()
    }

    /// Executes step `idx` as the sequential loop does: a local step
    /// folds in place, a selection `cache` serves is free (a hit needs no
    /// network, so it comes before the dead-source check), and every
    /// other remote step dispatches on `network` — through the retry loop
    /// when `ft` is attached — and folds.
    pub(crate) fn step_sequential(
        &mut self,
        plan: &Plan,
        idx: usize,
        network: &mut Network,
        ft: Option<&mut FtState<'_>>,
        cache: Option<&mut AnswerCache>,
    ) -> Result<()> {
        let step = &plan.steps[idx];
        let Some(source) = step.source() else {
            return self.exec_local(plan, idx);
        };
        let query = self.query;
        let records = cache.is_some().then(|| query.schema());
        if let (Step::Sq { cond, .. }, Some(cache)) = (step, cache) {
            let c = &query.conditions()[cond.0];
            if let Some(served) = cache.lookup(source, c, query.schema())? {
                self.serve(plan, idx, served_entry(idx, source, &served), served.items);
                return Ok(());
            }
        }
        let wire = Wire {
            net: network,
            spent: if ft.is_some() {
                self.spent()
            } else {
                Cost::ZERO
            },
            ft: ft.map(|st| st.src(source)),
        };
        let done = dispatch_remote_step(
            idx,
            step,
            query.conditions(),
            self.sources,
            &self.vars,
            wire,
            records,
        )?;
        self.apply(plan, idx, done)
    }

    /// Executes mediator-local step `idx` (`LocalSq`, `Union`,
    /// `Intersect`, `Diff`) into its free ledger slot. A local selection
    /// over a dropped load weakens its condition.
    ///
    /// # Panics
    /// Panics if called with a remote step.
    pub(crate) fn exec_local(&mut self, plan: &Plan, idx: usize) -> Result<()> {
        let vars = &self.vars;
        let var = |v: usize| vars[v].as_ref().expect("validated");
        let (out, items) = match &plan.steps[idx] {
            Step::LocalSq { out, cond, rel } => {
                if self.rel_dropped[rel.0] {
                    self.missing_conds.push(*cond);
                }
                let relation = self.rels[rel.0]
                    .as_ref()
                    .expect("validated: loaded before use");
                let c = &self.query.conditions()[cond.0];
                (out, relation.select_items(c)?.items)
            }
            Step::Union { out, inputs } => {
                let sets: Vec<&ItemSet> = inputs.iter().map(|v| var(v.0)).collect();
                (out, ItemSet::union_all(sets))
            }
            Step::Intersect { out, inputs } => {
                let (first, rest) = inputs.split_first().expect("validated");
                let acc = rest
                    .iter()
                    .fold(var(first.0).clone(), |acc, v| acc.intersect(var(v.0)));
                (out, acc)
            }
            Step::Diff { out, left, right } => (out, var(left.0).difference(var(right.0))),
            remote => panic!("exec_local called with remote step {remote:?}"),
        };
        self.entries[idx] = Some(LedgerEntry {
            step: idx,
            kind: StepKind::Local,
            source: None,
            comm: Cost::ZERO,
            proc: Cost::ZERO,
            round_trips: 0,
            items_out: items.len(),
            attempts: 0,
            failed_cost: Cost::ZERO,
        });
        self.vars[out.0] = Some(items);
        Ok(())
    }

    /// Binds selection `idx` served without an exchange (a cache hit or
    /// a shared fetch) with its free ledger entry.
    pub(crate) fn serve(&mut self, plan: &Plan, idx: usize, entry: LedgerEntry, items: ItemSet) {
        if let Step::Sq { out, .. } = &plan.steps[idx] {
            self.vars[out.0] = Some(items);
        }
        self.entries[idx] = Some(entry);
    }

    /// Folds one completed remote step into the state — the single fold
    /// every executor shares. A cached-mode miss queues its admission,
    /// weighted by the entry's fetch price; a dropped step is first
    /// checked against the plan analysis.
    ///
    /// # Errors
    /// Fails when a dropped step cannot be soundly dropped.
    pub(crate) fn apply(&mut self, plan: &Plan, idx: usize, done: StepDone) -> Result<()> {
        let StepDone { value, entry } = done;
        let refetch = entry.comm + entry.proc;
        self.entries[idx] = Some(entry);
        let schema = self.query.schema();
        match (value, &plan.steps[idx]) {
            (
                StepValue::Items(items),
                Step::Sq { out, .. } | Step::Sjq { out, .. } | Step::SjqBloom { out, .. },
            ) => {
                self.vars[out.0] = Some(items);
            }
            (StepValue::CachedItems(items, rows), Step::Sq { out, cond, source }) => {
                self.pending.push(PendingInsert {
                    step: idx,
                    source: *source,
                    cond: self.query.conditions()[cond.0].clone(),
                    rows,
                    refetch,
                });
                self.vars[out.0] = Some(items);
            }
            (StepValue::Rows(rows), Step::Lq { out, .. }) => {
                self.rels[out.0] = Some(Relation::from_rows(schema.clone(), rows));
            }
            (
                StepValue::Dropped,
                Step::Sq { out, cond, .. }
                | Step::Sjq { out, cond, .. }
                | Step::SjqBloom { out, cond, .. },
            ) => {
                self.check_droppable(plan, idx)?;
                self.missing_conds.push(*cond);
                self.vars[out.0] = Some(ItemSet::empty());
            }
            (StepValue::Dropped, Step::Lq { out, .. }) => {
                self.check_droppable(plan, idx)?;
                // Later local selections over the relation run against an
                // empty table and yield ∅ — exactly the degraded semantics
                // the BDD check verified.
                self.rels[out.0] = Some(Relation::from_rows(schema.clone(), vec![]));
                self.rel_dropped[out.0] = true;
            }
            (_, step) => unreachable!("step/value shape mismatch at {step:?}"),
        }
        Ok(())
    }

    /// Drops step `idx`, verifying via the BDD analysis that the
    /// cumulative degraded plan still computes a subset of the fusion
    /// answer.
    fn check_droppable(&mut self, plan: &Plan, idx: usize) -> Result<()> {
        self.dropped.push(idx);
        let analysis = self
            .analysis
            .as_mut()
            .expect("steps are only dropped in guarded fault-tolerant runs");
        if analysis.droppable(plan, &self.dropped) {
            Ok(())
        } else {
            Err(FusionError::execution(format!(
                "source failure at step #{idx}: dropping it would not \
                 yield a sound subset of the fusion answer (the step's \
                 value is used non-monotonically); aborting instead"
            )))
        }
    }

    /// The run's epilogue: the answer, the step-ordered ledger, the
    /// completeness tag folded from the drops, and the cache admissions
    /// still pending.
    ///
    /// # Panics
    /// Panics if a step never executed.
    pub(crate) fn finish(mut self, plan: &Plan) -> (ExecutionOutcome, Vec<PendingInsert>) {
        let mut ledger = CostLedger::new();
        for e in self.entries {
            ledger.push(e.expect("every plan step executed"));
        }
        let answer = self.vars[plan.result.0]
            .take()
            .expect("validated: result defined");
        let completeness = if self.dropped.is_empty() {
            Completeness::Exact
        } else {
            let mut missing_sources: Vec<SourceId> = self
                .dropped
                .iter()
                .filter_map(|&i| plan.steps[i].source())
                .collect();
            missing_sources.sort_unstable();
            missing_sources.dedup();
            self.missing_conds.sort_unstable();
            self.missing_conds.dedup();
            Completeness::Subset {
                missing_sources,
                missing_conditions: self.missing_conds,
            }
        };
        let outcome = ExecutionOutcome {
            answer,
            ledger,
            completeness,
        };
        (outcome, self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::cost::TableCostModel;
    use fusion_core::optimizer::{filter_plan, sja_optimal};
    use fusion_core::plan::{SimplePlanSpec, SourceChoice};
    use fusion_net::LinkProfile;
    use fusion_source::{Capabilities, InMemoryWrapper, ProcessingProfile};
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, CondId, Predicate};

    fn figure1_relations() -> Vec<Relation> {
        let s = dmv_schema();
        vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![
                    tuple!["T21", "sp", 1993i64],
                    tuple!["S07", "sp", 1996i64],
                    tuple!["S07", "sp", 1993i64],
                ],
            ),
        ]
    }

    fn dmv_sources(caps: Capabilities) -> SourceSet {
        SourceSet::new(
            figure1_relations()
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    Box::new(InMemoryWrapper::new(
                        format!("R{}", i + 1),
                        r,
                        caps,
                        ProcessingProfile::indexed_db(),
                        i as u64,
                    )) as Box<dyn fusion_source::Wrapper>
                })
                .collect(),
        )
    }

    fn dmv_query() -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    fn semijoin_spec() -> SimplePlanSpec {
        SimplePlanSpec {
            order: vec![CondId(0), CondId(1)],
            choices: vec![
                vec![SourceChoice::Selection; 3],
                vec![SourceChoice::Semijoin; 3],
            ],
        }
    }

    #[test]
    fn filter_plan_computes_figure1_answer_with_costs() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 3, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        assert_eq!(out.answer, ItemSet::from_items(["J55", "T21"]));
        assert!(out.total_cost() > Cost::ZERO);
        assert_eq!(out.ledger.count_kind(StepKind::Selection), 6);
        assert_eq!(net.trace().len(), 6);
    }

    #[test]
    fn native_and_emulated_semijoins_agree_on_answers() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let mut answers = Vec::new();
        let mut costs = Vec::new();
        for caps in [
            Capabilities::full(),
            Capabilities::emulated(2),
            Capabilities::emulated(1),
        ] {
            let sources = dmv_sources(caps);
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
            answers.push(out.answer.clone());
            costs.push(out.total_cost());
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(answers[0], ItemSet::from_items(["J55", "T21"]));
        // Emulation costs strictly more, and smaller batches cost more.
        assert!(
            costs[1] > costs[0],
            "emulated {} <= native {}",
            costs[1],
            costs[0]
        );
        assert!(costs[2] > costs[1]);
    }

    #[test]
    fn emulated_semijoin_batches_round_trips() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::emulated(1));
        let mut net = Network::uniform(3, LinkProfile::Lan.link());
        let out = execute_plan(&plan, &q, &sources, &mut net).unwrap();
        // X1 = {J55, T80, T21}: three bindings probed one at a time at
        // each of the three sources.
        let emulated: Vec<_> = out
            .ledger
            .entries()
            .iter()
            .filter(|e| e.kind == StepKind::EmulatedSemijoin)
            .collect();
        assert_eq!(emulated.len(), 3);
        for e in emulated {
            assert_eq!(e.round_trips, 3);
        }
        assert_eq!(net.count_kind(ExchangeKind::BindingProbe), 9);
    }

    #[test]
    fn selection_only_source_fails_semijoin_execution() {
        let q = dmv_query();
        let plan = semijoin_spec().build(3).unwrap();
        let sources = dmv_sources(Capabilities::selection_only());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(matches!(err, FusionError::Unsupported { .. }));
    }

    #[test]
    fn executed_answer_matches_naive_for_optimizer_plans() {
        let q = dmv_query();
        let truth = q.naive_answer(&figure1_relations()).unwrap();
        let model = TableCostModel::uniform(2, 3, 5.0, 1.0, 0.5, 1e9, 2.0, 8.0);
        let sources = dmv_sources(Capabilities::full());
        for opt in [filter_plan(&model), sja_optimal(&model)] {
            let mut net = Network::uniform(3, LinkProfile::Wan.link());
            let out = execute_plan(&opt.plan, &q, &sources, &mut net).unwrap();
            assert_eq!(out.answer, truth);
        }
    }

    #[test]
    fn lq_and_local_steps_execute() {
        use fusion_core::plan::{Plan, Step, VarId};
        let q = dmv_query();
        // T1 := lq(R1); X0 := sq(c1, T1); X1 := sq(c2, R2); X2 := X0 ∩ X1.
        let mut plan = Plan::new(vec![], VarId(0), 2, 3);
        let t = plan.fresh_rel("T1");
        let x0 = plan.fresh_var("X0");
        let x1 = plan.fresh_var("X1");
        let x2 = plan.fresh_var("X2");
        plan.steps = vec![
            Step::Lq {
                out: t,
                source: SourceId(0),
            },
            Step::LocalSq {
                out: x0,
                cond: CondId(0),
                rel: t,
            },
            Step::Sq {
                out: x1,
                cond: CondId(1),
                source: SourceId(1),
            },
            Step::Intersect {
                out: x2,
                inputs: vec![x0, x1],
            },
        ];
        plan.result = x2;
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        // The plan is a deliberate partial probe (it ignores R3), so the
        // guarded entry point refuses it...
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        assert!(err.to_string().contains("semantically unsound"), "{err}");
        // ...and the unchecked one runs it.
        let out = execute_plan_unchecked(&plan, &q, &sources, &mut net).unwrap();
        // dui at R1 = {J55, T80}; sp at R2 = {J55, T11} → {J55}.
        assert_eq!(out.answer, ItemSet::from_items(["J55"]));
        assert_eq!(out.ledger.count_kind(StepKind::Load), 1);
        assert_eq!(out.ledger.count_kind(StepKind::Local), 2);
    }

    #[test]
    fn guard_refuses_unsound_plan_with_counterexample() {
        let q = dmv_query();
        // A filter plan whose final union forgets R3.
        let mut plan = SimplePlanSpec::filter(2, 3).build(3).unwrap();
        for step in plan.steps.iter_mut().rev() {
            if let Step::Union { inputs, .. } = step {
                inputs.truncate(2);
                break;
            }
        }
        let sources = dmv_sources(Capabilities::full());
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        let err = execute_plan(&plan, &q, &sources, &mut net).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing to execute"), "{msg}");
        assert!(msg.contains("counterexample world"), "{msg}");
        assert!(msg.contains("step trace"), "{msg}");
    }

    #[test]
    fn arity_mismatches_rejected() {
        let q = dmv_query();
        let model = TableCostModel::uniform(2, 2, 1.0, 1.0, 0.1, 1e9, 2.0, 8.0);
        let plan = filter_plan(&model).plan; // 2 sources
        let sources = dmv_sources(Capabilities::full()); // 3 sources
        let mut net = Network::uniform(3, LinkProfile::Wan.link());
        assert!(execute_plan(&plan, &q, &sources, &mut net).is_err());
    }
}
