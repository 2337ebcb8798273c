//! The mediator-side plan executor.
//!
//! Interprets fusion query plans against live wrappers with full cost
//! accounting:
//!
//! * [`execute_plan`] runs a plan sequentially, performing every remote
//!   operation through the simulated [`Network`] and charging both
//!   communication and source-processing costs; semijoin queries against
//!   sources without native support are transparently emulated as batched
//!   passed-binding probes (§2.3).
//! * [`CostLedger`] records the actual cost of every step, so experiments
//!   can compare the optimizer's estimates against executed reality.
//! * [`response_time`] replays an executed plan under a parallel
//!   execution model (the paper's §6 future-work direction): steps run as
//!   soon as their inputs are available, each source serves one query at a
//!   time, and the response time is the critical-path makespan.
//! * [`fetch_records`] implements the "second phase" of two-phase fusion
//!   query processing (§1): retrieving the full records of the matching
//!   entities.
//! * [`execute_adaptive`] interleaves planning and execution: after every
//!   round it re-plans the remaining conditions from the *observed*
//!   running-set size (mid-query re-optimization), which repairs the
//!   estimate drift correlated conditions cause.
//! * [`execute_plan_parallel`] (and [`execute_plan_parallel_ft`]) run the
//!   certified stage decomposition on real threads — one serial queue per
//!   source, results merged at stage barriers — producing answers,
//!   ledgers, and network traces byte-identical to sequential execution
//!   while measuring actual wall-clock makespan.
//! * [`execute_plan_ft`] and [`execute_adaptive_ft`] add fault tolerance:
//!   exchanges failed by the network's [`FaultPlan`] are retried under a
//!   [`RetryPolicy`] (bounded attempts, seeded-jitter backoff, circuit
//!   breaker, cost deadline), and when a source stays down its steps are
//!   dropped — guarded by the BDD analyzer's droppability check — to
//!   return a partial answer tagged [`Completeness::Subset`].
//! * [`execute_plan_reopt`] (and [`execute_plan_reopt_parallel`]) add
//!   runtime adaptive re-optimization: observed per-exchange
//!   cardinalities calibrate a persistent feedback store, and when an
//!   observation escapes its certified believed interval at a round
//!   boundary, the remaining suffix is re-searched under a budgeted
//!   persistent memo ([`ReoptSession`]) and spliced in — only if
//!   [`certify_switch`] proves the splice sound. Switches land in the
//!   ledger as [`StepKind::Reopt`] markers so [`replay_plan_reopt`]
//!   reproduces switched runs bit for bit.
//! * [`serve`] is the multi-tenant mediator server: a worker pool
//!   interleaves many tenants' sessions over one shared, sharded answer
//!   cache with admission control, per-source concurrency limits, and a
//!   certified replayable operation log ([`replay_serial`] /
//!   [`verify_replay_parity`] prove byte-parity with a serial run).
//! * [`execute_plan_cached`] (and the parallel cached variants) serve
//!   selections from a semantic [`fusion_cache::AnswerCache`] and admit
//!   fresh answers after the run; [`execute_plan_replay`] replays one
//!   explicit event order for the schedule model-checker;
//!   [`execute_fetch_plan`] (and [`fetch_planned`]) run phase two's
//!   certified covering fetch.
//!
//! The entry points share one core. `interp` holds the
//! step layer (one executor per remote step kind, fault-tolerant or not
//! by the wire it is given) and the execution state every plan executor
//! shares (the guard, the fold and the completeness epilogue);
//! `parallel` adds the one stage body the stage-parallel and reopt
//! executors run on worker threads.
//!
//! [`FaultPlan`]: fusion_net::FaultPlan
//!
//! [`certify_switch`]: fusion_core::dataflow::certify_switch
//!
//! [`Network`]: fusion_net::Network

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cached;
pub mod interp;
pub mod ledger;
pub mod parallel;
pub mod phase2;
pub mod piggyback;
pub mod reopt;
pub mod replay;
pub mod retry;
pub mod schedule;
pub mod server;
mod share;
pub mod two_phase;

pub use adaptive::{execute_adaptive, execute_adaptive_ft, AdaptiveOutcome, AdaptiveRound};
pub use cached::{execute_plan_cached, execute_plan_ft_cached};
pub use interp::{execute_plan, execute_plan_ft, execute_plan_unchecked, ExecutionOutcome};
pub use ledger::{CostLedger, LedgerEntry, StepKind};
pub use parallel::{
    execute_plan_parallel, execute_plan_parallel_cached, execute_plan_parallel_ft,
    execute_plan_parallel_ft_cached, ParallelConfig, ParallelOutcome,
};
pub use phase2::{
    cached_phase2_rows, execute_fetch_plan, execute_fetch_plan_ft, execute_fetch_plan_parallel,
    fetch_planned, Phase2Outcome,
};
pub use piggyback::{execute_piggyback, fetch_first_records, PiggybackOutcome};
pub use reopt::{
    execute_plan_reopt, execute_plan_reopt_parallel, replay_plan_reopt, ReoptConfig, ReoptOutcome,
    ReoptSession, SwitchRecord,
};
pub use replay::{execute_plan_replay, ReplayOptions};
pub use retry::{Completeness, RetryPolicy};
pub use schedule::{
    response_time, schedule, stage_schedule, verify_stage_trace, ScheduledStep, StageTraceEntry,
};
pub use server::{
    replay_serial, serve, verify_replay_parity, LoggedOp, OpKind, QueryResult, ReplayedQuery,
    ServerConfig, ServerReport, ShareRef, ShedQuery, TenantEvent,
};
pub use two_phase::fetch_records;
