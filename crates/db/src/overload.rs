//! Overload control for the crowd service: admission, health, fault plans.
//!
//! The crowd repository is shared public infrastructure — an upload storm
//! or a stalled fsync must degrade it gracefully, never topple it. This
//! module supplies the pieces [`crate::CrowdService`] wires together when
//! [`OverloadConfig`] is set on its `ServiceConfig`:
//!
//! * **Admission control** ([`OverloadState::admit_write`]) — a bounded
//!   *virtual* write queue per shard plus a global in-flight budget. The
//!   queue models service capacity on the service clock (simulated
//!   microseconds the load driver advances): each admitted write occupies
//!   the queue until its modeled completion time. When the queue is full,
//!   the budget is exhausted, or the shard is shedding, the request is
//!   *shed* with a typed [`StoreError::Overloaded`] before any state is
//!   touched — never silently dropped, never acked-then-lost. A shed
//!   write by construction never reaches memory or the WAL.
//! * **Deadline checks** — a request whose
//!   [`RequestCtx::deadline_us`](crowdtune_obs::RequestCtx) cannot be met
//!   (projected completion past the deadline, or already expired) returns
//!   a typed [`StoreError::DeadlineExceeded`] instead of holding locks.
//! * **Health state machine** ([`ShardHealth`]) — Healthy → Degraded →
//!   Shedding with hysteresis on queue depth and modeled fsync cost.
//!   Transitions are journaled; a degraded shard serves epoch-stamped
//!   stale cache reads (marked `ScanStats::stale_served`) and a shedding
//!   shard rejects non-essential writes while always admitting checkpoint
//!   blobs.
//! * **Fault injection** ([`ServiceFaultPlan`]) — seed-deterministic
//!   slow/stuck-fsync episodes, per-shard stalls, and client request
//!   storms, all pure functions of `(seed, time, sequence)` so twin runs
//!   are bitwise identical.
//! * **Backoff** ([`Backoff`], `seeded_unit`) — capped exponential
//!   backoff with deterministic seeded jitter, shared with the tuner's
//!   `RetryPolicy` and the client-side circuit breaker.

use crate::store::StoreError;
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx, TraceStage};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 — the standard 64-bit mixer; a pure function of its input,
/// so fault amplitudes and jitter derived from `(seed, index)` are
/// bitwise-reproducible across runs and platforms.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic uniform draw in `[0, 1)` from `(seed, index)`. Uses the
/// top 53 bits of one SplitMix64 output, so the result is an exactly
/// representable double and identical everywhere.
fn seeded_unit(seed: u64, index: u64) -> f64 {
    let bits = splitmix64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Capped exponential backoff with deterministic seeded jitter.
///
/// `delay_ms(attempt)` grows `base_ms * multiplier^(attempt-1)`, saturates
/// at `cap_ms`, then subtracts up to `jitter` fraction chosen by
/// `seeded_unit(seed, attempt)` — deterministic decorrelation, not
/// randomness: twin runs back off identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Backoff {
    /// First-attempt delay, milliseconds.
    pub base_ms: u64,
    /// Per-attempt growth factor.
    pub multiplier: f64,
    /// Hard ceiling on any single delay, milliseconds.
    pub cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by
    /// `1 - jitter * u` with `u` drawn from `seeded_unit`.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base_ms: 5,
            multiplier: 2.0,
            cap_ms: 1_000,
            jitter: 0.25,
            seed: 0,
        }
    }
}

impl Backoff {
    /// Delay before retry number `attempt` (1-based), milliseconds.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .multiplier
            .powi(attempt.saturating_sub(1).min(63) as i32);
        let raw = (self.base_ms as f64 * exp).min(self.cap_ms as f64);
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * seeded_unit(self.seed, attempt as u64);
        (raw * scale).round() as u64
    }
}

/// One timed fault episode on the service clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Episode start, service-clock microseconds (inclusive).
    pub start_us: u64,
    /// Episode end, service-clock microseconds (exclusive).
    pub end_us: u64,
    /// Episode amplitude: extra per-write service cost for fsync
    /// episodes, arrival-rate multiplier for storms.
    pub amount: u64,
}

impl Episode {
    fn covers(&self, now_us: u64) -> bool {
        now_us >= self.start_us && now_us < self.end_us
    }
}

/// One per-shard stall episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStall {
    /// Stall start, service-clock microseconds (inclusive).
    pub start_us: u64,
    /// Stall end, service-clock microseconds (exclusive).
    pub end_us: u64,
    /// Shard the stall pins.
    pub shard: u16,
    /// Extra per-write service cost while stalled, microseconds.
    pub extra_us: u64,
}

/// A seed-deterministic service-level fault plan: slow/stuck fsync
/// episodes, shard stalls, and client request storms. Every amplitude is
/// a pure function of `(seed, episode, sequence)` — no wall clock, no
/// shared RNG stream — so twin runs inject bitwise-identical faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceFaultPlan {
    /// Seed for the per-write jitter on episode amplitudes.
    pub seed: u64,
    /// Fsync-latency episodes (slow: amplitude ~ a few service quanta;
    /// stuck: amplitude ≫ queue drain rate). Apply to every shard.
    pub fsync_episodes: Vec<Episode>,
    /// Per-shard stalls.
    pub shard_stalls: Vec<ShardStall>,
    /// Client request storms — read by the load *driver* (arrival-rate
    /// multipliers), not by the service.
    pub storms: Vec<Episode>,
}

impl ServiceFaultPlan {
    /// The canonical injected-storm scenario `crowd_load --overload`
    /// runs: a slow-fsync episode, a request storm, and a one-shard
    /// stuck-fsync stall, with quiet recovery room after each.
    pub fn storm_scenario(seed: u64) -> Self {
        ServiceFaultPlan {
            seed,
            fsync_episodes: vec![
                // Slow fsync: every write costs several nominal quanta.
                Episode {
                    start_us: 40_000,
                    end_us: 80_000,
                    amount: 2_500,
                },
            ],
            shard_stalls: vec![
                // One shard's fsyncs get stuck: cost far above drain rate.
                ShardStall {
                    start_us: 150_000,
                    end_us: 175_000,
                    shard: 1,
                    extra_us: 20_000,
                },
            ],
            storms: vec![
                // Request storm: clients arrive 8x faster.
                Episode {
                    start_us: 95_000,
                    end_us: 125_000,
                    amount: 8,
                },
            ],
        }
    }

    /// Extra modeled service cost for the write with admission sequence
    /// number `seq` hitting `shard` at service time `now_us`. Pure in
    /// `(self, shard, now_us, seq)`.
    fn extra_cost_us(&self, shard: u16, now_us: u64, seq: u64) -> u64 {
        let mut extra = 0u64;
        for (i, e) in self.fsync_episodes.iter().enumerate() {
            if e.covers(now_us) {
                // Deterministic per-write spread of ±25% around the
                // episode amplitude keeps costs from being lockstep.
                let spread = (e.amount / 2).max(1);
                let jitter = splitmix64(self.seed ^ seq ^ ((i as u64) << 32)) % spread;
                extra += e.amount - spread / 2 + jitter;
            }
        }
        for s in &self.shard_stalls {
            if s.shard == shard && now_us >= s.start_us && now_us < s.end_us {
                extra += s.extra_us;
            }
        }
        extra
    }

    /// Arrival-rate multiplier for a client issuing at `now_us` (1 when
    /// no storm covers the instant).
    pub fn storm_multiplier(&self, now_us: u64) -> u64 {
        self.storms
            .iter()
            .filter(|e| e.covers(now_us))
            .map(|e| e.amount.max(1))
            .max()
            .unwrap_or(1)
    }

    /// The service time by which every injected episode has ended.
    pub fn quiet_after_us(&self) -> u64 {
        let fsync = self.fsync_episodes.iter().map(|e| e.end_us).max();
        let stall = self.shard_stalls.iter().map(|s| s.end_us).max();
        let storm = self.storms.iter().map(|e| e.end_us).max();
        fsync
            .into_iter()
            .chain(stall)
            .chain(storm)
            .max()
            .unwrap_or(0)
    }
}

/// Degradation-ladder states for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// Under pressure: reads may be answered from epoch-stamped stale
    /// cache entries (marked `stale_served`), writes still admitted.
    Degraded,
    /// Saturated: non-essential writes are shed with a typed
    /// `Overloaded`; checkpoint blobs are still admitted.
    Shedding,
}

impl HealthState {
    /// Stable lowercase name used in journals.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Shedding => "shedding",
        }
    }

    fn level(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Shedding => 2,
        }
    }

    fn from_level(level: u8) -> Self {
        match level {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Shedding,
        }
    }
}

/// Per-shard health state machine with hysteresis: the ladder moves one
/// rung at a time, and only after `enter_after` consecutive observations
/// above the rung (escalate) or `exit_after` consecutive observations
/// below it (recover). One noisy sample never flips state.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    state: HealthState,
    hot: u32,
    cool: u32,
}

impl Default for ShardHealth {
    fn default() -> Self {
        ShardHealth {
            state: HealthState::Healthy,
            hot: 0,
            cool: 0,
        }
    }
}

impl ShardHealth {
    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Feed one observation (queue depth + modeled write cost). Returns
    /// `Some((from, to))` when the ladder moved.
    pub fn observe(
        &mut self,
        depth: usize,
        cost_us: u64,
        cfg: &OverloadConfig,
    ) -> Option<(HealthState, HealthState)> {
        let severity = if depth >= cfg.queue_limit || cost_us >= cfg.fsync_stuck_us {
            2u8
        } else if depth >= cfg.degrade_depth || cost_us >= cfg.fsync_slow_us {
            1
        } else {
            0
        };
        let level = self.state.level();
        match severity.cmp(&level) {
            std::cmp::Ordering::Greater => {
                self.hot += 1;
                self.cool = 0;
                if self.hot >= cfg.enter_after {
                    self.hot = 0;
                    let from = self.state;
                    self.state = HealthState::from_level(level + 1);
                    return Some((from, self.state));
                }
            }
            std::cmp::Ordering::Less => {
                self.cool += 1;
                self.hot = 0;
                if self.cool >= cfg.exit_after {
                    self.cool = 0;
                    let from = self.state;
                    self.state = HealthState::from_level(level - 1);
                    return Some((from, self.state));
                }
            }
            std::cmp::Ordering::Equal => {
                self.hot = 0;
                self.cool = 0;
            }
        }
        None
    }
}

/// Overload-control knobs for a `CrowdService`. `None` on the service
/// config means no admission control at all (the pre-overload behavior,
/// byte-for-byte).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Bounded per-shard virtual write-queue depth; a write arriving at a
    /// full queue is shed.
    pub queue_limit: usize,
    /// Global in-flight budget across all shards.
    pub inflight_limit: u64,
    /// Nominal modeled service cost per write, microseconds.
    pub base_service_us: u64,
    /// Queue depth at which a shard starts counting toward Degraded.
    pub degrade_depth: usize,
    /// Modeled write cost at which a shard starts counting toward
    /// Degraded (a "slow fsync"), microseconds.
    pub fsync_slow_us: u64,
    /// Modeled write cost treated as a stuck fsync (counts toward
    /// Shedding), microseconds.
    pub fsync_stuck_us: u64,
    /// Consecutive hot observations before escalating one rung.
    pub enter_after: u32,
    /// Consecutive cool observations before recovering one rung.
    pub exit_after: u32,
    /// Backoff suggestion carried in `Overloaded` errors, milliseconds.
    pub retry_after_ms: u64,
    /// Record every admission decision into an outcome log for twin-run
    /// fingerprinting.
    pub log_outcomes: bool,
    /// Injected service-level faults (slow/stuck fsync, shard stalls).
    pub plan: Option<ServiceFaultPlan>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_limit: 64,
            inflight_limit: 512,
            base_service_us: 200,
            degrade_depth: 16,
            fsync_slow_us: 2_000,
            fsync_stuck_us: 15_000,
            enter_after: 3,
            exit_after: 8,
            retry_after_ms: 5,
            log_outcomes: false,
            plan: None,
        }
    }
}

/// What admission decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitVerdict {
    /// Admitted; the modeled completion time is in the outcome.
    Admitted,
    /// Shed with `Overloaded { retry_after }`.
    Shed,
    /// Rejected with `DeadlineExceeded`.
    Deadline,
}

impl AdmitVerdict {
    fn code(self) -> u8 {
        match self {
            AdmitVerdict::Admitted => 0,
            AdmitVerdict::Shed => 1,
            AdmitVerdict::Deadline => 2,
        }
    }
}

/// One logged admission decision (twin-run fingerprint material).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadOutcome {
    /// Admission sequence number (order of decisions).
    pub seq: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Shard the request targeted.
    pub shard: u16,
    /// Service time at the decision, microseconds.
    pub arrival_us: u64,
    /// Modeled completion time for admitted requests, 0 otherwise.
    pub completion_us: u64,
    /// Queue depth observed at the decision.
    pub depth: u32,
    /// The decision.
    pub verdict: AdmitVerdict,
}

/// FNV-1a fingerprint over an outcome log; equal logs ⇒ equal fingerprints,
/// and the fields cover everything the simulation decides.
fn fingerprint_outcomes(outcomes: &[OverloadOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        fold(o.seq);
        fold(o.op.as_str().len() as u64 ^ ((o.op.as_str().as_bytes()[0] as u64) << 8));
        fold(o.shard as u64);
        fold(o.arrival_us);
        fold(o.completion_us);
        fold(o.depth as u64);
        fold(o.verdict.code() as u64);
    }
    h
}

/// Virtual load state for one shard: completion times of admitted writes
/// still "in service" on the service clock, plus the health machine.
struct ShardLoad {
    completions: VecDeque<u64>,
    busy_until_us: u64,
    health: ShardHealth,
}

/// The overload controller a `CrowdService` consults before touching any
/// state. All bookkeeping is on the service clock, an atomic the load
/// driver advances, so every decision is a pure function of
/// `(config, schedule)`.
pub struct OverloadState {
    cfg: OverloadConfig,
    sim_now_us: AtomicU64,
    inflight: AtomicU64,
    admit_seq: AtomicU64,
    shards: Vec<Mutex<ShardLoad>>,
    outcomes: Mutex<Vec<OverloadOutcome>>,
}

impl OverloadState {
    /// Build the controller for `shards` shards.
    pub fn new(cfg: OverloadConfig, shards: usize) -> Self {
        OverloadState {
            cfg,
            sim_now_us: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            admit_seq: AtomicU64::new(0),
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(ShardLoad {
                        completions: VecDeque::new(),
                        busy_until_us: 0,
                        health: ShardHealth::default(),
                    })
                })
                .collect(),
            outcomes: Mutex::new(Vec::new()),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Current service time, microseconds: the simulated clock the load
    /// driver advances with [`OverloadState::set_now_us`].
    pub fn now_us(&self) -> u64 {
        self.sim_now_us.load(Ordering::Acquire)
    }

    /// Advance the simulated service clock (monotone; lagging calls are
    /// ignored so replays can't run time backwards).
    pub fn set_now_us(&self, now_us: u64) {
        self.sim_now_us.fetch_max(now_us, Ordering::AcqRel);
    }

    /// Pop completed writes off a shard's virtual queue.
    fn drain(&self, load: &mut ShardLoad, now_us: u64) {
        while let Some(&c) = load.completions.front() {
            if c <= now_us {
                load.completions.pop_front();
                self.inflight.fetch_sub(1, Ordering::AcqRel);
            } else {
                break;
            }
        }
    }

    fn log_outcome(&self, outcome: OverloadOutcome) {
        if self.cfg.log_outcomes {
            self.outcomes.lock().push(outcome);
        }
    }

    fn journal_shed(
        &self,
        op: OpKind,
        shard: u16,
        reason: &str,
        retry_after_ms: u64,
        depth: usize,
    ) {
        obs::record_with(|| obs::Event::Shed {
            op: op.as_str().to_string(),
            shard: shard as u64,
            reason: reason.to_string(),
            retry_after_ms,
            queue_depth: depth as u64,
        });
    }

    /// The admission decision for one write-path request. On `Ok` the
    /// write was admitted into the virtual queue (and the caller proceeds
    /// to apply + WAL); on `Err` the caller must return the typed error
    /// *without touching any state*. Checkpoint blobs are always
    /// admitted. Records the `admission` trace stage against `ctx`.
    pub fn admit_write(&self, sidx: usize, ctx: &RequestCtx) -> Result<(), StoreError> {
        let stage_start = ctx.begin();
        let now = self.now_us();
        let seq = self.admit_seq.fetch_add(1, Ordering::AcqRel);
        let mut load = self.shards[sidx % self.shards.len()].lock();
        self.drain(&mut load, now);
        let depth = load.completions.len();
        obs::count(obs::names::CTR_DB_ADMISSIONS, 1);
        obs::observe(obs::names::HIST_DB_QUEUE_DEPTH, depth as u64);

        let essential = ctx.op == OpKind::Blob;
        if !essential {
            let reason = if load.health.state() == HealthState::Shedding {
                Some("shedding")
            } else if depth >= self.cfg.queue_limit {
                Some("queue_full")
            } else if self.inflight.load(Ordering::Acquire) >= self.cfg.inflight_limit {
                Some("inflight_budget")
            } else {
                None
            };
            if let Some(reason) = reason {
                let retry_after_ms = self.cfg.retry_after_ms;
                obs::count(obs::names::CTR_DB_SHED, 1);
                self.journal_shed(ctx.op, sidx as u16, reason, retry_after_ms, depth);
                self.log_outcome(OverloadOutcome {
                    seq,
                    op: ctx.op,
                    shard: sidx as u16,
                    arrival_us: now,
                    completion_us: 0,
                    depth: depth as u32,
                    verdict: AdmitVerdict::Shed,
                });
                drop(load);
                ctx.record(TraceStage::Admission, sidx as u16, stage_start);
                return Err(StoreError::Overloaded { retry_after_ms });
            }
        }

        // Modeled service cost for this write, including injected faults.
        let mut cost = self.cfg.base_service_us;
        if let Some(plan) = &self.cfg.plan {
            cost += plan.extra_cost_us(sidx as u16, now, seq);
        }
        let start = now.max(load.busy_until_us);
        let completion = start + cost;

        // Deadline check before any effect: if the modeled completion
        // misses the deadline, fail typed now instead of holding locks.
        if ctx.deadline_us != 0 && completion > ctx.deadline_us {
            obs::count(obs::names::CTR_DB_DEADLINE_EXCEEDED, 1);
            self.journal_shed(ctx.op, sidx as u16, "deadline", 0, depth);
            self.log_outcome(OverloadOutcome {
                seq,
                op: ctx.op,
                shard: sidx as u16,
                arrival_us: now,
                completion_us: 0,
                depth: depth as u32,
                verdict: AdmitVerdict::Deadline,
            });
            drop(load);
            ctx.record(TraceStage::Admission, sidx as u16, stage_start);
            return Err(StoreError::DeadlineExceeded);
        }

        load.completions.push_back(completion);
        load.busy_until_us = completion;
        self.inflight.fetch_add(1, Ordering::AcqRel);
        if let Some((from, to)) = load.health.observe(depth + 1, cost, &self.cfg) {
            obs::record_with(|| obs::Event::Health {
                shard: sidx as u64,
                from: from.as_str().to_string(),
                to: to.as_str().to_string(),
                queue_depth: (depth + 1) as u64,
            });
        }
        self.log_outcome(OverloadOutcome {
            seq,
            op: ctx.op,
            shard: sidx as u16,
            arrival_us: now,
            completion_us: completion,
            depth: depth as u32,
            verdict: AdmitVerdict::Admitted,
        });
        drop(load);
        ctx.record(TraceStage::Admission, sidx as u16, stage_start);
        Ok(())
    }

    /// Deadline check for the read path: an already-expired request fails
    /// typed before the cache is probed, so `DeadlineExceeded` responses
    /// can never populate (or invalidate) the query cache.
    pub fn check_read_deadline(&self, sidx: usize, ctx: &RequestCtx) -> Result<(), StoreError> {
        if ctx.deadline_us == 0 {
            return Ok(());
        }
        let now = self.now_us();
        if ctx.expired_at(now) {
            obs::count(obs::names::CTR_DB_DEADLINE_EXCEEDED, 1);
            self.journal_shed(ctx.op, sidx as u16, "deadline", 0, 0);
            if self.cfg.log_outcomes {
                let seq = self.admit_seq.fetch_add(1, Ordering::AcqRel);
                self.log_outcome(OverloadOutcome {
                    seq,
                    op: ctx.op,
                    shard: sidx as u16,
                    arrival_us: now,
                    completion_us: 0,
                    depth: 0,
                    verdict: AdmitVerdict::Deadline,
                });
            }
            return Err(StoreError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Whether reads on `sidx` may be served from epoch-stamped stale
    /// cache entries (the shard is Degraded or worse).
    pub fn serve_stale(&self, sidx: usize) -> bool {
        self.shards[sidx % self.shards.len()].lock().health.state() >= HealthState::Degraded
    }

    /// Health snapshot across shards (drains each queue to `now` first,
    /// so a quiescent service reports its settled state).
    pub fn health_snapshot(&self) -> Vec<HealthState> {
        let now = self.now_us();
        self.shards
            .iter()
            .map(|s| {
                let mut load = s.lock();
                self.drain(&mut load, now);
                load.health.state()
            })
            .collect()
    }

    /// Feed one idle observation per shard (used by recovery probes: a
    /// quiesced shard cools back down the ladder without new writes).
    pub fn observe_idle(&self) {
        let now = self.now_us();
        for (sidx, s) in self.shards.iter().enumerate() {
            let mut load = s.lock();
            self.drain(&mut load, now);
            let depth = load.completions.len();
            if let Some((from, to)) = load.health.observe(depth, 0, &self.cfg) {
                obs::record_with(|| obs::Event::Health {
                    shard: sidx as u64,
                    from: from.as_str().to_string(),
                    to: to.as_str().to_string(),
                    queue_depth: depth as u64,
                });
            }
        }
    }

    /// Clone of the outcome log (empty unless `log_outcomes`).
    pub fn outcomes(&self) -> Vec<OverloadOutcome> {
        self.outcomes.lock().clone()
    }

    /// FNV fingerprint of the outcome log — the twin-run identity check.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_outcomes(&self.outcomes.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_cfg() -> OverloadConfig {
        OverloadConfig {
            queue_limit: 4,
            inflight_limit: 100,
            base_service_us: 100,
            degrade_depth: 2,
            fsync_slow_us: 1_000,
            fsync_stuck_us: 10_000,
            enter_after: 2,
            exit_after: 3,
            retry_after_ms: 7,
            log_outcomes: true,
            plan: None,
        }
    }

    fn upload_ctx() -> RequestCtx {
        RequestCtx::disabled(OpKind::Upload)
    }

    #[test]
    fn full_queue_sheds_with_typed_retry_after() {
        let st = OverloadState::new(sim_cfg(), 1);
        st.set_now_us(1_000);
        // queue_limit=4 admissions at the same instant fill the queue...
        for _ in 0..4 {
            assert!(st.admit_write(0, &upload_ctx()).is_ok());
        }
        // ...and the fifth is shed, typed, with the configured hint.
        match st.admit_write(0, &upload_ctx()) {
            Err(StoreError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Advancing past the modeled completions drains the queue.
        st.set_now_us(10_000);
        assert!(st.admit_write(0, &upload_ctx()).is_ok());
        let outs = st.outcomes();
        assert_eq!(outs.len(), 6);
        assert_eq!(outs[4].verdict, AdmitVerdict::Shed);
    }

    #[test]
    fn blobs_are_always_admitted() {
        let st = OverloadState::new(sim_cfg(), 1);
        st.set_now_us(1_000);
        for _ in 0..4 {
            st.admit_write(0, &upload_ctx()).unwrap();
        }
        assert!(st.admit_write(0, &upload_ctx()).is_err());
        let blob = RequestCtx::disabled(OpKind::Blob);
        assert!(st.admit_write(0, &blob).is_ok(), "checkpoint blobs pass");
    }

    #[test]
    fn unmeetable_deadline_fails_typed_before_any_effect() {
        let st = OverloadState::new(sim_cfg(), 1);
        st.set_now_us(1_000);
        // Two writes queue 200us of work; a 50us deadline can't be met.
        st.admit_write(0, &upload_ctx()).unwrap();
        st.admit_write(0, &upload_ctx()).unwrap();
        let ctx = upload_ctx().with_deadline_us(1_050);
        assert!(matches!(
            st.admit_write(0, &ctx),
            Err(StoreError::DeadlineExceeded)
        ));
        // A generous deadline is met.
        let ctx = upload_ctx().with_deadline_us(5_000);
        assert!(st.admit_write(0, &ctx).is_ok());
    }

    #[test]
    fn health_ladder_escalates_and_recovers_with_hysteresis() {
        let cfg = sim_cfg();
        let mut h = ShardHealth::default();
        // One hot sample is not enough (enter_after=2)...
        assert!(h.observe(3, 0, &cfg).is_none());
        assert_eq!(h.state(), HealthState::Healthy);
        // ...the second escalates to Degraded.
        let t = h.observe(3, 0, &cfg).unwrap();
        assert_eq!(t, (HealthState::Healthy, HealthState::Degraded));
        // Stuck-fsync severity climbs toward Shedding.
        assert!(h.observe(3, 20_000, &cfg).is_none());
        let t = h.observe(3, 20_000, &cfg).unwrap();
        assert_eq!(t, (HealthState::Degraded, HealthState::Shedding));
        // Recovery needs exit_after=3 consecutive cool samples per rung.
        for _ in 0..2 {
            assert!(h.observe(0, 0, &cfg).is_none());
        }
        let t = h.observe(0, 0, &cfg).unwrap();
        assert_eq!(t, (HealthState::Shedding, HealthState::Degraded));
        for _ in 0..2 {
            assert!(h.observe(0, 0, &cfg).is_none());
        }
        let t = h.observe(0, 0, &cfg).unwrap();
        assert_eq!(t, (HealthState::Degraded, HealthState::Healthy));
    }

    #[test]
    fn fault_plan_is_a_pure_function_of_its_inputs() {
        let a = ServiceFaultPlan::storm_scenario(42);
        let b = ServiceFaultPlan::storm_scenario(42);
        for seq in 0..200u64 {
            for now in [0u64, 45_000, 60_000, 100_000, 160_000] {
                assert_eq!(
                    a.extra_cost_us(1, now, seq),
                    b.extra_cost_us(1, now, seq),
                    "twin plans diverge at now={now} seq={seq}"
                );
            }
        }
        assert_eq!(a.extra_cost_us(0, 0, 0), 0, "quiet time costs nothing");
        assert!(a.extra_cost_us(0, 45_000, 0) > 0, "slow episode costs");
        assert!(
            a.extra_cost_us(1, 160_000, 0) >= 20_000,
            "stall pins shard 1"
        );
        assert_eq!(a.extra_cost_us(0, 160_000, 0), 0, "stall spares shard 0");
        assert_eq!(a.storm_multiplier(100_000), 8);
        assert_eq!(a.storm_multiplier(10_000), 1);
        assert_eq!(a.quiet_after_us(), 175_000);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let b = Backoff {
            base_ms: 10,
            multiplier: 2.0,
            cap_ms: 100,
            jitter: 0.0,
            seed: 1,
        };
        assert_eq!(b.delay_ms(1), 10);
        assert_eq!(b.delay_ms(2), 20);
        assert_eq!(b.delay_ms(4), 80);
        assert_eq!(b.delay_ms(5), 100, "capped");
        assert_eq!(b.delay_ms(63), 100, "still capped far out");
        let j = Backoff {
            jitter: 0.5,
            ..b.clone()
        };
        let d1 = j.delay_ms(3);
        let d2 = j.delay_ms(3);
        assert_eq!(d1, d2, "seeded jitter is deterministic");
        assert!(
            (20..=40).contains(&d1),
            "jitter subtracts at most half: {d1}"
        );
    }

    #[test]
    fn outcome_fingerprints_distinguish_different_histories() {
        let base = OverloadOutcome {
            seq: 0,
            op: OpKind::Upload,
            shard: 0,
            arrival_us: 100,
            completion_us: 300,
            depth: 1,
            verdict: AdmitVerdict::Admitted,
        };
        let a = [base];
        let b = [OverloadOutcome {
            verdict: AdmitVerdict::Shed,
            completion_us: 0,
            ..base
        }];
        assert_eq!(fingerprint_outcomes(&a), fingerprint_outcomes(&a));
        assert_ne!(fingerprint_outcomes(&a), fingerprint_outcomes(&b));
    }
}
