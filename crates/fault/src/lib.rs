//! Deterministic fault injection and failure-recovery plumbing.
//!
//! A [`FaultPlan`] is pure data: every fault it describes happens at a
//! fixed simulation time, decided before the run starts. The cluster
//! applies the plan **only at arrival barriers** — fault times become
//! synthetic barriers, exactly like control ticks — so the coordinator is
//! the only actor that ever mutates replica state, and the sequential
//! and pooled epoch executors stay byte-identical under any plan.
//!
//! Four fault shapes are modeled:
//!
//! * **Crash** ([`CrashFault`]) — fail-stop at time *t*: the replica
//!   loses all resident KV and every in-flight stream, stops billing,
//!   and never serves again.
//! * **Straggler** ([`WindowFault`] in `stragglers`) — a throughput
//!   multiplier over a window: every engine iteration inside the window
//!   is stretched by `1/factor`.
//! * **KV-link fault** ([`WindowFault`] in `kv_link`) — a bandwidth
//!   multiplier over a window: every evict/load transfer *enqueued*
//!   inside the window pays `1/factor` on the PCIe cost model.
//! * **Boot failure** (`boot_failures`) — a provisioning replica that
//!   never becomes Active: the control plane marks it Failed at its
//!   ready time instead of promoting it.
//!
//! Recovery is driven by the [`FaultDriver`]: when a crash loses
//! requests, each lost request is charged one attempt against the
//! [`RetryPolicy`] and either re-queued at `now + backoff(attempt)` (a
//! future synthetic barrier) or abandoned once its budget is exhausted.
//! Backoff is exponential in *simulation* time, so recovery is as
//! deterministic as the faults themselves.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::RequestSpec;

/// A fail-stop replica crash at a fixed simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// Replica index (cluster submission order / provisioning ordinal).
    pub replica: usize,
    /// When the replica fails.
    pub at: SimTime,
}

/// A degradation window: the replica (or its host link) runs at
/// `factor` of its healthy throughput between `from` and `until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFault {
    /// Replica index.
    pub replica: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive; the replica is healthy again from here).
    pub until: SimTime,
    /// Throughput multiplier in `(0, 1]` — 0.5 means half speed.
    pub factor: f64,
}

/// Bounded, deterministic exponential backoff for crash recovery.
///
/// A request lost to its `k`-th crash (1-based) is re-queued after
/// `min(base_backoff × multiplier^(k-1), max_backoff)` of simulation
/// time, for at most `max_attempts` retries; the next loss abandons it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries granted per request before it is abandoned.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Exponential growth factor (≥ 1) between consecutive retries.
    pub multiplier: f64,
    /// Ceiling on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(500),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(8),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "attempts are 1-based");
        let scaled = self
            .base_backoff
            .mul_f64(self.multiplier.powi(attempt as i32 - 1));
        scaled.min(self.max_backoff)
    }
}

/// The full fault schedule of one run. Pure data; see the module docs
/// for the barrier-aligned application contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Fail-stop crashes.
    pub crashes: Vec<CrashFault>,
    /// Compute-degradation windows (stragglers).
    pub stragglers: Vec<WindowFault>,
    /// KV-link (PCIe) degradation windows.
    pub kv_link: Vec<WindowFault>,
    /// Provisioning ordinals that fail to boot. Ordinal `i` is the
    /// replica at fleet index `i`: for a static cluster that is the
    /// initial replica, for an elastic fleet it also covers replicas
    /// provisioned later at that index.
    pub boot_failures: Vec<usize>,
    /// How lost requests are re-queued.
    pub retry: RetryPolicy,
    /// Admission shed threshold: when `Σ active rate / (active × Γ)`
    /// exceeds this at a dispatch barrier, first-attempt arrivals are
    /// rejected instead of admitted (retries always pass). `None`
    /// disables shedding.
    pub shed_utilization: Option<f64>,
}

impl FaultPlan {
    /// True when the plan can never perturb a run: no faults and no shed
    /// threshold. The cluster treats an empty plan exactly like no plan
    /// at all, which is what keeps a fault-free `FaultSpec` from moving
    /// any pinned golden digest.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.stragglers.is_empty()
            && self.kv_link.is_empty()
            && self.boot_failures.is_empty()
            && self.shed_utilization.is_none()
    }

    /// Largest replica index the plan references, if any.
    pub fn max_replica(&self) -> Option<usize> {
        let windows = self
            .stragglers
            .iter()
            .chain(&self.kv_link)
            .map(|w| w.replica);
        self.crashes
            .iter()
            .map(|c| c.replica)
            .chain(windows)
            .chain(self.boot_failures.iter().copied())
            .max()
    }
}

/// One coordinator-side action on the fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Fail-stop the replica, losing its residents.
    Crash {
        /// Replica index.
        replica: usize,
    },
    /// Set the replica's compute slowdown (1.0 restores full speed).
    SetCompute {
        /// Replica index.
        replica: usize,
        /// Iteration-time multiplier (≥ 1, or exactly 1 to restore).
        slowdown: f64,
    },
    /// Set the replica's KV-link slowdown (1.0 restores full speed).
    SetLink {
        /// Replica index.
        replica: usize,
        /// Transfer-time multiplier (≥ 1, or exactly 1 to restore).
        slowdown: f64,
    },
}

/// The verdict on one lost request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryVerdict {
    /// Re-queued: redispatch at `due` (attempt number is 1-based).
    Retry {
        /// When the retry becomes dispatchable.
        due: SimTime,
        /// Which attempt this is (1-based).
        attempt: u32,
    },
    /// Budget exhausted: the request is abandoned.
    Abandon {
        /// Retries that were attempted before giving up.
        attempts: u32,
    },
}

/// A re-queued lost request waiting for its backoff to elapse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingRetry {
    /// When the retry becomes dispatchable.
    pub due: SimTime,
    /// Cluster-global request id.
    pub global: u64,
    /// Which attempt this is (1-based).
    pub attempt: u32,
    /// The original spec (retries re-prefill from scratch; the original
    /// arrival time is kept so TTFT honestly includes the disruption).
    pub spec: RequestSpec,
}

/// Counters the driver accumulates while a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultTally {
    /// Crash actions applied to live replicas.
    pub crashes: u64,
    /// Requests lost to crashes (loss events, counting repeats).
    pub lost_events: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// First-attempt arrivals rejected by shed mode.
    pub shed: u64,
}

/// Runtime state of one fault plan: the presorted action timeline, the
/// retry queue, and per-request recovery bookkeeping. Owned by the
/// cluster coordinator; all mutation happens at barriers.
#[derive(Debug)]
pub struct FaultDriver {
    plan: FaultPlan,
    /// `(time, seq, action)` sorted by time then construction order, so
    /// same-instant actions apply in a fixed order.
    actions: Vec<(SimTime, u32, FaultAction)>,
    cursor: usize,
    /// Pending retries sorted by `(due, global)`.
    retries: Vec<PendingRetry>,
    /// Per-global-request loss count. A `BTreeMap` so that
    /// [`FaultDriver::lost_requests`] iterates in key order — iterating
    /// a hash map here would be an order hazard the `audit` unordered-
    /// iteration pass rejects.
    attempts: BTreeMap<u64, u32>,
    /// When each retried request was first lost (recovery latency base).
    first_lost: BTreeMap<u64, SimTime>,
    /// Loss/abandon/shed counters.
    pub tally: FaultTally,
}

impl FaultDriver {
    /// Builds the driver, expanding the plan into a sorted action
    /// timeline (window faults become a set-at-`from` / restore-at-
    /// `until` action pair).
    pub fn new(plan: FaultPlan) -> FaultDriver {
        let mut actions: Vec<(SimTime, u32, FaultAction)> = Vec::new();
        let mut seq = 0u32;
        let mut push = |actions: &mut Vec<(SimTime, u32, FaultAction)>, at, action| {
            actions.push((at, seq, action));
            seq += 1;
        };
        for c in &plan.crashes {
            push(
                &mut actions,
                c.at,
                FaultAction::Crash { replica: c.replica },
            );
        }
        for w in &plan.stragglers {
            let slowdown = 1.0 / w.factor;
            push(
                &mut actions,
                w.from,
                FaultAction::SetCompute {
                    replica: w.replica,
                    slowdown,
                },
            );
            push(
                &mut actions,
                w.until,
                FaultAction::SetCompute {
                    replica: w.replica,
                    slowdown: 1.0,
                },
            );
        }
        for w in &plan.kv_link {
            let slowdown = 1.0 / w.factor;
            push(
                &mut actions,
                w.from,
                FaultAction::SetLink {
                    replica: w.replica,
                    slowdown,
                },
            );
            push(
                &mut actions,
                w.until,
                FaultAction::SetLink {
                    replica: w.replica,
                    slowdown: 1.0,
                },
            );
        }
        actions.sort_by_key(|&(at, seq, _)| (at, seq));
        FaultDriver {
            plan,
            actions,
            cursor: 0,
            retries: Vec::new(),
            attempts: BTreeMap::new(),
            first_lost: BTreeMap::new(),
            tally: FaultTally::default(),
        }
    }

    /// The plan this driver executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Earliest unapplied action time, if any.
    pub fn next_action_time(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|&(at, _, _)| at)
    }

    /// Earliest pending retry's due time, if any.
    pub fn next_retry_due(&self) -> Option<SimTime> {
        self.retries.first().map(|r| r.due)
    }

    /// True while any retry is waiting for its backoff — the run cannot
    /// quiesce until these are dispatched.
    pub fn has_pending_retries(&self) -> bool {
        !self.retries.is_empty()
    }

    /// Pops every action due at or before `now`, in timeline order.
    pub fn due_actions(&mut self, now: SimTime) -> Vec<(SimTime, FaultAction)> {
        let mut due = Vec::new();
        while let Some(&(at, _, action)) = self.actions.get(self.cursor) {
            if at > now {
                break;
            }
            due.push((at, action));
            self.cursor += 1;
        }
        due
    }

    /// Charges one loss against `global`'s retry budget: either schedules
    /// a retry (insert into the due queue, return its due time) or
    /// abandons the request.
    pub fn on_lost(&mut self, global: u64, spec: RequestSpec, now: SimTime) -> RetryVerdict {
        self.tally.lost_events += 1;
        self.first_lost.entry(global).or_insert(now);
        let attempt = {
            let a = self.attempts.entry(global).or_insert(0);
            *a += 1;
            *a
        };
        if attempt > self.plan.retry.max_attempts {
            self.tally.abandoned += 1;
            return RetryVerdict::Abandon {
                attempts: attempt - 1,
            };
        }
        let due = now.saturating_add(self.plan.retry.backoff(attempt));
        let entry = PendingRetry {
            due,
            global,
            attempt,
            spec,
        };
        let pos = self
            .retries
            .partition_point(|r| (r.due, r.global) <= (due, global));
        self.retries.insert(pos, entry);
        RetryVerdict::Retry { due, attempt }
    }

    /// Re-queues a retry whose due barrier found no dispatchable replica:
    /// it burns one more attempt and backs off again from `now`, or is
    /// abandoned. Deterministic and stall-free — the run never blocks on
    /// capacity that may not return.
    pub fn on_undispatchable(&mut self, retry: PendingRetry, now: SimTime) -> RetryVerdict {
        self.on_lost(retry.global, retry.spec, now)
    }

    /// Records one shed arrival.
    pub fn on_shed(&mut self) {
        self.tally.shed += 1;
    }

    /// Pops every retry due at or before `now`, in `(due, global)` order.
    pub fn due_retries(&mut self, now: SimTime) -> Vec<PendingRetry> {
        let n = self.retries.partition_point(|r| r.due <= now);
        self.retries.drain(..n).collect()
    }

    /// Total retry attempts charged to `global` so far.
    pub fn attempts_of(&self, global: u64) -> u32 {
        self.attempts.get(&global).copied().unwrap_or(0)
    }

    /// When `global` was first lost, if it ever was.
    pub fn first_lost_at(&self, global: u64) -> Option<SimTime> {
        self.first_lost.get(&global).copied()
    }

    /// Every request that was ever lost, as `(global, attempts,
    /// first_lost_at)` sorted by global id (deterministic report order —
    /// `attempts` is a `BTreeMap`, so iteration *is* key order).
    pub fn lost_requests(&self) -> Vec<(u64, u32, SimTime)> {
        self.attempts
            .iter()
            .map(|(&g, &a)| (g, a, self.first_lost[&g]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::RequestId;

    fn spec(global: u64) -> RequestSpec {
        RequestSpec {
            id: RequestId(global),
            arrival: SimTime::ZERO,
            prompt_tokens: 64,
            output_tokens: 32,
            rate: 15.0,
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_secs(1),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(5),
        };
        assert_eq!(p.backoff(1), SimDuration::from_secs(1));
        assert_eq!(p.backoff(2), SimDuration::from_secs(2));
        assert_eq!(p.backoff(3), SimDuration::from_secs(4));
        // 8 s would exceed the cap.
        assert_eq!(p.backoff(4), SimDuration::from_secs(5));
    }

    #[test]
    fn empty_plan_is_empty_and_nonempty_plans_are_not() {
        assert!(FaultPlan::default().is_empty());
        let p = FaultPlan {
            shed_utilization: Some(0.9),
            ..FaultPlan::default()
        };
        assert!(!p.is_empty());
        let mut p = FaultPlan::default();
        p.crashes.push(CrashFault {
            replica: 0,
            at: SimTime::from_secs(1),
        });
        assert!(!p.is_empty());
    }

    #[test]
    fn max_replica_spans_all_fault_kinds() {
        let mut p = FaultPlan::default();
        assert_eq!(p.max_replica(), None);
        p.crashes.push(CrashFault {
            replica: 1,
            at: SimTime::ZERO,
        });
        p.kv_link.push(WindowFault {
            replica: 4,
            from: SimTime::ZERO,
            until: SimTime::from_secs(1),
            factor: 0.5,
        });
        p.boot_failures.push(2);
        assert_eq!(p.max_replica(), Some(4));
    }

    #[test]
    fn timeline_expands_windows_and_sorts_by_time() {
        let mut plan = FaultPlan::default();
        plan.stragglers.push(WindowFault {
            replica: 0,
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(9),
            factor: 0.25,
        });
        plan.crashes.push(CrashFault {
            replica: 1,
            at: SimTime::from_secs(7),
        });
        let mut d = FaultDriver::new(plan);
        assert_eq!(d.next_action_time(), Some(SimTime::from_secs(5)));
        let due = d.due_actions(SimTime::from_secs(7));
        assert_eq!(due.len(), 2);
        assert_eq!(
            due[0].1,
            FaultAction::SetCompute {
                replica: 0,
                slowdown: 4.0
            }
        );
        assert_eq!(due[1].1, FaultAction::Crash { replica: 1 });
        // The restore half of the window is still pending.
        assert_eq!(d.next_action_time(), Some(SimTime::from_secs(9)));
        let rest = d.due_actions(SimTime::from_secs(100));
        assert_eq!(
            rest,
            vec![(
                SimTime::from_secs(9),
                FaultAction::SetCompute {
                    replica: 0,
                    slowdown: 1.0
                }
            )]
        );
        assert_eq!(d.next_action_time(), None);
    }

    #[test]
    fn losses_retry_with_backoff_then_abandon() {
        let plan = FaultPlan {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: SimDuration::from_secs(1),
                multiplier: 2.0,
                max_backoff: SimDuration::from_secs(60),
            },
            ..FaultPlan::default()
        };
        let mut d = FaultDriver::new(plan);
        let t0 = SimTime::from_secs(10);
        let v1 = d.on_lost(7, spec(7), t0);
        assert_eq!(
            v1,
            RetryVerdict::Retry {
                due: SimTime::from_secs(11),
                attempt: 1
            }
        );
        assert!(d.has_pending_retries());
        assert_eq!(d.next_retry_due(), Some(SimTime::from_secs(11)));
        let popped = d.due_retries(SimTime::from_secs(11));
        assert_eq!(popped.len(), 1);
        assert_eq!(popped[0].global, 7);
        assert!(!d.has_pending_retries());

        // Second loss backs off 2 s; third exhausts the budget.
        let v2 = d.on_lost(7, spec(7), SimTime::from_secs(12));
        assert_eq!(
            v2,
            RetryVerdict::Retry {
                due: SimTime::from_secs(14),
                attempt: 2
            }
        );
        d.due_retries(SimTime::from_secs(14));
        let v3 = d.on_lost(7, spec(7), SimTime::from_secs(15));
        assert_eq!(v3, RetryVerdict::Abandon { attempts: 2 });
        assert_eq!(d.tally.lost_events, 3);
        assert_eq!(d.tally.abandoned, 1);
        assert_eq!(d.attempts_of(7), 3);
        assert_eq!(d.first_lost_at(7), Some(t0));
        assert_eq!(d.lost_requests(), vec![(7, 3, t0)]);
    }

    #[test]
    fn retry_queue_orders_by_due_then_global() {
        let mut d = FaultDriver::new(FaultPlan::default());
        // Same loss time, same backoff: pops ordered by global id.
        d.on_lost(9, spec(9), SimTime::from_secs(1));
        d.on_lost(3, spec(3), SimTime::from_secs(1));
        let due = d.due_retries(SimTime::from_secs(60));
        let ids: Vec<u64> = due.iter().map(|r| r.global).collect();
        assert_eq!(ids, vec![3, 9]);
    }
}
