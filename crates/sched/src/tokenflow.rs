//! The TokenFlow buffer-aware two-step scheduler (paper §4).
//!
//! Step 1 — **working-set determination** (§4.2.1): a static upper bound
//! `W_static = ⌊M/β⌋` (Eq. 4) from GPU capacity and the observed per-request
//! footprint, shrunk toward the current running count when the system is
//! under-utilised (Eq. 5). Scheduling is time-sliced: the full pass runs
//! every `Δt` and only under stress (pending requests, or a running buffer
//! below the critical threshold); otherwise a prefill-first fast path
//! admits arrivals like FCFS.
//!
//! Step 2 — **buffer balancing** (§4.2.2): every schedulable request gets a
//! priority `U_i = v_i·t′ + γ·φ(b_pred)` where `v_i` is the effective token
//! value at its buffer level, `t′` discounts candidates by their context
//! switch overhead, and `φ(b) = e^{−b}` boosts near-empty buffers. (The
//! paper writes `−γ·φ` while also calling φ a starvation-prevention boost
//! for empty buffers — §4.1/§4.2.2 make the intent unambiguous: smaller
//! buffer ⇒ higher priority — so the boost enters positively here.)
//! A greedy pass fills the working set under the memory budget; a local
//! search then swaps boundary pairs when that improves total utility.
//!
//! §4.2.3 — resumed requests pick the cheaper of reloading
//! (`t_IO = queueing + transfer`) and recomputation (sliding-window prefill
//! estimate). §4.3 — the working set's aggregate demand is capped at the
//! profiled capacity (`Σ rᵢ ≤ Γ` enforced during selection); excess
//! requests stay queued in arrival order, which is exactly the graceful
//! FCFS degradation the paper describes.

use tokenflow_sim::{RequestId, SimDuration, SimTime};

use crate::api::{
    Action, PlanHorizon, PlanNote, PreemptMode, PrefillPolicy, ReqPhase, ReqView, SchedContext,
    SchedPlan, Scheduler,
};
use crate::util::{
    admission_cost, fcfs_admissions, largest_buffer_running, quiescent_across_transfers,
    token_value, AdmissionCosting,
};

/// Tunable parameters of the TokenFlow policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenFlowParams {
    /// Rescheduling interval `Δt` (paper sweeps 0.5–1.5 s, Figure 22).
    pub schedule_interval: SimDuration,
    /// Buffer conservativeness `μ ≥ 1`: a preemption victim's buffer must
    /// cover `μ ×` the estimated switch latency (Figure 23 sweeps 1–20).
    pub buffer_conservativeness: f64,
    /// Working-set shrink rate `λ` of Eq. 5.
    pub ws_adjust_rate: f64,
    /// Utility weight `γ` on the empty-buffer boost `φ`.
    pub gamma: f64,
    /// A running buffer below this many seconds triggers an off-interval
    /// scheduling pass (`T_critical`).
    pub critical_buffer_secs: f64,
    /// Decode-growth reserve per admission, tokens.
    pub headroom_tokens: u64,
    /// Memory fill target as a fraction of KV capacity.
    pub util_target: f64,
    /// Cap on preempt/resume transitions issued per pass (I/O-load
    /// awareness, §3.1).
    pub max_transitions: usize,
    /// Defer further evictions when the D2H queue ETA exceeds this fraction
    /// of the schedule interval.
    pub io_backpressure: f64,
    /// Fraction of the estimated capacity Γ that service admission may
    /// commit (§4.3). Rotation and transition overheads make the usable
    /// capacity less than the roofline; admitting right up to Γ converts
    /// the shortfall into reader stalls.
    pub capacity_safety: f64,
    /// Prefill chunk size mixed into decode iterations.
    pub prefill_chunk: u64,
    /// Cap on swap candidates examined per local-search round, `0` =
    /// unbounded (the historical behavior — existing seeded runs are
    /// byte-identical under the default).
    ///
    /// The §4.2.2 local search is the full pass's last super-linear
    /// corner: each round scans every unselected candidate against the
    /// weakest selected member, so thousands of simultaneous candidates
    /// cost O(n²) per pass. The pass sorts its candidates into priority
    /// order before selection, so the top-k swap candidates are a
    /// prefix — no separate heap selection needed —
    /// and a bound of `k` caps a round at O(n + k·|selected|). The cap
    /// is an *approximation*: swap acceptance also requires memory
    /// feasibility, which is not monotone in priority rank, so a
    /// feasible lower-ranked candidate beyond the prefix may be skipped
    /// even though the unbounded scan would have accepted it.
    pub swap_candidates: usize,
}

impl Default for TokenFlowParams {
    fn default() -> Self {
        TokenFlowParams {
            schedule_interval: SimDuration::from_millis(500),
            buffer_conservativeness: 2.0,
            ws_adjust_rate: 0.5,
            gamma: 1.0,
            critical_buffer_secs: 1.0,
            headroom_tokens: 64,
            util_target: 0.92,
            max_transitions: 256,
            io_backpressure: 1.0,
            capacity_safety: 0.8,
            prefill_chunk: 2_048,
            swap_candidates: 0,
        }
    }
}

/// The buffer-aware preemptive scheduler.
///
/// # Examples
///
/// ```
/// use tokenflow_sched::{Scheduler, TokenFlowScheduler};
///
/// let s = TokenFlowScheduler::new();
/// assert_eq!(s.name(), "TokenFlow");
/// ```
#[derive(Debug, Clone)]
pub struct TokenFlowScheduler {
    params: TokenFlowParams,
    last_schedule: Option<SimTime>,
    scratch: PassScratch,
}

#[derive(Debug, Clone)]
struct Candidate {
    id: RequestId,
    phase: ReqPhase,
    priority: f64,
    cost: u64,
    rate: f64,
    elastic: bool,
    arrival: SimTime,
    /// For `WaitingCpu`: whether recompute beats reloading.
    prefer_recompute: bool,
    /// Whether preempting this (running) request is safe for its reader.
    safe_to_preempt: bool,
}

/// Retained working buffers of the full scheduling pass. Everything is
/// cleared and refilled per pass, so repeated passes allocate nothing
/// once the buffers reach the candidate population's high-water mark.
#[derive(Debug, Clone, Default)]
struct PassScratch {
    /// The pass's candidates: built in context (id) order, then sorted in
    /// place into priority order — the working list of the pass.
    candidates: Vec<Candidate>,
    /// The previous traced pass's priorities in id order, which repricing
    /// notes compare against. Refilled only while the context asks for
    /// notes; untraced runs never touch it.
    last_priorities: Vec<(RequestId, f64)>,
    /// `WaitingNew` candidate indices in arrival order.
    new_by_arrival: Vec<usize>,
    /// Candidates denied service by the Σrᵢ ≤ Γ cap this pass.
    rate_blocked: Vec<bool>,
    /// Selected working-set members, in selection order.
    selected: Vec<usize>,
    /// Membership mask mirroring `selected`.
    in_selected: Vec<bool>,
    /// Swap candidates of one local-search round.
    unselected: Vec<usize>,
    /// Admission-bound selected indices, sorted by arrival.
    admits: Vec<usize>,
}

impl TokenFlowScheduler {
    /// Creates the scheduler with default parameters.
    pub fn new() -> Self {
        Self::with_params(TokenFlowParams::default())
    }

    /// Creates the scheduler with explicit parameters.
    pub fn with_params(params: TokenFlowParams) -> Self {
        TokenFlowScheduler {
            params,
            last_schedule: None,
            scratch: PassScratch::default(),
        }
    }

    /// The active parameters.
    pub fn params(&self) -> &TokenFlowParams {
        &self.params
    }

    /// Eq. 4/5: the working-set size for this pass.
    fn working_set_size(&self, ctx: &SchedContext) -> usize {
        // β: observed per-request memory footprint — the *current* context
        // length (the working set overcommits against future growth; the
        // buffer-balancing step reclaims memory as contexts grow).
        let live_n = ctx.requests.len();
        let beta = if live_n == 0 {
            1_024.0
        } else {
            let sum: f64 = ctx.requests.iter().map(|r| r.context_tokens as f64).sum();
            (sum / live_n as f64).max(64.0)
        };
        let m = ctx.gpu_total_tokens as f64 * self.params.util_target;
        let w_static = (m / beta).floor().max(1.0);
        let n_running = ctx.count_phase(ReqPhase::Running) as f64;
        let w = if n_running < w_static {
            w_static - self.params.ws_adjust_rate * (w_static - n_running)
        } else {
            w_static
        };
        (w.ceil() as usize)
            .max(
                ctx.count_phase(ReqPhase::Running)
                    .min(ctx.max_batch as usize),
            )
            .min(ctx.max_batch as usize)
            .max(1)
    }

    /// The per-candidate switch overhead `t_overhead` of the problem
    /// formulation: zero for running requests; `min(t_IO, t_recompute)` for
    /// offloaded ones; the prefill time for new ones.
    fn switch_overhead_secs(r: &ReqView, ctx: &SchedContext) -> f64 {
        match r.phase {
            ReqPhase::Running => 0.0,
            ReqPhase::WaitingCpu => r.load_secs.min(ctx.recompute_secs(r.context_tokens)),
            ReqPhase::WaitingNew => ctx.recompute_secs(r.prompt_tokens),
            ReqPhase::Transitioning => f64::INFINITY,
        }
    }

    /// The priority `U_i` (Eq. 3 with the sign reconciliation documented in
    /// the module header).
    fn utility(&self, r: &ReqView, ctx: &SchedContext) -> f64 {
        let interval = self.params.schedule_interval.as_secs_f64();
        let overhead = Self::switch_overhead_secs(r, ctx);
        // Effective generation share of the next interval.
        let t_eff = ((interval - overhead) / interval).max(0.0);
        // Predicted buffer at the point the request would actually resume
        // generating (b_pred of the formulation): the reader keeps draining
        // during the switch.
        let b_pred = (r.buffered_secs - overhead).max(0.0);
        let phi = if r.elastic && r.started {
            // §8: an agent's reference rate is a static priority signal,
            // not a starvation deadline — it scales a modest boost so
            // agents fill idle capacity and yield first under contention.
            0.2 * (r.rate / 30.0).min(1.0)
        } else if r.started {
            (-b_pred).exp()
        } else {
            // An unstarted request is in the worst state a reader can be
            // in — waiting for the first token — and the QoS TTFT penalty
            // grows linearly with every second it queues. Age its boost so
            // it cannot starve behind resume cycles.
            let waited = ctx.now.saturating_since(r.arrival).as_secs_f64();
            1.0 + 0.05 * waited
        };
        let v = if r.started { token_value(r) } else { 1.0 };
        v * t_eff + self.params.gamma * phi
    }

    /// Whether a running request's reader can absorb a
    /// preempt-resume-reschedule cycle without stalling (§4.2.1 admission
    /// guard): `b_rem ≥ μ · r · (τ_evict + τ_load + τ_sched)`. Agent
    /// clients have no reader to stall and are always safe to preempt.
    fn safe_to_preempt(&self, r: &ReqView) -> bool {
        if r.elastic {
            return true;
        }
        let tau = r.evict_secs + r.load_secs + self.params.schedule_interval.as_secs_f64();
        r.buffered_secs >= self.params.buffer_conservativeness * tau
    }

    fn full_pass(&mut self, ctx: &SchedContext) -> SchedPlan {
        // The scratch moves out for the pass so `self`'s parameter
        // methods stay borrowable; it moves back (with its capacity) at
        // the end.
        let mut sc = std::mem::take(&mut self.scratch);
        let mut notes: Vec<PlanNote> = Vec::new();
        let w_sched = self.working_set_size(ctx);
        // Discount memory already committed to transitioning requests
        // (loads in flight, prompts mid-prefill).
        let committed: u64 = ctx
            .in_phase(ReqPhase::Transitioning)
            .map(|r| r.context_tokens + r.reserved_tokens)
            .sum();
        let budget_total = ((ctx.gpu_total_tokens as f64 * self.params.util_target) as u64)
            .saturating_sub(committed);

        // Build candidates: everything schedulable this pass.
        sc.candidates.clear();
        sc.candidates.extend(
            ctx.requests
                .iter()
                .filter(|r| {
                    matches!(
                        r.phase,
                        ReqPhase::Running | ReqPhase::WaitingNew | ReqPhase::WaitingCpu
                    )
                })
                .map(|r| Candidate {
                    id: r.id,
                    phase: r.phase,
                    priority: self.utility(r, ctx),
                    cost: admission_cost(r, self.params.headroom_tokens),
                    rate: r.rate,
                    elastic: r.elastic,
                    arrival: r.arrival,
                    prefer_recompute: r.phase == ReqPhase::WaitingCpu
                        && ctx.recompute_secs(r.context_tokens) < r.load_secs,
                    safe_to_preempt: r.phase == ReqPhase::Running && self.safe_to_preempt(r),
                }),
        );
        if ctx.trace_notes {
            // Repricing notes: the previous traced pass's priorities and
            // the candidates are both in ascending-id order (candidates
            // follow the id-ordered context), so a merge walk pairs each
            // request's previous-pass priority with its new one.
            let mut last = sc.last_priorities.iter().peekable();
            for c in &sc.candidates {
                while last.next_if(|&&(id, _)| id < c.id).is_some() {}
                if let Some(&(_, before)) = last.next_if(|&&(id, _)| id == c.id) {
                    if before != c.priority {
                        notes.push(PlanNote::Reprice {
                            id: c.id,
                            before,
                            after: c.priority,
                        });
                    }
                }
            }
            sc.last_priorities.clear();
            sc.last_priorities
                .extend(sc.candidates.iter().map(|c| (c.id, c.priority)));
        }
        // Priority order: highest first, ties by arrival, then id. The
        // comparator is a total order (ids are unique), so the unstable
        // in-place sort is deterministic.
        sc.candidates.sort_unstable_by(|a, b| {
            b.priority
                .partial_cmp(&a.priority)
                .expect("priorities are finite")
                .then(a.arrival.cmp(&b.arrival))
                .then(a.id.cmp(&b.id))
        });
        let candidates = &sc.candidates;

        // §4.3 schedulability: the *service set* — every request being
        // actively multiplexed, resident or offloaded — may not demand more
        // aggregate streaming rate than the capacity Γ. New requests enter
        // service only while headroom remains; the excess stays queued in
        // arrival order (graceful FCFS degradation, not collapse). Requests
        // already in service (running, offloaded, transitioning) keep their
        // reservation: evicting them does not release rate, only memory.
        let gamma = ctx.decode_throughput * self.params.capacity_safety;
        let mut service_rate: f64 = ctx
            .requests
            .iter()
            .filter(|r| {
                matches!(
                    r.phase,
                    ReqPhase::Running | ReqPhase::Transitioning | ReqPhase::WaitingCpu
                )
            })
            .map(|r| if r.elastic { 0.25 * r.rate } else { r.rate })
            .sum();
        sc.new_by_arrival.clear();
        sc.new_by_arrival
            .extend((0..candidates.len()).filter(|&i| candidates[i].phase == ReqPhase::WaitingNew));
        sc.new_by_arrival
            .sort_by_key(|&i| (candidates[i].arrival, candidates[i].id));
        sc.rate_blocked.clear();
        sc.rate_blocked.resize(candidates.len(), false);
        for &i in &sc.new_by_arrival {
            // Elastic agents reserve only a sliver of their reference rate:
            // they can be throttled arbitrarily, so they never crowd out
            // interactive admission (§8).
            let reserve = if candidates[i].elastic {
                0.25 * candidates[i].rate
            } else {
                candidates[i].rate
            };
            if service_rate + reserve <= gamma {
                service_rate += reserve;
            } else {
                sc.rate_blocked[i] = true;
            }
        }

        // Pin running requests that cannot be preempted safely: they stay in
        // the working set regardless of rank (preempting them would stall
        // their reader immediately). `selected` keeps selection order (the
        // local search's weakest-member scan depends on it); `in_selected`
        // mirrors it as a mask so membership tests are O(1).
        sc.selected.clear();
        sc.in_selected.clear();
        sc.in_selected.resize(candidates.len(), false);
        let mut used = 0u64;
        let mut slots = w_sched
            .saturating_sub(ctx.count_phase(ReqPhase::Transitioning))
            .max(1);
        for (i, c) in candidates.iter().enumerate() {
            if c.phase == ReqPhase::Running && !c.safe_to_preempt && slots > 0 {
                sc.selected.push(i);
                sc.in_selected[i] = true;
                used += c.cost;
                slots -= 1;
            }
        }
        // Greedy residency fill by priority under the memory and slot
        // budgets (residents generate at full speed in spurts, so rate does
        // not constrain this step).
        for (i, c) in candidates.iter().enumerate() {
            if slots == 0 {
                break;
            }
            if sc.in_selected[i] || sc.rate_blocked[i] {
                continue;
            }
            if used + c.cost > budget_total {
                continue;
            }
            sc.selected.push(i);
            sc.in_selected[i] = true;
            used += c.cost;
            slots -= 1;
        }
        // Local search (§4.2.2): try swapping the lowest-priority selected
        // entries with higher-cost skipped neighbours when the utility gain
        // is positive and memory stays feasible.
        let mut improved = true;
        while improved {
            improved = false;
            sc.unselected.clear();
            sc.unselected.extend(
                (0..candidates.len()).filter(|&i| !sc.in_selected[i] && !sc.rate_blocked[i]),
            );
            // Optional O(n²) cap: `candidates` is in priority order, so
            // the top-k swap candidates are simply the first k unselected
            // entries — the prefix a full scan would try first. This is
            // an approximation, not an equivalence: a candidate beyond
            // the prefix can pass the memory-feasibility check below when
            // every prefix entry fails it, so the bounded round may end
            // without a swap the full scan would have made.
            if self.params.swap_candidates > 0 {
                sc.unselected.truncate(self.params.swap_candidates);
            }
            // Find the weakest swappable selected entry. The selection
            // only changes when a swap succeeds — which ends the round —
            // so the scan is loop-invariant and runs once per round, not
            // once per probe.
            let weakest = sc
                .selected
                .iter()
                .copied()
                .filter(|&i| {
                    // Pinned running requests never swap out.
                    candidates[i].phase != ReqPhase::Running || candidates[i].safe_to_preempt
                })
                .min_by(|&a, &b| {
                    candidates[a]
                        .priority
                        .partial_cmp(&candidates[b].priority)
                        .expect("priorities are finite")
                });
            let Some(i) = weakest else { break };
            for &j in &sc.unselected {
                let gain = candidates[j].priority - candidates[i].priority;
                let new_used = used - candidates[i].cost + candidates[j].cost;
                if gain > 1e-12 && new_used <= budget_total {
                    if ctx.trace_notes {
                        notes.push(PlanNote::Swap {
                            evicted: candidates[i].id,
                            admitted: candidates[j].id,
                            evicted_priority: candidates[i].priority,
                            admitted_priority: candidates[j].priority,
                        });
                    }
                    sc.selected.retain(|&k| k != i);
                    sc.in_selected[i] = false;
                    sc.selected.push(j);
                    sc.in_selected[j] = true;
                    used = new_used;
                    improved = true;
                    break;
                }
            }
        }

        // Diff against the current state, respecting the transition cap and
        // I/O backpressure.
        let interval = self.params.schedule_interval.as_secs_f64();
        let io_loaded = ctx.d2h_eta.as_secs_f64() > self.params.io_backpressure * interval;
        let mut transitions = 0usize;
        let mut actions = Vec::new();

        // Preemptions first: they free the memory admissions need.
        for (i, c) in candidates.iter().enumerate() {
            if c.phase == ReqPhase::Running && !sc.in_selected[i] {
                if !c.safe_to_preempt || io_loaded || transitions >= self.params.max_transitions {
                    continue;
                }
                actions.push(Action::Preempt {
                    id: c.id,
                    mode: PreemptMode::Offload,
                });
                transitions += 1;
            }
        }
        sc.admits.clear();
        sc.admits.extend((0..candidates.len()).filter(|&i| {
            sc.in_selected[i]
                && matches!(
                    candidates[i].phase,
                    ReqPhase::WaitingNew | ReqPhase::WaitingCpu
                )
        }));
        sc.admits
            .sort_by_key(|&i| (candidates[i].arrival, candidates[i].id));
        for &i in &sc.admits {
            if transitions >= self.params.max_transitions {
                break;
            }
            let c = &candidates[i];
            actions.push(match (c.phase, c.prefer_recompute) {
                (ReqPhase::WaitingNew, _) => Action::AdmitPrefill(c.id),
                (ReqPhase::WaitingCpu, true) => Action::AdmitPrefill(c.id),
                (ReqPhase::WaitingCpu, false) => Action::Resume(c.id),
                _ => unreachable!("filtered to waiting phases"),
            });
            transitions += 1;
        }
        self.scratch = sc;
        SchedPlan { actions, notes }
    }
}

impl Default for TokenFlowScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for TokenFlowScheduler {
    fn name(&self) -> &'static str {
        "TokenFlow"
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        let due = self
            .last_schedule
            .is_none_or(|t| ctx.now >= t + self.params.schedule_interval);
        let stressed = ctx.count_phase(ReqPhase::WaitingNew) > 0
            || ctx.count_phase(ReqPhase::WaitingCpu) > 0
            || ctx
                .in_phase(ReqPhase::Running)
                .any(|r| r.started && r.buffered_secs < self.params.critical_buffer_secs);

        // Time-sliced activation (§4.2.1): the full pass runs only at the
        // interval and under stress; otherwise the prefill-first fast path.
        if !(due && stressed) {
            return SchedPlan::of(fcfs_admissions(
                ctx,
                AdmissionCosting::Headroom(self.params.headroom_tokens),
                false,
            ));
        }
        self.last_schedule = Some(ctx.now);
        self.full_pass(ctx)
    }

    /// `plan` no-ops while `!(due && stressed)` *and* the FCFS sweep of
    /// the quiet branch provably admits nothing. The horizon is the
    /// later of two certified instants: `T_due` (the anchored interval
    /// end — before it, `due` is false) and `T_stress` (before it,
    /// `stressed` is false). The waiting-count clauses of `stressed`
    /// are epoch-protected; the buffer clause is bounded by drain
    /// physics — a reader consumes at most one buffered second per
    /// simulated second and deliveries only add, so a running buffer
    /// holding `b ≥ critical` seconds cannot cross the critical
    /// threshold before `now + (b − critical)`. While any transfer is
    /// in flight, `T_stress` is clamped to `now`: a load completing
    /// mid-horizon adds a running reader whose buffer the slack scan
    /// never saw (and an evict completion creates a `WaitingCpu`
    /// candidate), so the certificate may not stretch past `T_due` on
    /// buffer arithmetic alone. Conservative on purpose: a
    /// shorter-than-true horizon just means an earlier full pipeline
    /// step.
    fn plan_horizon(&self, ctx: &SchedContext) -> Option<PlanHorizon> {
        if !quiescent_across_transfers(ctx) {
            return None;
        }
        let t_due = match self.last_schedule {
            Some(t) => t + self.params.schedule_interval,
            // No full pass has anchored the interval yet: due every step.
            None => ctx.now,
        };
        let waiting = ctx.count_phase(ReqPhase::WaitingNew) + ctx.count_phase(ReqPhase::WaitingCpu);
        let t_stress = if waiting > 0 || ctx.count_phase(ReqPhase::Transitioning) > 0 {
            // Stressed right now (or one in-flight completion away from
            // it); only !due keeps the full pass away.
            ctx.now
        } else {
            let mut slack = f64::INFINITY;
            for r in ctx.in_phase(ReqPhase::Running) {
                if r.started {
                    slack = slack.min(r.buffered_secs - self.params.critical_buffer_secs);
                }
            }
            if slack <= 0.0 {
                ctx.now
            } else if slack.is_infinite() {
                SimTime::MAX
            } else {
                ctx.now + SimDuration::from_secs_f64(slack)
            }
        };
        let valid_until = t_due.max(t_stress);
        (ctx.now < valid_until).then_some(PlanHorizon {
            valid_until,
            // The pacing gate only flips with buffer levels while a
            // beneficiary exists; with none, every answer is `true`.
            gates_static: ctx.count_phase(ReqPhase::WaitingNew)
                + ctx.count_phase(ReqPhase::WaitingCpu)
                + ctx.count_phase(ReqPhase::Transitioning)
                == 0,
        })
    }

    fn prefill_policy(&self) -> PrefillPolicy {
        PrefillPolicy::Chunked(self.params.prefill_chunk)
    }

    fn decode_gate(&self, view: &ReqView, ctx: &SchedContext) -> bool {
        // Pause generation once the buffer reaches the full-value threshold
        // (10 % of the total output, §7.1.3): every token generated below it
        // carries weight 1, so pacing here is the "just-in-time" delivery of
        // §3.1 and produces the plateaus of Figure 18. Pacing only engages
        // while someone can use the freed capacity — with an empty queue,
        // finishing fast maximises turnover and loses nothing.
        if !view.started || view.elastic {
            return true;
        }
        let has_beneficiary = ctx.count_phase(ReqPhase::WaitingNew) > 0
            || ctx.count_phase(ReqPhase::WaitingCpu) > 0
            || ctx.count_phase(ReqPhase::Transitioning) > 0;
        if !has_beneficiary {
            return true;
        }
        let generated = view.context_tokens - view.prompt_tokens;
        let total_output = (generated + view.remaining_tokens).max(1);
        (view.buffered_tokens as f64) < 0.10 * total_output as f64
    }

    fn emergency_preempt_mode(&self) -> PreemptMode {
        PreemptMode::Offload
    }

    fn emergency_victim(&self, ctx: &SchedContext) -> Option<RequestId> {
        largest_buffer_running(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u64, phase: ReqPhase) -> ReqView {
        ReqView {
            id: RequestId(id),
            phase,
            arrival: SimTime::from_secs(id),
            rate: 20.0,
            prompt_tokens: 100,
            context_tokens: 100,
            remaining_tokens: 900,
            buffered_tokens: 0,
            buffered_secs: 0.0,
            stalled: false,
            started: false,
            evict_secs: 0.01,
            load_secs: 0.05,
            reserved_tokens: 0,
            elastic: false,
            inbound: false,
        }
    }

    fn ctx(requests: Vec<ReqView>, free: u64, total: u64) -> SchedContext {
        crate::api::SchedContextBuilder::new(SimTime::from_secs(100))
            .requests(requests)
            .memory(free, total)
            .profile(1e-4, 2_000.0)
            .link(25e9, 131_072)
            .max_batch(64)
            .build()
    }

    fn running_with_buffer(id: u64, buffered_secs: f64) -> ReqView {
        let mut r = view(id, ReqPhase::Running);
        r.started = true;
        r.buffered_secs = buffered_secs;
        r.buffered_tokens = (buffered_secs * r.rate) as u64;
        r
    }

    fn with_context(mut r: ReqView, context: u64) -> ReqView {
        r.context_tokens = context;
        r.prompt_tokens = context.min(r.prompt_tokens);
        r
    }

    #[test]
    fn preempts_high_buffer_for_waiting_under_pressure() {
        let mut s = TokenFlowScheduler::new();
        // Tight memory: two 600-token contexts cannot both fit in a
        // 1300-token pool at 92% utilisation.
        let rich = with_context(running_with_buffer(0, 30.0), 600);
        let waiting = with_context(view(1, ReqPhase::WaitingNew), 600);
        let c = ctx(vec![rich, waiting], 0, 1_300);
        let plan = s.plan(&c);
        assert!(
            plan.actions.contains(&Action::Preempt {
                id: RequestId(0),
                mode: PreemptMode::Offload
            }),
            "rich buffer must be offloaded: {plan:?}"
        );
        assert!(plan.actions.contains(&Action::AdmitPrefill(RequestId(1))));
    }

    #[test]
    fn never_preempts_thin_buffers() {
        let mut s = TokenFlowScheduler::new();
        // Buffer below μ·(τ_evict+τ_load+τ_sched) ≈ 2·(0.06+1.0) ≈ 2.1 s.
        let thin = with_context(running_with_buffer(0, 1.0), 600);
        let waiting = with_context(view(1, ReqPhase::WaitingNew), 600);
        let c = ctx(vec![thin, waiting], 0, 1_300);
        let plan = s.plan(&c);
        assert!(
            !plan
                .actions
                .iter()
                .any(|a| matches!(a, Action::Preempt { id, .. } if *id == RequestId(0))),
            "thin buffer is pinned: {plan:?}"
        );
    }

    #[test]
    fn buffer_conservativeness_raises_preemption_bar() {
        let params = TokenFlowParams {
            buffer_conservativeness: 20.0,
            ..TokenFlowParams::default()
        };
        let mut cautious = TokenFlowScheduler::with_params(params);
        // 5 s of buffer clears μ=2 (bar ≈ 2.1 s) but not μ=20 (bar ≈ 21 s).
        let medium = with_context(running_with_buffer(0, 5.0), 600);
        let waiting = with_context(view(1, ReqPhase::WaitingNew), 600);
        let c = ctx(vec![medium, waiting], 0, 1_300);
        let plan = cautious.plan(&c);
        assert!(
            !plan
                .actions
                .iter()
                .any(|a| matches!(a, Action::Preempt { .. })),
            "μ=20 must behave conservatively: {plan:?}"
        );
        let mut aggressive = TokenFlowScheduler::new();
        let plan = aggressive.plan(&c);
        assert!(
            plan.actions
                .iter()
                .any(|a| matches!(a, Action::Preempt { .. })),
            "μ=2 should preempt: {plan:?}"
        );
    }

    #[test]
    fn working_set_demand_capped_at_gamma() {
        // §4.3: aggregate demand 30 × 100 = 3000 tok/s exceeds Γ = 2000;
        // the selected working set must not exceed capacity — the excess
        // is preempted (safe: 50 s buffers) and queued rather than served
        // beyond Γ.
        let mut s = TokenFlowScheduler::new();
        let mut requests: Vec<ReqView> = (0..100)
            .map(|i| {
                let mut r = running_with_buffer(i, 50.0);
                r.rate = 30.0;
                r
            })
            .collect();
        requests.push(view(100, ReqPhase::WaitingNew));
        let c = ctx(requests, 0, 200_000);
        let plan = s.plan(&c);
        let preempts = plan
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Preempt { .. }))
            .count();
        let admits = plan
            .actions
            .iter()
            .filter(|a| matches!(a, Action::AdmitPrefill(_) | Action::Resume(_)))
            .count();
        let kept_running = 100 - preempts;
        let demand = (kept_running + admits) as f64 * 30.0;
        assert!(
            demand <= 2_000.0 + 30.0,
            "working set demand {demand} exceeds Γ: {plan:?}"
        );
    }

    #[test]
    fn fast_path_between_intervals() {
        let mut s = TokenFlowScheduler::new();
        let rich = with_context(running_with_buffer(0, 30.0), 600);
        let waiting = with_context(view(1, ReqPhase::WaitingNew), 600);
        let c = ctx(vec![rich, waiting], 0, 1_300);
        let _ = s.plan(&c); // full pass at t = 100

        // 1 ms later: not due, only plain admissions may happen.
        let mut c2 = ctx(vec![rich, waiting], 0, 1_300);
        c2.now = SimTime::from_secs(100) + SimDuration::from_millis(1);
        let plan = s.plan(&c2);
        assert!(
            plan.actions
                .iter()
                .all(|a| !matches!(a, Action::Preempt { .. })),
            "between intervals no preemption: {plan:?}"
        );
    }

    #[test]
    fn resume_prefers_cheaper_path() {
        let mut s = TokenFlowScheduler::new();
        // Loading is cheap (50 ms) vs recompute (100 tokens × 0.1 ms =
        // 10 ms): recompute wins here.
        let mut cpu = view(0, ReqPhase::WaitingCpu);
        cpu.load_secs = 0.05;
        cpu.context_tokens = 100;
        let c = ctx(vec![cpu], 10_000, 20_000);
        let plan = s.plan(&c);
        assert_eq!(plan.actions, vec![Action::AdmitPrefill(RequestId(0))]);

        // Make recompute expensive: loading wins.
        let mut s2 = TokenFlowScheduler::new();
        let mut cpu2 = view(0, ReqPhase::WaitingCpu);
        cpu2.load_secs = 0.05;
        cpu2.context_tokens = 10_000;
        let mut c2 = ctx(vec![cpu2], 20_000, 40_000);
        c2.prefill_secs_per_token = 1e-4; // recompute = 1 s > 0.05 s
        let plan = s2.plan(&c2);
        assert_eq!(plan.actions, vec![Action::Resume(RequestId(0))]);
    }

    #[test]
    fn working_set_shrinks_when_underutilised() {
        let s = TokenFlowScheduler::new();
        // One running 2000-token request, plenty of capacity: Eq. 5 pulls
        // W toward N_running.
        let c_low = ctx(
            vec![with_context(running_with_buffer(0, 1.0), 2_000)],
            90_000,
            100_000,
        );
        let w_low = s.working_set_size(&c_low);
        let many: Vec<ReqView> = (0..40)
            .map(|i| with_context(running_with_buffer(i, 1.0), 2_000))
            .collect();
        let c_high = ctx(many, 50_000, 100_000);
        let w_high = s.working_set_size(&c_high);
        assert!(w_high > w_low, "W grows with load: {w_low} vs {w_high}");
    }

    #[test]
    fn io_backpressure_defers_evictions() {
        let mut s = TokenFlowScheduler::new();
        let rich = with_context(running_with_buffer(0, 30.0), 600);
        let waiting = with_context(view(1, ReqPhase::WaitingNew), 600);
        let mut c = ctx(vec![rich, waiting], 0, 1_300);
        c.d2h_eta = SimDuration::from_secs(10); // D2H badly backed up
        let plan = s.plan(&c);
        assert!(
            plan.actions
                .iter()
                .all(|a| !matches!(a, Action::Preempt { .. })),
            "backpressure must defer evictions: {plan:?}"
        );
    }

    #[test]
    fn utility_prefers_empty_buffers() {
        let s = TokenFlowScheduler::new();
        let c = ctx(vec![], 0, 20_000);
        let empty = running_with_buffer(0, 0.0);
        let full = running_with_buffer(1, 30.0);
        assert!(s.utility(&empty, &c) > s.utility(&full, &c));
    }

    /// A stress population for the local-search bound: many preemptable
    /// running requests holding fat buffers, many waiting arrivals, and
    /// memory too tight for everyone.
    fn contended_ctx(n_running: u64, n_waiting: u64) -> SchedContext {
        let mut requests: Vec<ReqView> = (0..n_running)
            .map(|i| with_context(running_with_buffer(i, 30.0), 600))
            .collect();
        requests.extend(
            (n_running..n_running + n_waiting)
                .map(|i| with_context(view(i, ReqPhase::WaitingNew), 600)),
        );
        ctx(requests, 0, 6_000)
    }

    #[test]
    fn swap_bound_at_population_size_is_identical_to_unbounded() {
        let c = contended_ctx(8, 8);
        let mut unbounded = TokenFlowScheduler::new();
        let mut bounded = TokenFlowScheduler::with_params(TokenFlowParams {
            swap_candidates: 16, // ≥ the candidate population
            ..TokenFlowParams::default()
        });
        assert_eq!(unbounded.plan(&c), bounded.plan(&c));
    }

    #[test]
    fn tight_swap_bound_still_produces_a_working_plan() {
        let c = contended_ctx(8, 8);
        let mut tight = TokenFlowScheduler::with_params(TokenFlowParams {
            swap_candidates: 1,
            ..TokenFlowParams::default()
        });
        let plan = tight.plan(&c);
        // The pass still functions under the cap: memory pressure forces
        // preemptions and the freed space admits waiting arrivals.
        assert!(
            plan.actions
                .iter()
                .any(|a| matches!(a, Action::AdmitPrefill(_))),
            "bounded search must still admit: {plan:?}"
        );
    }

    #[test]
    fn default_swap_bound_is_unbounded() {
        assert_eq!(TokenFlowParams::default().swap_candidates, 0);
    }

    #[test]
    fn emergency_uses_offload_and_largest_buffer() {
        let s = TokenFlowScheduler::new();
        assert_eq!(s.emergency_preempt_mode(), PreemptMode::Offload);
        let a = running_with_buffer(0, 1.0);
        let b = running_with_buffer(1, 9.0);
        let c = ctx(vec![a, b], 0, 20_000);
        assert_eq!(s.emergency_victim(&c), Some(RequestId(1)));
    }

    #[test]
    fn no_horizon_while_admissions_possible() {
        let mut s = TokenFlowScheduler::new();
        s.last_schedule = Some(SimTime::from_secs(100));
        // A waiting request with free slots and memory: the FCFS sweep of
        // the quiet branch could admit it any step.
        let c = ctx(
            vec![running_with_buffer(0, 30.0), view(1, ReqPhase::WaitingNew)],
            10_000,
            20_000,
        );
        assert_eq!(s.plan_horizon(&c), None);
    }

    #[test]
    fn horizon_is_min_slack_past_due_time() {
        let mut s = TokenFlowScheduler::new();
        // Full pass long overdue: T_due = 50.5 s < now = 100 s.
        s.last_schedule = Some(SimTime::from_secs(50));
        // No waiting work; two running readers with 5 s and 3 s of buffer
        // above the 1 s critical threshold drain at most 1 s/s, so stress
        // is impossible before now + 2 s.
        let c = ctx(
            vec![running_with_buffer(0, 5.0), running_with_buffer(1, 3.0)],
            10_000,
            20_000,
        );
        let h = s.plan_horizon(&c).expect("quiescent: horizon expected");
        assert_eq!(
            h.valid_until,
            SimTime::from_secs(100) + SimDuration::from_secs_f64(2.0)
        );
        assert!(h.gates_static, "no beneficiaries: gate is constant");
    }

    #[test]
    fn horizon_uses_due_time_when_buffer_already_critical() {
        let mut s = TokenFlowScheduler::new();
        s.last_schedule = Some(SimTime::from_secs(100));
        // Buffer below critical: stressed already, so only !due protects
        // the quiet branch, until last_schedule + interval.
        let c = ctx(vec![running_with_buffer(0, 0.2)], 10_000, 20_000);
        let h = s.plan_horizon(&c).expect("not due: horizon expected");
        assert_eq!(
            h.valid_until,
            SimTime::from_secs(100) + s.params.schedule_interval
        );
    }

    #[test]
    fn horizon_expired_when_due_and_stressed() {
        let mut s = TokenFlowScheduler::new();
        // Overdue and a critical buffer: the very next plan may run a
        // full pass, so no horizon exists.
        s.last_schedule = Some(SimTime::from_secs(50));
        let c = ctx(vec![running_with_buffer(0, 0.2)], 10_000, 20_000);
        assert_eq!(s.plan_horizon(&c), None);
    }

    #[test]
    fn gates_not_static_with_waiting_beneficiary() {
        let mut s = TokenFlowScheduler::new();
        s.last_schedule = Some(SimTime::from_secs(100));
        // Batch saturated (occupied >= max_batch) keeps the sweep
        // quiescent even with a waiting request; the waiting request is a
        // pacing beneficiary, so gate answers may flip with buffer levels.
        let mut reqs: Vec<ReqView> = (0..64).map(|i| running_with_buffer(i, 30.0)).collect();
        reqs.push(view(64, ReqPhase::WaitingNew));
        let c = ctx(reqs, 10_000, 20_000);
        let h = s.plan_horizon(&c).expect("saturated batch: horizon");
        assert!(!h.gates_static);
    }

    #[test]
    fn unbounded_horizon_when_idle_of_readers() {
        let mut s = TokenFlowScheduler::new();
        s.last_schedule = Some(SimTime::from_secs(50));
        // Nothing waiting and no started reader: stress has no trigger
        // before some epoch-tracked event, so the horizon is unbounded.
        let mut r = view(0, ReqPhase::Running);
        r.started = false;
        let c = ctx(vec![r], 10_000, 20_000);
        let h = s.plan_horizon(&c).expect("horizon expected");
        assert_eq!(h.valid_until, SimTime::MAX);
    }
}
