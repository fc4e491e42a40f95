//! The engine-facing scheduling interface.

use tokenflow_sim::{RequestId, SimDuration, SimTime};

/// Lifecycle phase of a request as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqPhase {
    /// Queued with no KV anywhere: needs a (re)prefill to run.
    WaitingNew,
    /// KV offloaded to host memory: needs a load (or recompute) to run.
    WaitingCpu,
    /// KV transfer in flight (evicting or loading); untouchable until the
    /// transition completes.
    Transitioning,
    /// In the running batch, generating tokens.
    Running,
}

/// Read-only per-request state exposed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqView {
    /// The request.
    pub id: RequestId,
    /// Current phase.
    pub phase: ReqPhase,
    /// Submission time.
    pub arrival: SimTime,
    /// Required streaming rate, tokens/second.
    pub rate: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Current context length (prompt + generated so far).
    pub context_tokens: u64,
    /// Output tokens still to generate.
    pub remaining_tokens: u64,
    /// Client buffer occupancy in tokens.
    pub buffered_tokens: u64,
    /// Client buffer occupancy in seconds at the required rate.
    pub buffered_secs: f64,
    /// Whether the client is stalled right now.
    pub stalled: bool,
    /// Whether the request has produced its first token.
    pub started: bool,
    /// Estimated seconds to evict this request now (D2H queue + dirty
    /// flush; near zero under write-through).
    pub evict_secs: f64,
    /// Estimated seconds to load this request's KV back (H2D queue + full
    /// context transfer).
    pub load_secs: f64,
    /// GPU tokens this request is committed to allocate but has not yet
    /// (admitted prompts still prefilling). Admission budgets must subtract
    /// these.
    pub reserved_tokens: u64,
    /// Elastic (agent) client: the rate is a reference priority, not a
    /// reader to protect — yield first under load, accelerate when idle
    /// (paper §8).
    pub elastic: bool,
    /// Transfer direction for [`ReqPhase::Transitioning`] requests: `true`
    /// when the request is headed *into* the decode batch (prefilling, or
    /// loading KV back onto the GPU), `false` when it is on its way out
    /// (evicting to host). Always `false` outside `Transitioning`.
    ///
    /// Horizon certificates need this distinction: an inbound transfer
    /// completes into `Running` (it keeps occupying its batch slot), while
    /// an outbound one completes into `WaitingCpu` (its slot frees). See
    /// [`crate::util::quiescent_across_transfers`].
    pub inbound: bool,
}

/// Read-only system state handed to [`Scheduler::plan`] each iteration.
#[derive(Debug, Clone)]
pub struct SchedContext {
    /// Current time.
    pub now: SimTime,
    /// All live requests (arrived, not finished), in arrival order.
    pub requests: Vec<ReqView>,
    /// Free GPU KV capacity in tokens.
    pub gpu_free_tokens: u64,
    /// Total GPU KV capacity in tokens.
    pub gpu_total_tokens: u64,
    /// Device-to-host transfer queue depth.
    pub d2h_queue_len: usize,
    /// Host-to-device transfer queue depth.
    pub h2d_queue_len: usize,
    /// Time for the D2H queue to drain.
    pub d2h_eta: SimDuration,
    /// Time for the H2D queue to drain.
    pub h2d_eta: SimDuration,
    /// Profiled prefill cost per token, seconds (sliding-window average).
    pub prefill_secs_per_token: f64,
    /// Profiled aggregate decode throughput Γ, tokens/second.
    pub decode_throughput: f64,
    /// Host link bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// KV bytes per token.
    pub kv_bytes_per_token: u64,
    /// Hard cap on concurrently running requests.
    pub max_batch: u32,
    /// True when the engine is recording a decision trace and wants
    /// [`SchedPlan::notes`] filled. Off (the default), schedulers must
    /// skip note bookkeeping entirely so the hot path stays
    /// allocation-free; decisions themselves must never depend on this
    /// flag.
    pub trace_notes: bool,
    /// Per-phase request counts, cached at construction so
    /// [`SchedContext::count_phase`] is O(1) on the engine's hot path
    /// (pacing gates query it per batch member per iteration). Private:
    /// contexts are built through [`SchedContextBuilder`] (or the
    /// engine's in-place rebuild), both of which keep it consistent;
    /// code that mutates `requests` directly afterwards must call
    /// [`SchedContext::recount_phases`].
    phase_counts: [usize; 4],
}

const fn phase_index(phase: ReqPhase) -> usize {
    match phase {
        ReqPhase::WaitingNew => 0,
        ReqPhase::WaitingCpu => 1,
        ReqPhase::Transitioning => 2,
        ReqPhase::Running => 3,
    }
}

impl SchedContext {
    /// Views filtered to a phase.
    pub fn in_phase(&self, phase: ReqPhase) -> impl Iterator<Item = &ReqView> {
        self.requests.iter().filter(move |r| r.phase == phase)
    }

    /// The view of one request, by binary search over the id-ordered
    /// request list.
    ///
    /// Engine-built contexts list requests in ascending id order (ids are
    /// dense and the engine walks its live-id index), which is what makes
    /// per-member lookups on the batch-composition hot path O(log live)
    /// instead of a linear scan. The ordering is asserted once per
    /// context build (see [`SchedContext::debug_assert_id_ordered`]), not
    /// here — this lookup runs per batch member per step. Hand-built
    /// contexts that violate the ordering get unspecified (but
    /// memory-safe) results.
    pub fn view_of(&self, id: RequestId) -> Option<&ReqView> {
        self.requests
            .binary_search_by(|r| r.id.cmp(&id))
            .ok()
            .map(|i| &self.requests[i])
    }

    /// Debug-build check that `requests` is in strictly ascending id
    /// order — the invariant [`SchedContext::view_of`] relies on. Called
    /// once per context (re)build; a no-op in release builds.
    pub fn debug_assert_id_ordered(&self) {
        debug_assert!(
            self.requests.windows(2).all(|w| w[0].id < w[1].id),
            "SchedContext requests must be in ascending id order"
        );
    }

    /// Number of requests in a phase — O(1), from the counts cached at
    /// construction (see [`SchedContext::recount_phases`]).
    pub fn count_phase(&self, phase: ReqPhase) -> usize {
        self.phase_counts[phase_index(phase)]
    }

    /// Moves the context's clock without rebuilding anything else — the
    /// plan-horizon fast path advances retained contexts step by step.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Re-phases one request's view in place, keeping the cached phase
    /// counts consistent. Returns `false` (and changes nothing) when the
    /// request has no view here.
    ///
    /// This exists for the engine's plan-horizon fast path: a KV
    /// transfer completing inside a horizon flips a request
    /// `Transitioning → Running` (load done) or `Transitioning →
    /// WaitingCpu` (evict done), and the retained context must mirror
    /// the flip before gates read it again.
    pub fn update_phase(&mut self, id: RequestId, phase: ReqPhase) -> bool {
        let Ok(i) = self.requests.binary_search_by(|r| r.id.cmp(&id)) else {
            return false;
        };
        let old = self.requests[i].phase;
        if old != phase {
            self.phase_counts[phase_index(old)] -= 1;
            self.phase_counts[phase_index(phase)] += 1;
            self.requests[i].phase = phase;
            // Direction is a Transitioning-only attribute.
            if phase != ReqPhase::Transitioning {
                self.requests[i].inbound = false;
            }
        }
        true
    }

    /// Recomputes the cached per-phase counts from `requests`. Call after
    /// mutating the request list in place; the builder and the engine's
    /// context rebuild do this for you.
    pub fn recount_phases(&mut self) {
        let mut counts = [0usize; 4];
        for r in &self.requests {
            counts[phase_index(r.phase)] += 1;
        }
        self.phase_counts = counts;
    }

    /// Estimated time to recompute a context from scratch (prefill).
    pub fn recompute_secs(&self, context_tokens: u64) -> f64 {
        context_tokens as f64 * self.prefill_secs_per_token
    }
}

/// How an eviction should be carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Offload the KV cache to host memory (resume by loading it back).
    Offload,
    /// Discard the KV cache (resume by recomputing the prefill). Baselines
    /// without hierarchical memory use this.
    Discard,
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start (or restart, after a discard) this request's prefill.
    AdmitPrefill(RequestId),
    /// Load this host-resident request's KV back onto the GPU.
    Resume(RequestId),
    /// Remove this running request from the batch.
    Preempt {
        /// The victim.
        id: RequestId,
        /// Offload or discard.
        mode: PreemptMode,
    },
}

/// A scheduler's explanation of *why* this pass decided what it did —
/// recorded only when [`SchedContext::trace_notes`] is set, and turned
/// into trace events by the engine. Notes never affect execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanNote {
    /// A full pass changed a request's priority.
    Reprice {
        id: RequestId,
        before: f64,
        after: f64,
    },
    /// A local-search step swapped one selected request for another.
    Swap {
        evicted: RequestId,
        admitted: RequestId,
        evicted_priority: f64,
        admitted_priority: f64,
    },
}

/// The scheduler's output for one iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedPlan {
    /// Decisions, applied in order.
    pub actions: Vec<Action>,
    /// Decision annotations for the trace journal; always empty unless
    /// the context set [`SchedContext::trace_notes`] (an empty `Vec`
    /// costs nothing — it never allocates).
    pub notes: Vec<PlanNote>,
}

impl SchedPlan {
    /// The empty plan.
    pub fn none() -> Self {
        SchedPlan::default()
    }

    /// A plan with actions and no notes.
    pub fn of(actions: Vec<Action>) -> Self {
        SchedPlan {
            actions,
            notes: Vec::new(),
        }
    }

    /// True when the plan makes no changes.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A scheduler's certificate that its decision is invariant for a while.
///
/// Returned by [`Scheduler::plan_horizon`] *after* a plan has been
/// applied: it promises that, starting from the context it was asked
/// about, every [`Scheduler::plan`] call before `valid_until` would
/// return an empty plan **and leave the scheduler's internal state
/// untouched** — provided none of the engine's horizon-invalidating
/// events fire first (the engine tracks those with a decision-epoch
/// counter: arrivals, admissions, preemptions, resumes, prefill
/// progress, request completions, memory-fit interventions).
///
/// KV transfers *already in flight* when the horizon is issued are NOT
/// epoch events: the certificate must stay valid across their
/// completions, each of which flips one request `Transitioning →
/// Running` (load done) or `Transitioning → WaitingCpu` (evict done)
/// without any scheduler decision. The engine mirrors every flip into
/// the retained context (phases and counts, via
/// [`SchedContext::update_phase`]) and recomposes the batch before the
/// next certified step, so gates always read true phases — but the
/// *plan-is-a-no-op* promise has to survive the flips on its own; see
/// [`quiescent_across_transfers`](crate::util::quiescent_across_transfers)
/// for the standard admission-side argument. (New transfers cannot
/// start inside a horizon: starting one takes a plan action or an
/// emergency preemption, both epoch-tracked.)
///
/// `gates_static` additionally certifies that every
/// [`Scheduler::decode_gate`] answer is constant over the horizon, so the
/// engine may replay the retained iteration batch verbatim. When it is
/// `false`, gate answers may flip as client buffers drain, but they are
/// certified to depend only on the per-request *gate-read fields* —
/// `started`, `elastic`, `prompt_tokens`, `context_tokens`,
/// `remaining_tokens`, `buffered_tokens`, `buffered_secs`, `stalled` —
/// plus the context's phase counts; the engine refreshes exactly those
/// fields for running members and recomposes the batch, still skipping
/// the full context rebuild and the plan call.
///
/// Horizons are allowed to be conservative (shorter than the truth —
/// the engine just falls back to the full pipeline sooner); they must
/// never be optimistic, or the fast path would change behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanHorizon {
    /// First instant at which `plan` may act again. Steps whose start
    /// time is `>= valid_until` take the full pipeline.
    pub valid_until: SimTime,
    /// True when every decode-gate answer is also constant over the
    /// horizon, so the retained batch can be replayed without refresh.
    pub gates_static: bool,
}

/// How prefill work is batched into iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillPolicy {
    /// Whole prompts run in dedicated prefill iterations, prioritised over
    /// decode (SGLang default).
    Full,
    /// At most this many prompt tokens are mixed into each decode iteration
    /// (Sarathi-style chunked prefill).
    Chunked(u64),
}

/// A scheduling policy.
///
/// Implementations must be deterministic: identical contexts must produce
/// identical plans, so simulation runs reproduce bit-for-bit.
///
/// `Send` is a supertrait so engines owning a policy can be advanced on
/// worker threads — the cluster crate's parallel epoch executor moves
/// whole replicas (engine + boxed scheduler) across threads between
/// arrival barriers. Policies hold only their own plain data (no shared
/// interior mutability), so the bound is free in practice.
pub trait Scheduler: Send {
    /// Short policy name for reports (e.g. `"TokenFlow"`).
    fn name(&self) -> &'static str;

    /// Produces this iteration's plan.
    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan;

    /// Certifies, after this iteration's plan has been applied and the
    /// batch composed against `ctx`, how long the decision stays valid
    /// (see [`PlanHorizon`]). `None` — the default — means "no
    /// certificate": the engine runs the full pipeline every step.
    ///
    /// Implementations must be *conservative*: the engine skips its
    /// context rebuild and the `plan` call inside the horizon, so an
    /// optimistic horizon changes behavior. A policy should only return
    /// `Some` when it can prove from `ctx` alone that `plan` would
    /// no-op (and not mutate scheduler state) until `valid_until`,
    /// absent the engine's epoch-tracked events.
    fn plan_horizon(&self, ctx: &SchedContext) -> Option<PlanHorizon> {
        let _ = ctx;
        None
    }

    /// How the engine should batch prefill work.
    fn prefill_policy(&self) -> PrefillPolicy {
        PrefillPolicy::Full
    }

    /// Whether a running request should decode this iteration.
    ///
    /// Pacing policies return `false` for requests whose buffers are
    /// already past the useful threshold *when another request could use
    /// the capacity*; the default never gates.
    fn decode_gate(&self, view: &ReqView, ctx: &SchedContext) -> bool {
        let _ = (view, ctx);
        true
    }

    /// Preemption mode for the engine's emergency out-of-memory path.
    fn emergency_preempt_mode(&self) -> PreemptMode {
        PreemptMode::Discard
    }

    /// Victim choice for the engine's emergency out-of-memory path.
    ///
    /// The default mirrors SGLang/vLLM: preempt the most recently arrived
    /// running request (lowest FCFS priority).
    fn emergency_victim(&self, ctx: &SchedContext) -> Option<RequestId> {
        ctx.in_phase(ReqPhase::Running)
            .max_by_key(|r| (r.arrival, r.id))
            .map(|r| r.id)
    }
}

/// Boxed schedulers are schedulers: every trait method forwards, so
/// dynamic dispatch composes with APIs that take `impl Scheduler`.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        (**self).plan(ctx)
    }

    fn plan_horizon(&self, ctx: &SchedContext) -> Option<PlanHorizon> {
        (**self).plan_horizon(ctx)
    }

    fn prefill_policy(&self) -> PrefillPolicy {
        (**self).prefill_policy()
    }

    fn decode_gate(&self, view: &ReqView, ctx: &SchedContext) -> bool {
        (**self).decode_gate(view, ctx)
    }

    fn emergency_preempt_mode(&self) -> PreemptMode {
        (**self).emergency_preempt_mode()
    }

    fn emergency_victim(&self, ctx: &SchedContext) -> Option<RequestId> {
        (**self).emergency_victim(ctx)
    }
}

/// Incremental constructor for [`SchedContext`].
///
/// The engine's admission stage assembles contexts field group by field
/// group (request views, memory state, I/O state, profiled rates); the
/// builder keeps that assembly explicit and gives tests a way to construct
/// contexts without spelling out every field. Unset groups default to a
/// neutral idle system: no requests, no memory, empty I/O queues, zero
/// profiled rates, `max_batch` 1.
#[derive(Debug, Clone)]
pub struct SchedContextBuilder {
    ctx: SchedContext,
}

impl SchedContextBuilder {
    /// Starts a context at `now` with neutral defaults.
    pub fn new(now: SimTime) -> Self {
        SchedContextBuilder {
            ctx: SchedContext {
                now,
                requests: Vec::new(),
                gpu_free_tokens: 0,
                gpu_total_tokens: 0,
                d2h_queue_len: 0,
                h2d_queue_len: 0,
                d2h_eta: SimDuration::ZERO,
                h2d_eta: SimDuration::ZERO,
                prefill_secs_per_token: 0.0,
                decode_throughput: 0.0,
                pcie_bandwidth: 1.0,
                kv_bytes_per_token: 0,
                max_batch: 1,
                trace_notes: false,
                phase_counts: [0; 4],
            },
        }
    }

    /// Sets the live request views (arrival order).
    pub fn requests(mut self, views: Vec<ReqView>) -> Self {
        self.ctx.requests = views;
        self
    }

    /// Sets GPU KV capacity (free and total, in tokens).
    pub fn memory(mut self, free_tokens: u64, total_tokens: u64) -> Self {
        self.ctx.gpu_free_tokens = free_tokens;
        self.ctx.gpu_total_tokens = total_tokens;
        self
    }

    /// Sets host-link queue depths and drain ETAs.
    pub fn io_state(
        mut self,
        d2h_queue_len: usize,
        h2d_queue_len: usize,
        d2h_eta: SimDuration,
        h2d_eta: SimDuration,
    ) -> Self {
        self.ctx.d2h_queue_len = d2h_queue_len;
        self.ctx.h2d_queue_len = h2d_queue_len;
        self.ctx.d2h_eta = d2h_eta;
        self.ctx.h2d_eta = h2d_eta;
        self
    }

    /// Sets the profiled rates: prefill cost per token and the decode
    /// capacity estimate Γ.
    pub fn profile(mut self, prefill_secs_per_token: f64, decode_throughput: f64) -> Self {
        self.ctx.prefill_secs_per_token = prefill_secs_per_token;
        self.ctx.decode_throughput = decode_throughput;
        self
    }

    /// Sets the host-link bandwidth and KV footprint per token.
    pub fn link(mut self, pcie_bandwidth: f64, kv_bytes_per_token: u64) -> Self {
        self.ctx.pcie_bandwidth = pcie_bandwidth;
        self.ctx.kv_bytes_per_token = kv_bytes_per_token;
        self
    }

    /// Sets the hard cap on concurrently running requests.
    pub fn max_batch(mut self, max_batch: u32) -> Self {
        self.ctx.max_batch = max_batch;
        self
    }

    /// Finishes the context (computing the cached phase counts).
    pub fn build(self) -> SchedContext {
        let mut ctx = self.ctx;
        ctx.recount_phases();
        ctx
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
            remaining_tokens: 100,
            buffered_tokens: 0,
            buffered_secs: 0.0,
            stalled: false,
            started: false,
            evict_secs: 0.0,
            load_secs: 0.0,
            reserved_tokens: 0,
            elastic: false,
            inbound: false,
        }
    }

    fn ctx(requests: Vec<ReqView>) -> SchedContext {
        SchedContextBuilder::new(SimTime::ZERO)
            .requests(requests)
            .memory(10_000, 20_000)
            .profile(1e-4, 2_000.0)
            .link(25e9, 131_072)
            .max_batch(64)
            .build()
    }

    #[test]
    fn phase_filters() {
        let c = ctx(vec![
            view(0, ReqPhase::Running),
            view(1, ReqPhase::WaitingNew),
            view(2, ReqPhase::Running),
        ]);
        assert_eq!(c.count_phase(ReqPhase::Running), 2);
        assert_eq!(c.count_phase(ReqPhase::WaitingNew), 1);
        assert_eq!(c.count_phase(ReqPhase::WaitingCpu), 0);
    }

    #[test]
    fn recompute_estimate() {
        let c = ctx(vec![]);
        // 1000 tokens × 0.1 ms = 0.1 s.
        assert!((c.recompute_secs(1000) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn default_emergency_victim_is_latest_arrival() {
        struct Dummy;
        impl Scheduler for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn plan(&mut self, _ctx: &SchedContext) -> SchedPlan {
                SchedPlan::none()
            }
        }
        let c = ctx(vec![
            view(0, ReqPhase::Running),
            view(5, ReqPhase::Running),
            view(9, ReqPhase::WaitingNew),
        ]);
        assert_eq!(Dummy.emergency_victim(&c), Some(RequestId(5)));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(SchedPlan::none().is_empty());
    }

    #[test]
    fn builder_defaults_are_neutral() {
        let c = SchedContextBuilder::new(SimTime::from_secs(3)).build();
        assert_eq!(c.now, SimTime::from_secs(3));
        assert!(c.requests.is_empty());
        assert_eq!(c.gpu_free_tokens, 0);
        assert_eq!(c.max_batch, 1);
    }

    #[test]
    fn builder_sets_all_field_groups() {
        let c = SchedContextBuilder::new(SimTime::ZERO)
            .requests(vec![view(0, ReqPhase::Running)])
            .memory(1_000, 2_000)
            .io_state(
                3,
                4,
                SimDuration::from_millis(5),
                SimDuration::from_millis(6),
            )
            .profile(1e-4, 5_000.0)
            .link(25e9, 131_072)
            .max_batch(64)
            .build();
        assert_eq!(c.requests.len(), 1);
        assert_eq!((c.gpu_free_tokens, c.gpu_total_tokens), (1_000, 2_000));
        assert_eq!((c.d2h_queue_len, c.h2d_queue_len), (3, 4));
        assert_eq!(c.d2h_eta, SimDuration::from_millis(5));
        assert_eq!(c.decode_throughput, 5_000.0);
        assert_eq!(c.kv_bytes_per_token, 131_072);
        assert_eq!(c.max_batch, 64);
    }

    #[test]
    fn boxed_scheduler_forwards_every_method() {
        struct Custom;
        impl Scheduler for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn plan(&mut self, _ctx: &SchedContext) -> SchedPlan {
                SchedPlan::none()
            }
            fn prefill_policy(&self) -> PrefillPolicy {
                PrefillPolicy::Chunked(77)
            }
            fn emergency_preempt_mode(&self) -> PreemptMode {
                PreemptMode::Offload
            }
        }
        let mut boxed: Box<dyn Scheduler> = Box::new(Custom);
        let c = ctx(vec![view(2, ReqPhase::Running)]);
        assert_eq!(boxed.name(), "custom");
        assert!(boxed.plan(&c).is_empty());
        assert_eq!(boxed.prefill_policy(), PrefillPolicy::Chunked(77));
        assert_eq!(boxed.emergency_preempt_mode(), PreemptMode::Offload);
        assert_eq!(boxed.emergency_victim(&c), Some(RequestId(2)));
    }
}
