//! Epoch execution strategies: how replicas advance between barriers.
//!
//! The cluster's execution model is a sequence of **barrier epochs**. At
//! a barrier the coordinator routes every request due at the barrier time
//! (reading [`EngineLoad`](tokenflow_core::EngineLoad) snapshots); during
//! the epoch that follows — up to the next barrier, or the final drain —
//! replicas never observe each other, so each one can be advanced
//! independently via [`Engine::step_until`](tokenflow_core::Engine::step_until).
//!
//! [`Execution`] picks *how* that independent work runs:
//!
//! * [`Execution::Sequential`] — one replica after another on the calling
//!   thread. Zero threading overhead; wall-clock cost grows linearly with
//!   replica count. This is the reference implementation the pool is
//!   differentially tested against.
//! * [`Execution::Parallel`] — busy replicas are claimed one at a time
//!   from a batch by a persistent, condvar-parked
//!   [`crate::WorkerPool`] that the cluster spawns once and
//!   reuses for every epoch of the run.
//!
//! Because an epoch's per-replica work is closed over the replica's own
//! state (each [`Engine`] is a self-contained deterministic simulator and
//! the router only runs on the coordinator between epochs), the executor
//! choice cannot change a single byte of any outcome — property tests
//! hold every shipped router and both strategies to exactly that
//! contract.

use std::num::NonZeroUsize;
use std::thread;

use tokenflow_core::Engine;
use tokenflow_sim::SimTime;

use crate::pool::WorkerPool;

/// How the cluster advances its replicas within one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Advance replicas one at a time on the coordinator thread.
    #[default]
    Sequential,
    /// Advance busy replicas on a persistent worker pool with this many
    /// lanes (the coordinator itself is one lane, so `Parallel(1)`
    /// spawns no threads and is observably identical to
    /// [`Execution::Sequential`]). Replicas are claimed item-by-item
    /// from a shared cursor, so one slow replica cannot idle a whole
    /// pre-carved slice.
    Parallel(NonZeroUsize),
}

impl Execution {
    /// Parallel execution sized to the host: one lane per available
    /// core (as reported by [`std::thread::available_parallelism`]),
    /// falling back to sequential execution when parallelism cannot be
    /// determined.
    pub fn parallel_auto() -> Self {
        // audit: allow(determinism, reason = "lane count is a capability, not an input: every Execution variant is byte-identical by the equivalence contract, so sizing to the host cannot reach an outcome")
        thread::available_parallelism()
            .map(Execution::Parallel)
            .unwrap_or(Execution::Sequential)
    }

    /// Convenience constructor clamping `threads` to at least one.
    pub fn parallel(threads: usize) -> Self {
        Execution::Parallel(NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN))
    }
}

/// Advances every busy replica (`done[i] == false`) until its clock
/// reaches `until`, it finishes all submitted work, or it goes quiescent;
/// updates `done` in place from each replica's
/// [`step_until`](Engine::step_until) verdict. For
/// [`Execution::Parallel`] the pool is created on first use and reused
/// afterwards.
///
/// The executor only chooses *where* each replica's loop runs — never
/// *what* it does — so both strategies produce identical replica states.
pub(crate) fn advance_until(
    replicas: &mut [Engine],
    done: &mut [bool],
    until: SimTime,
    execution: Execution,
    pool: &mut Option<WorkerPool>,
) {
    debug_assert_eq!(replicas.len(), done.len());
    match execution {
        Execution::Sequential => {
            for (i, engine) in replicas.iter_mut().enumerate() {
                if !done[i] {
                    done[i] = engine.step_until(until);
                }
            }
        }
        Execution::Parallel(threads) => {
            pool.get_or_insert_with(|| WorkerPool::new(threads))
                .advance(replicas, done, until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_clamps_to_one_worker() {
        assert_eq!(Execution::parallel(0), Execution::parallel(1));
    }
}
