//! Hierarchical KV-cache management (paper §5).
//!
//! The crate implements the paper's proactive memory layer:
//!
//! * [`pool`] — paged block pools for GPU and CPU memory with double-free
//!   detection.
//! * [`pcie`] — a dual-stream host-link engine (independent H2D and D2H
//!   channels) with FIFO transfer queues, completion events, and
//!   queue-depth/ETA queries that feed the scheduler's `t_IO` estimate.
//! * [`write_queue`] — the write-through buffer: dirty (GPU-only) token
//!   ranges queued for background D2H sync, priority-ordered by the owner's
//!   buffer occupancy (§5.2 "priority-based write ordering").
//! * [`manager`] — the [`KvManager`](manager::KvManager) tying them
//!   together: write-through sync pumped in compute-sized chunks
//!   (synchronous chunked writing), settled in one pass per compute
//!   window when flush order cannot matter, near-instant preemption of
//!   synced requests, chunked resume loads, and load-evict overlap
//!   (§5.3).
//!
//! Every policy the paper describes is a real decision procedure here; only
//! the byte movement itself is simulated (a bandwidth/latency model instead
//! of a DMA engine), as documented in `DESIGN.md`.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod manager;
pub mod pcie;
pub mod pool;
pub mod write_queue;

pub use manager::{EvictStart, KvConfig, KvError, KvEvent, KvManager, Residency, WindowSync};
pub use pcie::{Direction, PcieEngine, TransferCompletion, TransferTag};
pub use pool::BlockPool;
pub use write_queue::WriteQueue;
