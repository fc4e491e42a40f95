//! Paged memory block pools.
//!
//! Both the GPU and CPU tiers are managed as pools of fixed-size blocks
//! (16 tokens per block by default, like paged attention). The pool tracks
//! allocation counts only — requests record how many blocks they hold, and
//! the manager asserts global conservation — but it detects over-free and
//! over-allocate bugs eagerly.

/// A fixed-capacity block pool.
///
/// # Examples
///
/// ```
/// use tokenflow_kv::BlockPool;
///
/// let mut pool = BlockPool::new(100);
/// assert!(pool.try_alloc(60));
/// assert_eq!(pool.free_blocks(), 40);
/// pool.free(25);
/// assert_eq!(pool.used_blocks(), 35);
/// ```
#[derive(Debug, Clone)]
pub struct BlockPool {
    total: u64,
    used: u64,
}

impl BlockPool {
    /// Creates a pool of `total` blocks.
    pub fn new(total: u64) -> Self {
        BlockPool { total, used: 0 }
    }

    /// Total capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.total - self.used
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u64 {
        self.used
    }

    /// Fraction of the pool in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.used as f64 / self.total as f64
    }

    /// Whether `n` blocks could be allocated right now.
    pub fn can_alloc(&self, n: u64) -> bool {
        n <= self.free_blocks()
    }

    /// Allocates `n` blocks, returning `false` (and allocating nothing) if
    /// the pool cannot satisfy the request.
    pub fn try_alloc(&mut self, n: u64) -> bool {
        if self.can_alloc(n) {
            self.used += n;
            true
        } else {
            false
        }
    }

    /// Returns `n` blocks to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more blocks are freed than were allocated — that is always
    /// an accounting bug in the caller.
    pub fn free(&mut self, n: u64) {
        assert!(
            n <= self.used,
            "over-free: freeing {n} blocks with only {} allocated",
            self.used
        );
        self.used -= n;
    }
}

/// Number of blocks needed to hold `tokens` tokens (ceiling division).
pub fn tokens_to_blocks(tokens: u64, block_tokens: u32) -> u64 {
    tokens.div_ceil(block_tokens as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = BlockPool::new(10);
        assert!(p.try_alloc(10));
        assert_eq!(p.free_blocks(), 0);
        assert!(!p.try_alloc(1));
        p.free(10);
        assert_eq!(p.free_blocks(), 10);
    }

    #[test]
    fn failed_alloc_changes_nothing() {
        let mut p = BlockPool::new(5);
        assert!(p.try_alloc(3));
        assert!(!p.try_alloc(3));
        assert_eq!(p.used_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "over-free")]
    fn over_free_panics() {
        let mut p = BlockPool::new(5);
        p.try_alloc(2);
        p.free(3);
    }

    #[test]
    fn utilization_tracks_usage() {
        let mut p = BlockPool::new(4);
        assert_eq!(p.utilization(), 0.0);
        p.try_alloc(1);
        assert_eq!(p.utilization(), 0.25);
        p.try_alloc(3);
        assert_eq!(p.utilization(), 1.0);
    }

    #[test]
    fn empty_pool_is_always_full() {
        let p = BlockPool::new(0);
        assert_eq!(p.utilization(), 1.0);
        assert!(!p.can_alloc(1));
        assert!(p.can_alloc(0));
    }

    #[test]
    fn token_block_conversions() {
        assert_eq!(tokens_to_blocks(0, 16), 0);
        assert_eq!(tokens_to_blocks(1, 16), 1);
        assert_eq!(tokens_to_blocks(16, 16), 1);
        assert_eq!(tokens_to_blocks(17, 16), 2);
    }
}
