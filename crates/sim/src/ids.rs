//! Common identifier types shared across the workspace.

use std::fmt;

/// Unique identifier of a serving request.
///
/// Identifiers are dense (assigned 0, 1, 2, ... in arrival order by the
/// workload layer), so they double as stable tie-breakers in scheduling
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

impl From<u64> for RequestId {
    fn from(v: u64) -> Self {
        RequestId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(RequestId(3).to_string(), "req#3");
        assert!(RequestId(1) < RequestId(2));
        assert_eq!(RequestId::from(5).index(), 5);
    }
}
