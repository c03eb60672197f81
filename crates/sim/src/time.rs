//! Virtual time units.
//!
//! All simulator timestamps and durations are `u64` nanoseconds. The type
//! alias [`SimTime`] exists for documentation value; the unit constants keep
//! latency-model code readable (`3 * US` instead of `3_000`).

/// A point in virtual time or a duration, in nanoseconds.
pub type SimTime = u64;

/// One microsecond.
pub const US: SimTime = 1_000;
/// One millisecond.
pub const MS: SimTime = 1_000_000;
/// One second.
pub const SEC: SimTime = 1_000_000_000;

/// Converts a duration in virtual nanoseconds to fractional microseconds.
pub fn as_us(t: SimTime) -> f64 {
    t as f64 / US as f64
}

/// Converts a duration in virtual nanoseconds to fractional seconds.
pub fn as_secs(t: SimTime) -> f64 {
    t as f64 / SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(US, 1_000);
        assert_eq!(MS, 1_000 * US);
        assert_eq!(SEC, 1_000 * MS);
    }

    #[test]
    fn conversions() {
        assert_eq!(as_us(2_500), 2.5);
        assert_eq!(as_secs(SEC / 2), 0.5);
    }
}
