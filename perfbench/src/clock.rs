//! The benchmark's one time source: the observability layer's monotonic
//! microsecond clock, shared so that the benchmark's spans and the
//! engine's trace spans sit on the same time line.

use aod_obs::{Clock, MonotonicClock};
use std::sync::OnceLock;

pub fn clock() -> &'static MonotonicClock {
    static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();
    CLOCK.get_or_init(MonotonicClock::new)
}

pub fn now_us() -> u64 {
    clock().now_us()
}

/// Seconds from `start_us` to now. Both readings truncate to whole
/// microseconds, so a sum of many such intervals carries no bias.
pub fn secs_since(start_us: u64) -> f64 {
    now_us().saturating_sub(start_us) as f64 / 1e6
}
