//! Simulation configuration.

use serde::{Deserialize, Serialize};

/// Configuration for one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Integration step in seconds.
    pub tick_s: f64,
    /// Length of one observation interval in seconds (the paper uses
    /// 10-minute intervals).
    pub interval_s: f64,
    /// Number of observation intervals `T` (the paper's 2-hour horizon at
    /// 10-minute intervals gives T = 12).
    pub intervals: usize,
    /// Extra simulated seconds after the demand horizon so late vehicles
    /// can clear (their ticks are not observed).
    pub cooldown_s: f64,
    /// RNG seed: controls spawn-node choice within regions and arrival
    /// jitter.
    pub seed: u64,
    /// Maximum vehicle acceleration, m/s^2.
    pub max_accel: f64,
    /// Comfortable deceleration bound used by the safe-gap rule, m/s^2.
    pub max_decel: f64,
    /// Saturation flow per lane, vehicles/second (1800 veh/h/lane at 0.5).
    pub saturation_flow_per_lane: f64,
    /// Traffic-signal cycle length in seconds (fixed-time control).
    pub signal_cycle_s: f64,
    /// Record one [`crate::engine::TripRecord`] per spawned vehicle
    /// (needed by the taxi-trajectory sampling pipeline; off by default to
    /// keep large runs lean).
    pub record_trips: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            tick_s: 1.0,
            interval_s: 600.0,
            intervals: 12,
            cooldown_s: 600.0,
            seed: 0,
            max_accel: 2.0,
            max_decel: 4.5,
            saturation_flow_per_lane: 0.5,
            signal_cycle_s: 30.0,
            record_trips: false,
        }
    }
}

impl SimConfig {
    /// Sets the number of observation intervals.
    pub fn with_intervals(mut self, t: usize) -> Self {
        self.intervals = t;
        self
    }

    /// Sets the interval length in seconds.
    pub fn with_interval_s(mut self, s: f64) -> Self {
        self.interval_s = s;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ticks per observation interval.
    pub fn ticks_per_interval(&self) -> u64 {
        (self.interval_s / self.tick_s).round().max(1.0) as u64
    }

    /// Total observed ticks (demand horizon).
    pub fn horizon_ticks(&self) -> u64 {
        self.ticks_per_interval() * self.intervals as u64
    }

    /// Total simulated ticks including cooldown.
    pub fn total_ticks(&self) -> u64 {
        self.horizon_ticks() + (self.cooldown_s / self.tick_s).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_horizon() {
        let c = SimConfig::default();
        assert_eq!(c.intervals, 12);
        assert_eq!(c.ticks_per_interval(), 600);
        assert_eq!(c.horizon_ticks(), 7200); // 2 hours
        assert_eq!(c.total_ticks(), 7800);
    }

    #[test]
    fn builder_setters() {
        let c = SimConfig::default()
            .with_intervals(4)
            .with_interval_s(300.0)
            .with_seed(9);
        assert_eq!(c.intervals, 4);
        assert_eq!(c.ticks_per_interval(), 300);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn ticks_never_zero() {
        let c = SimConfig::default().with_interval_s(0.1);
        assert!(c.ticks_per_interval() >= 1);
    }
}
