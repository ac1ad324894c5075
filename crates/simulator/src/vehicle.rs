//! Vehicles and the car-following rule.
//!
//! We use a simplified IDM-style kinematic model: a vehicle accelerates
//! toward its desired speed with bounded acceleration, but never moves
//! further than the safe gap to its leader (or to the stop line when the
//! link head is blocked). This produces the macroscopic behaviour the
//! paper relies on — speeds fall as density rises, queues grow at red
//! lights and spill back upstream — at a fraction of full IDM's cost.

use roadnet::LinkId;
use serde::{Deserialize, Serialize};

/// Physical space one car occupies when queued (vehicle length plus
/// standstill gap), metres. Matches [`roadnet::Link::VEHICLE_FOOTPRINT_M`].
pub const FOOTPRINT_M: f64 = 7.5;

/// Queued footprint of a truck, metres.
pub const TRUCK_FOOTPRINT_M: f64 = 15.0;

/// Vehicle class: trucks are longer and accelerate more slowly, which
/// lowers effective capacity on their routes — a realism knob
/// (`SimConfig::truck_fraction`) beyond the paper's car-only fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VehicleClass {
    /// Passenger car.
    Car,
    /// Heavy vehicle.
    Truck,
}

impl VehicleClass {
    /// Queued footprint in metres.
    #[inline]
    pub fn footprint_m(self) -> f64 {
        match self {
            VehicleClass::Car => FOOTPRINT_M,
            VehicleClass::Truck => TRUCK_FOOTPRINT_M,
        }
    }

    /// Multiplier on the acceleration bound.
    #[inline]
    pub fn accel_factor(self) -> f64 {
        match self {
            VehicleClass::Car => 1.0,
            VehicleClass::Truck => 0.5,
        }
    }
}

/// Unique vehicle identifier (dense per simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VehicleId(pub u64);

/// A vehicle travelling along a fixed route.
#[derive(Debug, Clone)]
pub struct Vehicle {
    /// Identifier, assigned at spawn in spawn order.
    pub id: VehicleId,
    /// The route as a sequence of links.
    pub route: std::sync::Arc<Vec<LinkId>>,
    /// Index of the current link within `route`.
    pub leg: usize,
    /// Distance travelled along the current link, metres.
    pub pos_m: f64,
    /// Current speed, m/s.
    pub speed_mps: f64,
    /// Tick at which the vehicle entered the network.
    pub spawn_tick: u64,
    /// Vehicle class (car or truck).
    pub class: VehicleClass,
}

impl Vehicle {
    /// True when the current link is the route's last.
    #[inline]
    pub fn on_last_leg(&self) -> bool {
        self.leg + 1 == self.route.len()
    }

    /// The next link, if any.
    #[inline]
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.get(self.leg + 1).copied()
    }
}

/// One kinematic update: returns the new `(speed, position)` given the
/// distance headroom available this tick.
///
/// * `desired` — speed the vehicle would like to reach (speed limit x
///   scenario factor);
/// * `headroom_m` — how far the vehicle may travel this tick without
///   hitting its leader / the stop line;
/// * `accel`, `decel` — acceleration bounds (m/s^2), both positive;
/// * `dt` — tick length, seconds.
pub fn follow(
    speed: f64,
    desired: f64,
    headroom_m: f64,
    accel: f64,
    decel: f64,
    dt: f64,
) -> (f64, f64) {
    // Accelerate toward the desired speed, bounded both ways.
    let v_want = desired.min(speed + accel * dt).max(speed - decel * dt);
    // Never out-drive the headroom.
    let v_safe = (headroom_m.max(0.0)) / dt;
    let v_new = v_want.min(v_safe).max(0.0);
    (v_new, v_new * dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerates_toward_desired() {
        let (v, dx) = follow(0.0, 10.0, 1e9, 2.0, 4.5, 1.0);
        assert_eq!(v, 2.0);
        assert_eq!(dx, 2.0);
    }

    #[test]
    fn caps_at_desired_speed() {
        let (v, _) = follow(9.5, 10.0, 1e9, 2.0, 4.5, 1.0);
        assert_eq!(v, 10.0);
    }

    #[test]
    fn slows_for_short_headroom() {
        let (v, dx) = follow(10.0, 10.0, 3.0, 2.0, 4.5, 1.0);
        assert_eq!(v, 3.0);
        assert_eq!(dx, 3.0);
    }

    #[test]
    fn stops_for_zero_headroom() {
        let (v, dx) = follow(10.0, 10.0, 0.0, 2.0, 4.5, 1.0);
        assert_eq!(v, 0.0);
        assert_eq!(dx, 0.0);
    }

    #[test]
    fn negative_headroom_treated_as_zero() {
        let (v, dx) = follow(5.0, 10.0, -2.0, 2.0, 4.5, 1.0);
        assert_eq!(v, 0.0);
        assert_eq!(dx, 0.0);
    }

    #[test]
    fn deceleration_is_bounded_when_headroom_allows() {
        // Headroom allows 8 m but comfortable decel only drops 10 -> 5.5.
        let (v, _) = follow(10.0, 0.0, 8.0, 2.0, 4.5, 1.0);
        assert_eq!(v, 5.5);
    }

    #[test]
    fn speed_never_negative() {
        let (v, _) = follow(1.0, 0.0, 1e9, 2.0, 4.5, 1.0);
        assert!(v >= 0.0);
    }

    #[test]
    fn class_attributes() {
        assert!(VehicleClass::Truck.footprint_m() > VehicleClass::Car.footprint_m());
        assert!(VehicleClass::Truck.accel_factor() < VehicleClass::Car.accel_factor());
    }

    #[test]
    fn vehicle_route_accessors() {
        let v = Vehicle {
            id: VehicleId(0),
            route: std::sync::Arc::new(vec![LinkId(3), LinkId(5)]),
            leg: 0,
            pos_m: 0.0,
            speed_mps: 0.0,
            spawn_tick: 0,
            class: VehicleClass::Car,
        };
        assert_eq!(v.route[v.leg], LinkId(3));
        assert_eq!(v.next_link(), Some(LinkId(5)));
        assert!(!v.on_last_leg());
    }
}
