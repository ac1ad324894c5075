//! Case-study demand scripts (§V-K, Figures 12-13, Table X).
//!
//! The paper's case studies feed *real* Gaode/Google speed data into OVS
//! and check the recovered TOD against known human rhythms. We have no map
//! feed (DESIGN.md substitution table), so we encode those rhythms as
//! ground-truth demand, simulate the speeds, and let the estimators
//! recover the TOD from speed alone. The check stays the same: does the
//! recovered TOD show the documented peaks?
//!
//! * **Case 1 — Hangzhou Sunday** (Fig 12): trips residential A ->
//!   commercial B peak around 10:00 and 18:00 (shopping); B -> A peaks
//!   20:00-01:00 (late return).
//! * **Case 2 — State College football** (Fig 13): a Saturday game at
//!   noon; inflows to the stadium peak around 09:00; the two origins near
//!   highway exits (O1, O3) dwarf the local residential origin (O2).

use neural::rng::Rng64;
use roadnet::{OdPair, OdPairId, OdSet, RegionId, RoadNetwork, TodTensor};

use crate::city::{assign_roles, RegionRole};

/// A Gaussian bump centred at `center` (hours) with width `sigma`.
fn bump(hour: f64, center: f64, sigma: f64) -> f64 {
    let d = (hour - center) / sigma;
    (-0.5 * d * d).exp()
}

/// Sunday A->B (residential to commercial) hourly intensity: two shopping
/// peaks (10:00, 18:00) over a small base. Exposed for tests and plots.
pub fn sunday_a_to_b(hour: f64) -> f64 {
    0.15 + 1.0 * bump(hour, 10.0, 1.6) + 0.9 * bump(hour, 18.0, 1.6)
}

/// Sunday B->A (commercial to residential) hourly intensity: one broad
/// late-evening peak from 20:00 into the night.
pub fn sunday_b_to_a(hour: f64) -> f64 {
    // Peak centred at 22:00 with mass through 01:00 (wraps past midnight).
    0.15 + 1.1 * bump(hour, 22.0, 2.2) + 1.1 * bump(hour + 24.0, 22.0, 2.2)
}

/// Output of the Hangzhou Sunday script.
#[derive(Debug, Clone)]
pub struct SundayCase {
    /// Full ground-truth TOD tensor over `ods`.
    pub tod: TodTensor,
    /// Index of the A->B pair (residential -> commercial).
    pub a_to_b: OdPairId,
    /// Index of the B->A pair.
    pub b_to_a: OdPairId,
    /// Region A (residential).
    pub region_a: RegionId,
    /// Region B (commercial).
    pub region_b: RegionId,
}

/// Builds the Sunday demand over a full day discretised into `t`
/// intervals. `peak_trips` scales the A<->B peak; other ODs carry light
/// background traffic.
pub fn hangzhou_sunday(
    net: &RoadNetwork,
    ods: &OdSet,
    t: usize,
    peak_trips: f64,
    seed: u64,
) -> SundayCase {
    let roles = assign_roles(net);
    let region_a = RegionId(
        roles
            .iter()
            .position(|&r| r == RegionRole::Residential)
            .expect("assign_roles always yields a residential region"),
    );
    let region_b = RegionId(
        roles
            .iter()
            .position(|&r| r == RegionRole::Commercial)
            .expect("assign_roles always yields a commercial region"),
    );
    let a_to_b = ods
        .index_of(OdPair::new(region_a, region_b).expect("distinct roles"))
        .expect("all-pairs OD set contains A->B");
    let b_to_a = ods
        .index_of(OdPair::new(region_b, region_a).expect("distinct roles"))
        .expect("all-pairs OD set contains B->A");

    let mut rng = Rng64::new(seed);
    let mut tod = TodTensor::zeros(ods.len(), t);
    for (id, _) in ods.iter() {
        for ti in 0..t {
            let hour = 24.0 * (ti as f64 + 0.5) / t as f64;
            let value = if id == a_to_b {
                peak_trips * sunday_a_to_b(hour)
            } else if id == b_to_a {
                peak_trips * sunday_b_to_a(hour)
            } else {
                // Light background so the network is not empty.
                0.12 * peak_trips * (0.5 + 0.5 * rng.uniform())
            };
            tod.set(id, ti, value.max(0.0));
        }
    }
    SundayCase {
        tod,
        a_to_b,
        b_to_a,
        region_a,
        region_b,
    }
}

/// Hourly intensity of game-day inflow: arrivals cluster ~2 h before the
/// noon kickoff (§V-K: "most people go to the stadium at 9 am ...
/// approximately 2 hours before the game").
pub fn football_inflow(hour: f64) -> f64 {
    0.05 + bump(hour, 9.0, 1.1)
}

/// Output of the football-game script.
#[derive(Debug, Clone)]
pub struct FootballCase {
    /// Full ground-truth TOD tensor over `ods`.
    pub tod: TodTensor,
    /// The three stadium-bound ODs `(O1, O2, O3)`; O1/O3 are the
    /// highway-adjacent origins, O2 the local residential one.
    pub inflows: [OdPairId; 3],
    /// Stadium region.
    pub stadium: RegionId,
}

/// Builds Saturday-morning football demand over `t` intervals spanning
/// 06:00-12:00. Requires a network with at least 4 regions.
pub fn football_game(
    net: &RoadNetwork,
    ods: &OdSet,
    t: usize,
    peak_trips: f64,
    seed: u64,
) -> FootballCase {
    assert!(
        net.num_regions() >= 4,
        "football case needs >= 4 regions, got {}",
        net.num_regions()
    );
    // Stadium: the last region; origins O1..O3: the first three others.
    let stadium = RegionId(net.num_regions() - 1);
    let origins = [RegionId(0), RegionId(1), RegionId(2)];
    let inflows = origins.map(|o| {
        ods.index_of(OdPair::new(o, stadium).expect("distinct"))
            .expect("all-pairs OD set contains origin -> stadium")
    });
    // O1 and O3 sit near highway exits: out-of-town fans funnel through
    // them, so their magnitude dwarfs the local O2.
    let magnitudes = [1.0, 0.25, 0.9];

    let mut rng = Rng64::new(seed);
    let mut tod = TodTensor::zeros(ods.len(), t);
    for (id, _) in ods.iter() {
        for ti in 0..t {
            // horizon covers 06:00 - 12:00
            let hour = 6.0 + 6.0 * (ti as f64 + 0.5) / t as f64;
            let value = if let Some(k) = inflows.iter().position(|&f| f == id) {
                peak_trips * magnitudes[k] * football_inflow(hour)
            } else {
                0.08 * peak_trips * (0.5 + 0.5 * rng.uniform())
            };
            tod.set(id, ti, value.max(0.0));
        }
    }
    FootballCase {
        tod,
        inflows,
        stadium,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::presets;

    #[test]
    fn sunday_profiles_peak_where_documented() {
        // A->B peaks near 10 and 18
        assert!(sunday_a_to_b(10.0) > sunday_a_to_b(7.0));
        assert!(sunday_a_to_b(18.0) > sunday_a_to_b(14.5));
        assert!(sunday_a_to_b(10.0) > sunday_a_to_b(2.0));
        // B->A peaks late evening; must exceed its morning values
        assert!(sunday_b_to_a(22.0) > sunday_b_to_a(10.0));
        assert!(
            sunday_b_to_a(0.5) > sunday_b_to_a(10.0),
            "wraps past midnight"
        );
    }

    #[test]
    fn sunday_case_builds_on_hangzhou() {
        let preset = presets::hangzhou();
        let ods = OdSet::all_pairs(&preset.network);
        let case = hangzhou_sunday(&preset.network, &ods, 24, 20.0, 0);
        assert_eq!(case.tod.rows(), ods.len());
        assert_ne!(case.a_to_b, case.b_to_a);
        // reverse pair relation holds
        let ab = ods.pair(case.a_to_b).unwrap();
        let ba = ods.pair(case.b_to_a).unwrap();
        assert_eq!((ab.origin, ab.destination), (ba.destination, ba.origin));
        // A->B rows show the 10am peak: interval 10 > interval 3
        let row = case.tod.row(case.a_to_b);
        assert!(row[10] > row[3]);
        // B->A shows the late peak: interval 22 > interval 10
        let row = case.tod.row(case.b_to_a);
        assert!(row[22] > row[10]);
    }

    #[test]
    fn football_inflow_peaks_two_hours_before_noon() {
        assert!(football_inflow(9.0) > football_inflow(6.5));
        assert!(football_inflow(9.0) > football_inflow(11.5));
    }

    #[test]
    fn football_case_magnitudes() {
        let preset = presets::state_college();
        let ods = OdSet::all_pairs(&preset.network);
        let case = football_game(&preset.network, &ods, 12, 30.0, 0);
        let totals: Vec<f64> = case
            .inflows
            .iter()
            .map(|&i| case.tod.row_total(i))
            .collect();
        // O1 and O3 (highway) dwarf O2 (local)
        assert!(totals[0] > 2.0 * totals[1], "{totals:?}");
        assert!(totals[2] > 2.0 * totals[1], "{totals:?}");
        // peak interval is in the middle (9 am within 6-12 horizon)
        let row = case.tod.row(case.inflows[0]);
        let peak_idx = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((4..=8).contains(&peak_idx), "peak at interval {peak_idx}");
    }

    #[test]
    fn cases_are_deterministic() {
        let preset = presets::state_college();
        let ods = OdSet::all_pairs(&preset.network);
        let a = football_game(&preset.network, &ods, 8, 10.0, 5);
        let b = football_game(&preset.network, &ods, 8, 10.0, 5);
        assert_eq!(a.tod, b.tod);
    }
}
