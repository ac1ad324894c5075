//! Scheduled network perturbations: closures, capacity drops, signal
//! outages.
//!
//! An [`IncidentSchedule`] is a validated, sorted timeline of
//! [`ScheduledIncident`]s the engine replays deterministically: every
//! effect is a pure function of `(schedule, tick)`, so a run with a given
//! schedule is bit-identical across thread counts and replayable from the
//! fault-plan seed that generated it. The schedule also slices cleanly
//! into per-frame views ([`IncidentSchedule::clipped`]) for the streaming
//! source, which simulates each window in its own tick coordinates.

use roadnet::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What an incident does to its target while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IncidentKind {
    /// The link is removed from service: zero entry capacity, routing
    /// masks it out, traffic already on the link crawls off.
    Closure,
    /// Saturation flow (and free-flow speed) scaled by `1 - severity`.
    CapacityDrop,
    /// Signal control fails: severity ≥ 0.5 is all-red, below that the
    /// controller freezes in the phase it held at onset.
    SignalOutage,
}

impl IncidentKind {
    /// Parses the fault-plan spelling of a kind.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "closure" => Some(Self::Closure),
            "capacity_drop" => Some(Self::CapacityDrop),
            "signal_outage" => Some(Self::SignalOutage),
            _ => None,
        }
    }

    /// Stable label (the inverse of [`IncidentKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Self::Closure => "closure",
            Self::CapacityDrop => "capacity_drop",
            Self::SignalOutage => "signal_outage",
        }
    }

    /// Stable numeric code used in flat artifact sections.
    pub fn code(self) -> u8 {
        match self {
            Self::Closure => 0,
            Self::CapacityDrop => 1,
            Self::SignalOutage => 2,
        }
    }

    /// Inverse of [`IncidentKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Closure),
            1 => Some(Self::CapacityDrop),
            2 => Some(Self::SignalOutage),
            _ => None,
        }
    }
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What an incident targets: a single directed link, or an intersection
/// (which resolves to every link feeding it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentTarget {
    /// One directed road segment.
    Link(LinkId),
    /// An intersection: resolves to every approach (incoming link).
    Node(NodeId),
}

// The workspace serde stand-in cannot derive data-carrying enums; render
// the target as a one-key object ({"link": i} | {"node": i}) by hand.
impl Serialize for IncidentTarget {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::Value;
        let (key, idx) = match self {
            Self::Link(l) => ("link", l.index()),
            Self::Node(n) => ("node", n.index()),
        };
        Value::Obj(vec![(key.to_string(), Value::UInt(idx as u64))])
    }
}

impl Deserialize for IncidentTarget {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
        if let Some(i) = v.get("link").and_then(|x| x.as_u64()) {
            return Ok(Self::Link(LinkId(i as usize)));
        }
        if let Some(i) = v.get("node").and_then(|x| x.as_u64()) {
            return Ok(Self::Node(NodeId(i as usize)));
        }
        Err(serde::Error::custom(
            "incident target: expected {\"link\": i} or {\"node\": i}",
        ))
    }
}

impl IncidentTarget {
    /// Stable numeric code used in flat artifact sections.
    pub fn code(self) -> u8 {
        match self {
            Self::Link(_) => 0,
            Self::Node(_) => 1,
        }
    }

    /// The dense index of the targeted entity.
    pub fn index(self) -> usize {
        match self {
            Self::Link(l) => l.index(),
            Self::Node(n) => n.index(),
        }
    }
}

impl fmt::Display for IncidentTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Link(l) => write!(f, "{l}"),
            Self::Node(n) => write!(f, "{n}"),
        }
    }
}

/// One scheduled perturbation, active over the half-open tick range
/// `[onset_tick, onset_tick + duration_ticks)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledIncident {
    /// What happens to the target.
    pub kind: IncidentKind,
    /// The link or intersection hit.
    pub target: IncidentTarget,
    /// Tick the incident begins.
    pub onset_tick: u64,
    /// How many ticks it lasts.
    pub duration_ticks: u64,
    /// Strength in `(0, 1]`: fraction of capacity removed for drops,
    /// crawl-speed factor for closures, outage mode for signals.
    pub severity: f64,
}

impl ScheduledIncident {
    /// First tick after the incident has cleared.
    pub fn end_tick(&self) -> u64 {
        self.onset_tick.saturating_add(self.duration_ticks)
    }

    /// Whether the incident is active at `tick`.
    pub fn active_at(&self, tick: u64) -> bool {
        tick >= self.onset_tick && tick < self.end_tick()
    }

    /// Whether the active range intersects the half-open `[start, end)`.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        self.onset_tick < end && self.end_tick() > start
    }
}

/// A sorted timeline of incidents. Empty schedules are free: the engine
/// skips the perturbation machinery entirely.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IncidentSchedule {
    incidents: Vec<ScheduledIncident>,
}

impl IncidentSchedule {
    /// Builds a schedule, sorting incidents into a canonical order so two
    /// schedules with the same content compare and replay identically.
    pub fn new(mut incidents: Vec<ScheduledIncident>) -> Self {
        incidents.sort_by(|a, b| {
            (a.onset_tick, a.kind, a.target, a.duration_ticks).cmp(&(
                b.onset_tick,
                b.kind,
                b.target,
                b.duration_ticks,
            ))
        });
        Self { incidents }
    }

    /// True when the schedule carries no incidents.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Number of scheduled incidents.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// The incidents in canonical (onset-sorted) order.
    pub fn incidents(&self) -> &[ScheduledIncident] {
        &self.incidents
    }

    /// Number of incidents active at `tick`.
    pub fn active_count(&self, tick: u64) -> usize {
        self.incidents.iter().filter(|i| i.active_at(tick)).count()
    }

    /// Every tick at which the active set changes (onsets and
    /// clearances), sorted and deduplicated. The engine only recomputes
    /// its effective link state at these ticks.
    pub fn boundaries(&self) -> Vec<u64> {
        let mut ticks: Vec<u64> = self
            .incidents
            .iter()
            .flat_map(|i| [i.onset_tick, i.end_tick()])
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        ticks
    }

    /// The schedule as seen by a sub-run covering global ticks
    /// `[offset, offset + horizon)`, re-based to local tick 0. Incidents
    /// are intersected with the range and dropped when the intersection
    /// is empty — a pure function of `(offset, horizon)`, which is what
    /// makes streaming replay deterministic.
    pub fn clipped(&self, offset: u64, horizon: u64) -> IncidentSchedule {
        let end = offset.saturating_add(horizon);
        let incidents = self
            .incidents
            .iter()
            .filter(|i| i.overlaps(offset, end))
            .map(|i| {
                let onset = i.onset_tick.max(offset);
                let clear = i.end_tick().min(end);
                ScheduledIncident {
                    onset_tick: onset - offset,
                    duration_ticks: clear - onset,
                    ..*i
                }
            })
            .collect();
        IncidentSchedule::new(incidents)
    }

    /// Validates targets against a network and severities against the
    /// `(0, 1]` contract.
    pub fn validate(&self, n_links: usize, n_nodes: usize) -> Result<(), String> {
        for (i, inc) in self.incidents.iter().enumerate() {
            if !(inc.severity > 0.0 && inc.severity <= 1.0) {
                return Err(format!(
                    "incident {i}: severity {} outside (0, 1]",
                    inc.severity
                ));
            }
            if inc.duration_ticks == 0 {
                return Err(format!("incident {i}: zero duration"));
            }
            match inc.target {
                IncidentTarget::Link(l) if l.index() >= n_links => {
                    return Err(format!(
                        "incident {i}: link {l} out of range ({n_links} links)"
                    ));
                }
                IncidentTarget::Node(n) if n.index() >= n_nodes => {
                    return Err(format!(
                        "incident {i}: node {n} out of range ({n_nodes} nodes)"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(kind: IncidentKind, onset: u64, dur: u64) -> ScheduledIncident {
        ScheduledIncident {
            kind,
            target: IncidentTarget::Link(LinkId(1)),
            onset_tick: onset,
            duration_ticks: dur,
            severity: 0.8,
        }
    }

    #[test]
    fn activity_and_overlap_are_half_open() {
        let i = inc(IncidentKind::Closure, 10, 5);
        assert!(!i.active_at(9));
        assert!(i.active_at(10));
        assert!(i.active_at(14));
        assert!(!i.active_at(15));
        assert!(i.overlaps(0, 11));
        assert!(i.overlaps(14, 100));
        assert!(!i.overlaps(0, 10));
        assert!(!i.overlaps(15, 100));
    }

    #[test]
    fn schedule_sorts_and_reports_boundaries() {
        let s = IncidentSchedule::new(vec![
            inc(IncidentKind::SignalOutage, 20, 10),
            inc(IncidentKind::Closure, 5, 10),
        ]);
        assert_eq!(s.incidents()[0].onset_tick, 5);
        assert_eq!(s.boundaries(), vec![5, 15, 20, 30]);
        assert_eq!(s.active_count(7), 1);
        assert_eq!(s.active_count(17), 0);
        assert_eq!(s.active_count(25), 1);
    }

    #[test]
    fn clipping_rebases_and_drops_disjoint_incidents() {
        let s = IncidentSchedule::new(vec![inc(IncidentKind::Closure, 10, 20)]);
        // Frame [0, 10): incident has not started.
        assert!(s.clipped(0, 10).is_empty());
        // Frame [10, 20): fully active.
        let c = s.clipped(10, 10);
        assert_eq!(c.incidents()[0].onset_tick, 0);
        assert_eq!(c.incidents()[0].duration_ticks, 10);
        // Frame [25, 35): straddles the clearance at 30.
        let c = s.clipped(25, 10);
        assert_eq!(c.incidents()[0].onset_tick, 0);
        assert_eq!(c.incidents()[0].duration_ticks, 5);
        // Frame [5, 40): onset mid-frame.
        let c = s.clipped(5, 35);
        assert_eq!(c.incidents()[0].onset_tick, 5);
        assert_eq!(c.incidents()[0].duration_ticks, 20);
        // Frame [30, 40): cleared exactly at frame start.
        assert!(s.clipped(30, 10).is_empty());
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            IncidentKind::Closure,
            IncidentKind::CapacityDrop,
            IncidentKind::SignalOutage,
        ] {
            assert_eq!(IncidentKind::from_code(k.code()), Some(k));
            assert_eq!(IncidentKind::parse(k.label()), Some(k));
        }
        assert_eq!(IncidentKind::from_code(9), None);
        assert_eq!(IncidentKind::parse("closur"), None);
    }

    #[test]
    fn validate_rejects_bad_incidents() {
        let mut i = inc(IncidentKind::Closure, 0, 10);
        i.severity = 0.0;
        assert!(IncidentSchedule::new(vec![i]).validate(4, 4).is_err());
        let mut i = inc(IncidentKind::Closure, 0, 0);
        i.severity = 0.5;
        assert!(IncidentSchedule::new(vec![i]).validate(4, 4).is_err());
        let i = inc(IncidentKind::Closure, 0, 10);
        assert!(IncidentSchedule::new(vec![i]).validate(1, 4).is_err());
        assert!(IncidentSchedule::new(vec![i]).validate(4, 4).is_ok());
    }
}
