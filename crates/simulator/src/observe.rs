//! Observation of per-link volume and speed.
//!
//! Matches the paper's data model (§III): for every link `l_j` and interval
//! `t` we record
//!
//! * **volume** `q_{j,t}` — the number of vehicles entering the link during
//!   the interval, and
//! * **speed** `v_{j,t}` — the time-average of the link's instantaneous
//!   space-mean vehicle speed. Ticks where the link is empty contribute the
//!   link's attainable free-flow speed, mirroring how map providers report
//!   free-flowing speed for uncongested roads (the paper's "speed data can
//!   be easily probed by a few vehicles").

use roadnet::{LinkId, LinkTensor};

/// Accumulates observations during a run and finalises into tensors.
///
/// Per-tick recordings land in flat per-link scratch vectors (a plain
/// indexed `+=`, no tensor addressing); the scratch is flushed into the
/// interval tensors once per interval roll. Because every tensor cell
/// receives ticks from exactly one interval, scratch accumulation performs
/// the *same additions in the same order* as direct per-tick tensor writes
/// — the finalised tensors are bit-identical.
#[derive(Debug)]
pub struct Observer {
    t: usize,
    ticks_per_interval: u64,
    /// Interval the scratch vectors currently accumulate.
    cur: usize,
    vol_scratch: Vec<f64>,
    speed_scratch: Vec<f64>,
    count_scratch: Vec<f64>,
    volume: LinkTensor,
    /// Sum of per-tick space-mean speeds, per (link, interval).
    speed_sum: LinkTensor,
    /// Sum of per-tick vehicle counts, per (link, interval).
    count_sum: LinkTensor,
}

impl Observer {
    /// Creates an observer for `m` links over `t` intervals.
    pub fn new(m: usize, t: usize, ticks_per_interval: u64) -> Self {
        Self {
            t,
            ticks_per_interval: ticks_per_interval.max(1),
            cur: 0,
            vol_scratch: vec![0.0; m],
            speed_scratch: vec![0.0; m],
            count_scratch: vec![0.0; m],
            volume: LinkTensor::zeros(m, t),
            speed_sum: LinkTensor::zeros(m, t),
            count_sum: LinkTensor::zeros(m, t),
        }
    }

    /// Moves the scratch accumulators into the tensors for the interval
    /// they belong to and retargets them at `next`.
    fn roll(&mut self, next: usize) {
        self.flush();
        self.cur = next;
    }

    fn flush(&mut self) {
        if self.cur < self.t {
            let rows = self
                .vol_scratch
                .iter()
                .zip(self.speed_scratch.iter())
                .zip(self.count_scratch.iter())
                .enumerate();
            for (li, ((&vol, &spd), &cnt)) in rows {
                let l = LinkId(li);
                self.volume.add_at(l, self.cur, vol);
                self.speed_sum.add_at(l, self.cur, spd);
                self.count_sum.add_at(l, self.cur, cnt);
            }
        }
        self.vol_scratch.fill(0.0);
        self.speed_scratch.fill(0.0);
        self.count_scratch.fill(0.0);
    }

    /// Records a vehicle entering `link` during `interval`. Entries during
    /// the cooldown (interval >= T) are ignored.
    #[inline]
    pub fn record_entry(&mut self, link: LinkId, interval: usize) {
        if interval >= self.t {
            return;
        }
        if interval != self.cur {
            self.roll(interval);
        }
        if let Some(v) = self.vol_scratch.get_mut(link.index()) {
            *v += 1.0;
        }
    }

    /// Records this tick's space-mean speed for `link`: the mean speed of
    /// its vehicles, or `free_flow` when the link is empty.
    #[inline]
    pub fn record_tick(
        &mut self,
        link: LinkId,
        interval: usize,
        vehicle_speed_sum: f64,
        vehicle_count: usize,
        free_flow: f64,
    ) {
        if interval >= self.t {
            return;
        }
        if interval != self.cur {
            self.roll(interval);
        }
        let mean = if vehicle_count == 0 {
            free_flow
        } else {
            vehicle_speed_sum / vehicle_count as f64
        };
        let li = link.index();
        if let (Some(s), Some(c)) = (
            self.speed_scratch.get_mut(li),
            self.count_scratch.get_mut(li),
        ) {
            *s += mean;
            *c += vehicle_count as f64;
        }
    }

    /// Finalises into `(volume, speed, occupancy)` tensors. Occupancy is
    /// the time-mean vehicle count on the link per interval — the density
    /// axis of a macroscopic fundamental diagram.
    pub fn finalize(mut self) -> (LinkTensor, LinkTensor, LinkTensor) {
        self.flush();
        let mut speed = self.speed_sum;
        let mut occupancy = self.count_sum;
        let ticks = self.ticks_per_interval as f64;
        speed.map_inplace(|s| s / ticks);
        occupancy.map_inplace(|c| c / ticks);
        (self.volume, speed, occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_counts_entries() {
        let mut o = Observer::new(2, 2, 10);
        o.record_entry(LinkId(0), 0);
        o.record_entry(LinkId(0), 0);
        o.record_entry(LinkId(1), 1);
        let (vol, _, _) = o.finalize();
        assert_eq!(vol.get(LinkId(0), 0), 2.0);
        assert_eq!(vol.get(LinkId(1), 1), 1.0);
        assert_eq!(vol.get(LinkId(1), 0), 0.0);
    }

    #[test]
    fn cooldown_entries_ignored() {
        let mut o = Observer::new(1, 2, 10);
        o.record_entry(LinkId(0), 2);
        o.record_entry(LinkId(0), 99);
        let (vol, _, _) = o.finalize();
        assert_eq!(vol.total(), 0.0);
    }

    #[test]
    fn empty_link_reports_free_flow() {
        let mut o = Observer::new(1, 1, 4);
        for _ in 0..4 {
            o.record_tick(LinkId(0), 0, 0.0, 0, 13.0);
        }
        let (_, speed, _) = o.finalize();
        assert!((speed.get(LinkId(0), 0) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn speed_is_tick_average_of_space_means() {
        let mut o = Observer::new(1, 1, 2);
        // tick 1: two vehicles at 4 and 6 -> mean 5; tick 2: empty -> 13
        o.record_tick(LinkId(0), 0, 10.0, 2, 13.0);
        o.record_tick(LinkId(0), 0, 0.0, 0, 13.0);
        let (_, speed, _) = o.finalize();
        assert!((speed.get(LinkId(0), 0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_is_time_mean_count() {
        let mut o = Observer::new(1, 1, 4);
        o.record_tick(LinkId(0), 0, 20.0, 4, 13.0);
        o.record_tick(LinkId(0), 0, 10.0, 2, 13.0);
        o.record_tick(LinkId(0), 0, 0.0, 0, 13.0);
        o.record_tick(LinkId(0), 0, 0.0, 0, 13.0);
        let (_, _, occ) = o.finalize();
        assert!((occ.get(LinkId(0), 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn congestion_lowers_reported_speed() {
        let mut free = Observer::new(1, 1, 3);
        let mut jam = Observer::new(1, 1, 3);
        for _ in 0..3 {
            free.record_tick(LinkId(0), 0, 0.0, 0, 13.0);
            jam.record_tick(LinkId(0), 0, 2.0, 2, 13.0); // crawling
        }
        let (_, vf, _) = free.finalize();
        let (_, vj, _) = jam.finalize();
        assert!(vj.get(LinkId(0), 0) < vf.get(LinkId(0), 0));
    }
}
