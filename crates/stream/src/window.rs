//! Rolling-window slicing with watermark-based closing.
//!
//! Event time is the observation-interval index. Window `w` of a
//! [`WindowSpec`] `{ length, stride, watermark }` covers the half-open
//! interval range `[w·stride, w·stride + length)`; consecutive windows
//! overlap whenever `stride < length`. Windows close strictly in index
//! order: window `w` closes once the **frontier** (the maximum event
//! time seen so far) reaches `end(w) + watermark`, so an observation may
//! arrive up to `watermark` intervals after its window's range has
//! passed and still be absorbed. An observation whose *every* containing
//! window has already closed is a **late drop**: it is counted
//! (`stream_late_drops_total`) and discarded, never silently absorbed
//! into a published result.
//!
//! ## Window lifecycle
//!
//! ```text
//!   pending ──(frontier ≥ start)──► open ──(frontier ≥ end+watermark)──► closed
//!      │                             ▲ absorbs in-range observations        │
//!      └── never receives data ──────┘          late arrivals ──► counted & dropped
//! ```
//!
//! ## Permutation invariance
//!
//! The assembled tensor is a pure function of the *multiset* of
//! observations absorbed per cell: readings are put into a canonical
//! (total) order before averaging, so any arrival-order permutation that
//! keeps every observation inside the watermark yields a bit-identical
//! window — the property `proptest` pins down in this module's tests.

use crate::log::Observation;
use crate::{Result, StreamError};
use fault::{CorruptedObservation, ObservationStats};
use roadnet::LinkTensor;
use std::collections::BTreeMap;

/// Shape of the rolling windows, in observation intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowSpec {
    /// Window length: how many intervals one estimation sees.
    pub length: usize,
    /// Stride between consecutive window starts (`stride < length` makes
    /// windows overlap; `stride == length` tiles them).
    pub stride: usize,
    /// How many intervals past a window's end the frontier must advance
    /// before the window closes — the grace period for late arrivals.
    pub watermark: u64,
}

impl WindowSpec {
    /// Validates and builds a spec: `length` and `stride` must be
    /// positive, and `stride` may not exceed `length` (a gap between
    /// windows would drop in-range observations on the floor).
    pub fn new(length: usize, stride: usize, watermark: u64) -> Result<Self> {
        if length == 0 || stride == 0 {
            return Err(StreamError::Config(format!(
                "window length ({length}) and stride ({stride}) must be positive"
            )));
        }
        if stride > length {
            return Err(StreamError::Config(format!(
                "stride ({stride}) > length ({length}) leaves interval gaps no window covers"
            )));
        }
        Ok(Self {
            length,
            stride,
            watermark,
        })
    }

    /// First interval of window `w` (inclusive).
    pub fn start(&self, w: usize) -> u64 {
        (w as u64).saturating_mul(self.stride as u64)
    }

    /// One past the last interval of window `w` (exclusive).
    pub fn end(&self, w: usize) -> u64 {
        self.start(w).saturating_add(self.length as u64)
    }
}

/// One closed window, ready for estimation.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// Window index (0-based).
    pub index: usize,
    /// First interval covered (inclusive).
    pub start: u64,
    /// One past the last interval covered (exclusive).
    pub end: u64,
    /// `links × length` speed tensor. Cells with no reading are imputed
    /// with the link's mean observed speed (tensor-wide mean when a link
    /// had no reading at all); [`ClosedWindow::mask`] is the truth about
    /// which cells were actually observed.
    pub observed: LinkTensor,
    /// Row-major `links × length` observation mask: `true` = at least
    /// one reading landed in the cell.
    pub mask: Vec<bool>,
    /// Total readings absorbed (a cell may hold several).
    pub observations: usize,
}

impl ClosedWindow {
    /// True when not a single observation landed in the window.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// Fraction of cells with at least one reading.
    pub fn observed_fraction(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.mask.iter().filter(|&&m| m).count() as f64 / self.mask.len() as f64
    }
}

/// Slices an arrival-ordered observation stream into closed windows.
///
/// Feed observations with [`WindowSlicer::push`]; each call returns the
/// windows (in index order) that the new frontier closed. Call
/// [`WindowSlicer::flush`] at end-of-stream to close every window the
/// frontier has started.
#[derive(Debug)]
pub struct WindowSlicer {
    spec: WindowSpec,
    n_links: usize,
    next_close: usize,
    frontier: Option<u64>,
    // Per open window: one reading multiset per (link, column) cell.
    cells: BTreeMap<usize, Vec<Vec<f64>>>,
    late_drops: u64,
    invalid_drops: u64,
}

impl WindowSlicer {
    /// A slicer over `n_links` sensors.
    pub fn new(spec: WindowSpec, n_links: usize) -> Self {
        Self {
            spec,
            n_links,
            next_close: 0,
            frontier: None,
            cells: BTreeMap::new(),
            late_drops: 0,
            invalid_drops: 0,
        }
    }

    /// The slicer's window spec.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Maximum event time seen so far.
    pub fn frontier(&self) -> Option<u64> {
        self.frontier
    }

    /// Observations dropped because every containing window had closed.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Observations dropped for non-finite speed or unknown link.
    pub fn invalid_drops(&self) -> u64 {
        self.invalid_drops
    }

    /// Inclusive window-index range containing interval `g`.
    fn containing(&self, g: u64) -> (usize, usize) {
        let stride = self.spec.stride as u64;
        let len = self.spec.length as u64;
        let hi = (g / stride) as usize;
        let lo = if g < len {
            0
        } else {
            // ceil((g + 1 - len) / stride)
            ((g + 1 - len).div_ceil(stride)) as usize
        };
        (lo, hi)
    }

    /// Absorbs one observation and returns any windows it closed.
    pub fn push(&mut self, obs: Observation) -> Vec<ClosedWindow> {
        let (lo, hi) = self.containing(obs.interval);
        if hi < self.next_close {
            // Every window that could hold this observation has closed:
            // count the drop — silence here would corrupt published
            // windows' "observations" accounting.
            self.late_drops += 1;
            obs::global().counter("stream_late_drops_total").inc();
            return Vec::new();
        }
        if obs.link.0 >= self.n_links || !obs.speed.is_finite() {
            self.invalid_drops += 1;
            obs::global().counter("stream_invalid_obs_total").inc();
            return Vec::new();
        }
        let length = self.spec.length;
        let n_cells = self.n_links * length;
        for w in lo.max(self.next_close)..=hi {
            let col = (obs.interval - self.spec.start(w)) as usize;
            let cell = obs.link.0 * length + col;
            let grid = self
                .cells
                .entry(w)
                .or_insert_with(|| vec![Vec::new(); n_cells]);
            if let Some(readings) = grid.get_mut(cell) {
                readings.push(obs.speed);
            }
        }
        self.frontier = Some(self.frontier.map_or(obs.interval, |f| f.max(obs.interval)));
        self.close_ready()
    }

    /// Closes every window whose watermark the frontier has passed.
    fn close_ready(&mut self) -> Vec<ClosedWindow> {
        let mut out = Vec::new();
        while let Some(frontier) = self.frontier {
            let end = self.spec.end(self.next_close);
            if frontier < end.saturating_add(self.spec.watermark) {
                break;
            }
            out.push(self.close_one());
        }
        out
    }

    /// Closes every window the frontier has *started* (its first
    /// interval has been reached), regardless of watermark — the
    /// end-of-stream drain.
    pub fn flush(&mut self) -> Vec<ClosedWindow> {
        let mut out = Vec::new();
        while let Some(frontier) = self.frontier {
            if self.spec.start(self.next_close) > frontier
                && !self.cells.contains_key(&self.next_close)
            {
                break;
            }
            out.push(self.close_one());
        }
        out
    }

    fn close_one(&mut self) -> ClosedWindow {
        let w = self.next_close;
        self.next_close += 1;
        let length = self.spec.length;
        let n_cells = self.n_links * length;
        let grid = self
            .cells
            .remove(&w)
            .unwrap_or_else(|| vec![Vec::new(); n_cells]);
        let mut data = vec![0.0_f64; n_cells];
        let mut mask = vec![false; n_cells];
        let mut observations = 0usize;
        for ((mut readings, value), seen) in grid.into_iter().zip(&mut data).zip(&mut mask) {
            if readings.is_empty() {
                continue;
            }
            observations += readings.len();
            // Canonical order before averaging: the multiset decides the
            // cell value, not the arrival order (f64 addition is not
            // associative enough to skip this).
            readings.sort_by(f64::total_cmp);
            *value = readings.iter().sum::<f64>() / readings.len() as f64;
            *seen = true;
        }
        let reg = obs::global();
        reg.counter("stream_windows_closed_total").inc();
        if observations == 0 {
            reg.counter("stream_windows_empty_total").inc();
        }
        // lint: allow(panic) — data/mask were sized n_links*length above
        let speed = LinkTensor::from_data(self.n_links, length, data)
            .expect("window grid is exactly links x length");
        let corrupted = CorruptedObservation {
            speed,
            mask: mask.clone(),
            stats: ObservationStats::default(),
        };
        ClosedWindow {
            index: w,
            start: self.spec.start(w),
            end: self.spec.end(w),
            observed: corrupted.imputed(),
            mask,
            observations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use roadnet::LinkId;

    fn obs(link: usize, interval: u64, speed: f64) -> Observation {
        Observation {
            link: LinkId(link),
            interval,
            speed,
        }
    }

    fn spec(length: usize, stride: usize, watermark: u64) -> WindowSpec {
        WindowSpec::new(length, stride, watermark).unwrap()
    }

    #[test]
    fn spec_validation_rejects_gaps_and_zeros() {
        assert!(WindowSpec::new(0, 1, 0).is_err());
        assert!(WindowSpec::new(4, 0, 0).is_err());
        assert!(WindowSpec::new(4, 5, 0).is_err());
        let s = spec(4, 2, 1);
        assert_eq!(s.start(3), 6);
        assert_eq!(s.end(3), 10);
    }

    #[test]
    fn windows_close_in_order_when_frontier_passes_watermark() {
        // length 4, stride 2, watermark 1: window 0 = [0,4), closes at
        // frontier >= 5; window 1 = [2,6), closes at frontier >= 7.
        let mut s = WindowSlicer::new(spec(4, 2, 1), 2);
        for t in 0..5 {
            assert!(s.push(obs(0, t, 10.0)).is_empty(), "t={t}");
        }
        let closed = s.push(obs(1, 5, 12.0));
        assert_eq!(closed.len(), 1);
        let w0 = &closed[0];
        assert_eq!((w0.index, w0.start, w0.end), (0, 0, 4));
        assert_eq!(w0.observations, 4);
        // Link 0 observed every interval of the window, link 1 none.
        assert!(w0.mask[..4].iter().all(|&m| m));
        assert!(w0.mask[4..].iter().all(|&m| !m));
        // Imputation filled link 1's row from the observed mean.
        assert!((w0.observed.get(LinkId(1), 0) - 10.0).abs() < 1e-12);
        assert_eq!(s.next_close, 1);
    }

    #[test]
    fn overlapping_windows_share_observations() {
        // length 4, stride 2: interval 3 belongs to windows 0 and 1.
        let mut s = WindowSlicer::new(spec(4, 2, 0), 1);
        s.push(obs(0, 3, 9.0));
        let mut closed = s.push(obs(0, 7, 5.0));
        closed.extend(s.flush());
        let w0 = closed.iter().find(|w| w.index == 0).unwrap();
        let w1 = closed.iter().find(|w| w.index == 1).unwrap();
        assert_eq!(w0.observed.get(LinkId(0), 3), 9.0);
        assert_eq!(w1.observed.get(LinkId(0), 1), 9.0);
    }

    #[test]
    fn late_observation_is_counted_and_dropped() {
        let mut s = WindowSlicer::new(spec(2, 2, 0), 1);
        // Frontier jumps to 6: windows [0,2) [2,4) [4,6) all close.
        let closed = s.push(obs(0, 6, 8.0));
        assert_eq!(closed.len(), 3);
        assert!(closed.iter().all(|w| w.is_empty()));
        // Interval 1 only fits window 0, which has closed.
        assert!(s.push(obs(0, 1, 8.0)).is_empty());
        assert_eq!(s.late_drops(), 1);
        // Interval 6 fits the still-open window 3: not late.
        assert!(s.push(obs(0, 7, 8.0)).is_empty());
        assert_eq!(s.late_drops(), 1);
    }

    #[test]
    fn within_watermark_straggler_is_absorbed() {
        // watermark 2: window 0 = [0,2) closes at frontier >= 4.
        let mut s = WindowSlicer::new(spec(2, 2, 2), 1);
        s.push(obs(0, 0, 10.0));
        s.push(obs(0, 3, 7.0)); // frontier 3 < 4: window 0 still open
        s.push(obs(0, 1, 6.0)); // straggler for window 0, absorbed
        let closed = s.push(obs(0, 4, 7.0));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].observations, 2);
        assert_eq!(closed[0].observed.get(LinkId(0), 1), 6.0);
        assert_eq!(s.late_drops(), 0);
    }

    #[test]
    fn empty_and_all_late_windows_close_empty() {
        let mut s = WindowSlicer::new(spec(2, 2, 0), 1);
        // Nothing for window 0; frontier jump closes it empty.
        let closed = s.push(obs(0, 2, 5.0));
        assert_eq!(closed.len(), 1);
        assert!(closed[0].is_empty());
        assert_eq!(closed[0].observed_fraction(), 0.0);
        // All of window 1's data arrives after it closed -> all-late
        // window: closes empty, drops counted.
        let closed = s.push(obs(0, 4, 5.0));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 1);
        assert_eq!(closed[0].observations, 1); // the t=2 reading above
        for t in [2, 3] {
            assert!(s.push(obs(0, t, 9.0)).is_empty());
        }
        assert_eq!(s.late_drops(), 2);
    }

    #[test]
    fn invalid_observations_are_dropped_not_absorbed() {
        let mut s = WindowSlicer::new(spec(2, 2, 0), 1);
        s.push(obs(5, 0, 10.0)); // unknown link
        s.push(obs(0, 0, f64::NAN)); // non-finite
        assert_eq!(s.invalid_drops(), 2);
        let closed = s.push(obs(0, 2, 5.0));
        assert_eq!(closed.len(), 1);
        assert!(closed[0].is_empty());
    }

    #[test]
    fn duplicate_cell_readings_average() {
        let mut s = WindowSlicer::new(spec(2, 2, 0), 1);
        s.push(obs(0, 0, 4.0));
        s.push(obs(0, 0, 8.0));
        let closed = s.push(obs(0, 2, 1.0));
        assert_eq!(closed[0].observed.get(LinkId(0), 0), 6.0);
        assert_eq!(closed[0].observations, 2);
    }

    #[test]
    fn flush_closes_started_windows_only() {
        let mut s = WindowSlicer::new(spec(4, 2, 5), 2);
        s.push(obs(0, 0, 3.0));
        s.push(obs(1, 3, 4.0));
        let drained = s.flush();
        // Frontier 3: windows 0 [0,4) and 1 [2,6) have started.
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].index, 0);
        assert_eq!(drained[1].index, 1);
        assert!(s.flush().is_empty());
    }

    proptest! {
        /// Any arrival-order permutation that stays within the watermark
        /// yields bit-identical closed windows.
        #[test]
        fn slicing_is_arrival_order_invariant(
            seed in 0u64..500,
            n_links in 1usize..4,
            speeds in proptest::collection::vec(1.0f64..30.0, 24),
        ) {
            use neural::rng::Rng64;
            let spec = spec(4, 2, 4);
            // Event times spread over [0, 12); watermark 4 means window 0
            // ([0,4), closes at frontier >= 8) tolerates any permutation
            // of a batch whose frontier prefix stays below 8 — so permute
            // within blocks of 8 consecutive arrivals.
            let mut rng = Rng64::for_index(seed, 0);
            let base: Vec<_> = speeds
                .iter()
                .enumerate()
                .map(|(i, &sp)| Observation {
                    link: roadnet::LinkId(i % n_links),
                    interval: (rng.index(12)) as u64,
                    speed: sp,
                })
                .collect();

            let run = |order: &[Observation]| {
                let mut s = WindowSlicer::new(spec, n_links);
                let mut closed = Vec::new();
                for &o in order {
                    closed.extend(s.push(o));
                }
                closed.extend(s.flush());
                (closed, s.late_drops())
            };

            // Sorting by event time first makes every batch watermark-safe:
            // each permuted block then spans at most a few intervals.
            let mut sorted = base.clone();
            sorted.sort_by_key(|o| o.interval);
            let (reference, ref_late) = run(&sorted);

            // Permute within blocks of 4 consecutive arrivals (intervals
            // inside a block differ by < watermark by construction).
            let mut permuted = sorted.clone();
            let mut prng = Rng64::for_index(seed, 1);
            for block in permuted.chunks_mut(4) {
                for i in (1..block.len()).rev() {
                    block.swap(i, prng.index(i + 1));
                }
            }
            let (got, got_late) = run(&permuted);

            prop_assert_eq!(reference.len(), got.len());
            prop_assert_eq!(ref_late, got_late);
            for (a, b) in reference.iter().zip(&got) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.observations, b.observations);
                prop_assert_eq!(&a.mask, &b.mask);
                // Bit-identical assembled tensors.
                let av: Vec<u64> = a.observed.as_slice().iter().map(|v| v.to_bits()).collect();
                let bv: Vec<u64> = b.observed.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(av, bv);
            }
        }
    }
}
