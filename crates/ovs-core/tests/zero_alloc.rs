//! Steady-state steps of all three OVS training stages must be
//! allocation-free: once a stage's first steps have sized the stage
//! driver's buffer pool, the Adam moment slots and the layers' caches, a
//! V2S, TOD2V or test-time fit step touches the heap zero times.
//!
//! A counting `#[global_allocator]` wraps `System`. The count is kept per
//! thread, so neither a sibling test nor the test harness's own
//! bookkeeping can land in it; training runs on the calling thread. It is
//! read from the trainer's tamper tap, which runs once per step right
//! after the backward pass, into a buffer reserved before the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagen::{Dataset, TodPattern};
use ovs_core::estimator::EstimatorInputBuilder;
use ovs_core::trainer::{OvsTrainer, Stage};
use ovs_core::{EstimatorInput, OvsConfig, RunOptions};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread; const-initialised and without a
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (none once its
/// thread-locals are gone during thread exit).
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump; every
// call forwards the caller's layout/pointer unchanged, so `System`'s own
// GlobalAlloc contract is what holds the invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the unmodified layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller upholds GlobalAlloc's contract; layout unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the unmodified pointer/layout to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator's `alloc`, which is
        // `System.alloc`; same layout per the GlobalAlloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the unmodified arguments to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System.alloc`; layout/new_size forwarded
        // unchanged per the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Steps each stage runs before its steps must stop allocating.
const WARMUP_STEPS: usize = 3;

fn dataset() -> Dataset {
    let spec = datagen::dataset::DatasetSpec {
        t: 4,
        interval_s: 120.0,
        train_samples: 3,
        demand_scale: 0.2,
        seed: 9,
    };
    Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
}

fn input_builder(ds: &Dataset) -> EstimatorInputBuilder<'_> {
    EstimatorInput::builder(&ds.net, &ds.ods)
        .interval_s(ds.sim_config.interval_s)
        .sim_seed(ds.sim_config.seed)
        .train(&ds.train)
        .observed_speed(&ds.observed_speed)
}

/// Trains on `input` under `cfg` and asserts that every step of each of
/// `stages` after the warmup allocates nothing.
fn assert_steady_state_is_allocation_free(
    input: &EstimatorInput<'_>,
    cfg: OvsConfig,
    stages: &[Stage],
) {
    let budget = cfg.epochs_v2s + cfg.epochs_tod2v + cfg.epochs_fit;

    // (stage, step, allocations so far), one entry per step.
    let mut taps: Vec<(Stage, usize, u64)> = Vec::with_capacity(budget);
    let mut tap = |stage: Stage, step: usize, _: &mut f64, _: &mut f64| {
        taps.push((stage, step, ALLOCS.with(Cell::get)));
    };
    let (_, report) = OvsTrainer::new(cfg)
        .run(
            input,
            RunOptions {
                tamper: Some(&mut tap),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(taps.len() <= budget, "the tap buffer never regrew");

    for &stage in stages {
        let trace = match stage {
            Stage::V2s => &report.v2s_losses,
            Stage::Tod2v => &report.tod2v_losses,
            Stage::Fit => &report.fit_losses,
        };
        // Allocations between the tap of step k and that of step k + 1
        // are step k + 1's: the optimiser step and bookkeeping of step k,
        // then the forward and backward of step k + 1.
        let per_step: Vec<(usize, u64)> = taps
            .windows(2)
            .filter(|w| w[0].0 == stage && w[1].0 == stage && w[0].1 >= WARMUP_STEPS)
            .map(|w| (w[1].1, w[1].2 - w[0].2))
            .collect();
        assert!(
            per_step.len() + WARMUP_STEPS + 1 >= trace.len() && per_step.len() >= 10,
            "{}: {} steady-state steps checked of {}",
            stage.tag(),
            per_step.len(),
            trace.len()
        );
        let allocating: Vec<_> = per_step.iter().filter(|&&(_, n)| n > 0).collect();
        assert!(
            allocating.is_empty(),
            "{} steps allocated after warmup, as (step, allocations): {allocating:?}",
            stage.tag()
        );
    }
}

#[test]
fn every_stage_steps_without_allocating_after_warmup() {
    let ds = dataset();
    let input = input_builder(&ds).build();
    assert_steady_state_is_allocation_free(
        &input,
        OvsConfig::tiny(),
        &[Stage::V2s, Stage::Tod2v, Stage::Fit],
    );
}

/// The fit with all three auxiliary terms of Eq. 13 switched on: census
/// totals, camera volumes and the speed-limit penalty.
#[test]
fn fit_with_every_aux_loss_steps_without_allocating_after_warmup() {
    let ds = dataset();
    let input = input_builder(&ds)
        .census(ds.census.as_slice())
        .cameras(&ds.cameras.links, &ds.cameras.volumes)
        .build();
    assert!(!ds.cameras.is_empty());
    let mut cfg = OvsConfig::tiny().with_aux_weights(0.5, 0.5);
    cfg.w_speed_limit = 1.0;
    assert_steady_state_is_allocation_free(&input, cfg, &[Stage::Fit]);
}
