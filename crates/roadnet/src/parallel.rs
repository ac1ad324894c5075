//! Thread-count policy for the workspace's parallel sections.
//!
//! Every parallel region in the workspace (dataset generation, the
//! estimator panel, per-link fault corruption) runs on rayon and inherits
//! the ambient worker count; the `neural` kernels are serial. This module
//! owns how that count is chosen:
//!
//! 1. an explicit [`Parallelism`] scope ([`Parallelism::run`]) wins,
//! 2. otherwise the process-global pool set by [`init_global`]
//!    (`--threads` on the CLI, or the `CITYOD_THREADS` environment
//!    variable) applies,
//! 3. otherwise rayon falls back to the machine parallelism.
//!
//! Thread count never changes *results*: all parallel sections in this
//! workspace are designed to be bit-identical to their serial execution
//! (per-index RNG streams in datagen and fault, results gathered in
//! index order). Threads only change wall-clock.

/// Name of the environment variable consulted for the default thread
/// count when no `--threads` flag is given.
pub const THREADS_ENV: &str = "CITYOD_THREADS";

/// Worker-count ceiling the machine can actually run concurrently.
///
/// Requests above this never help a CPU-bound FP workload — each extra
/// worker just adds spawn and scheduling overhead — so the env/CLI-driven
/// policies ([`Parallelism::from_env`], [`init_global`]) clamp to it.
/// Explicit [`Parallelism::Threads`] scopes are *not* clamped: tests use
/// them to exercise the multi-thread paths on any machine.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Requested worker count for a parallel section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run parallel sections inline on one thread.
    Serial,
    /// Run on exactly this many worker threads (0 is treated as 1).
    Threads(usize),
    /// Inherit the ambient configuration (global pool, else machine).
    #[default]
    Auto,
}

impl Parallelism {
    /// Reads `CITYOD_THREADS`; unset, empty, or unparsable values mean
    /// [`Parallelism::Auto`], `1` means [`Parallelism::Serial`]. Counts
    /// above [`machine_threads`] are clamped — oversubscribing CPU-bound
    /// kernels only adds overhead, and thread count never changes bits.
    pub fn from_env() -> Self {
        // lint: allow(determinism) — thread-count knob; results are
        // partition-invariant by construction (see datagen tests).
        match std::env::var(THREADS_ENV) {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(0) | Err(_) => Parallelism::Auto,
                Ok(n) => match n.min(machine_threads()) {
                    1 => Parallelism::Serial,
                    m => Parallelism::Threads(m),
                },
            },
            Err(_) => Parallelism::Auto,
        }
    }

    /// The worker count this policy resolves to right now.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => rayon::current_num_threads(),
        }
    }

    /// Runs `op` with this policy's worker count in effect for every
    /// rayon parallel iterator executed inside it. `Auto` runs `op`
    /// without touching the ambient configuration.
    pub fn run<R: Send>(self, op: impl FnOnce() -> R + Send) -> R {
        match self {
            Parallelism::Auto => op(),
            other => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(other.threads())
                    .build()
                    // lint: allow(panic) — scoped pool build only fails on zero threads; threads() >= 1
                    .expect("scoped thread pool construction cannot fail");
                pool.install(op)
            }
        }
    }
}

/// Configures the process-global worker count: an explicit `requested`
/// value (e.g. from `--threads`) wins, else `CITYOD_THREADS`, else the
/// machine parallelism. Returns the effective count. Safe to call more
/// than once — the first call pins the pool (rayon's global pool cannot
/// be resized) and later calls are no-ops that report the pinned size.
pub fn init_global(requested: Option<usize>) -> usize {
    let wanted = match requested {
        Some(n) if n >= 1 => n.min(machine_threads()),
        _ => match Parallelism::from_env() {
            Parallelism::Auto => {
                return rayon::current_num_threads();
            }
            p => p.threads(),
        },
    };
    match rayon::ThreadPoolBuilder::new()
        .num_threads(wanted)
        .build_global()
    {
        Ok(()) => wanted,
        // Already initialised (by us or by an embedding application).
        Err(_) => rayon::current_num_threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resolves_to_one() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(5).threads(), 5);
    }

    #[test]
    fn run_scopes_the_worker_count() {
        assert_eq!(Parallelism::Threads(3).run(rayon::current_num_threads), 3);
        assert_eq!(Parallelism::Serial.run(rayon::current_num_threads), 1);
        // Auto leaves the ambient configuration untouched.
        let ambient = rayon::current_num_threads();
        assert_eq!(Parallelism::Auto.run(rayon::current_num_threads), ambient);
    }

    #[test]
    fn a_second_init_reports_the_size_the_first_pinned() {
        // Pinning the machine parallelism leaves the ambient count that
        // the other tests of this process read unchanged.
        let pinned = init_global(Some(machine_threads()));
        assert_eq!(pinned, machine_threads());
        assert_eq!(rayon::current_num_threads(), pinned);
        // rayon's global pool cannot be resized: a later request is a
        // no-op that reports the pinned size, not its own.
        assert_eq!(init_global(Some(1)), pinned);
    }

    #[test]
    fn machine_threads_is_positive() {
        assert!(machine_threads() >= 1);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Parallelism::Threads(4).run(|| {
            let inner = Parallelism::Serial.run(rayon::current_num_threads);
            (rayon::current_num_threads(), inner)
        });
        assert_eq!(outer, (4, 1));
    }
}
