//! Storage-layer fault injection: corrupting checkpoint artifacts at rest.
//!
//! [`corrupt_artifact_bytes`] applies seeded single-bit flips and/or a
//! tail truncation to a serialized artifact; [`corrupt_artifact_file`]
//! does the same in place on disk. Flip positions come from
//! `Rng64::for_index(seed, flip_index)` restricted to the payload region
//! past the container header, so the damage lands in section bytes the
//! CRC table must catch rather than in the magic number (which would be a
//! different, less interesting failure). Recovery is the store's own
//! [`checkpoint::ArtifactStore::latest_good`]: it walks a versioned family
//! newest-first, quarantining corrupt entries, and snapshots the first
//! one that verifies clean.

use crate::plan::StorageFaults;
use neural::rng::Rng64;
use obs::global;
use std::path::Path;

/// Stable counter: artifacts corrupted by the storage injector.
pub const STORAGE_CORRUPTED: &str = "fault_storage_corrupted_artifacts_total";

/// Container bytes the injector never touches: magic (8) + version (4) +
/// section count (4). Damaging those produces an immediate `BadMagic` /
/// structural error instead of exercising the per-section CRC path.
const HEADER_BYTES: usize = 16;

/// Applies the plan's storage faults to serialized artifact bytes.
/// Deterministic in `(bytes, faults, seed)`. Returns `true` if anything
/// was changed.
pub fn corrupt_artifact_bytes(bytes: &mut Vec<u8>, faults: &StorageFaults, seed: u64) -> bool {
    let mut changed = false;
    if faults.bit_flips > 0 && bytes.len() > HEADER_BYTES {
        let span = bytes.len() - HEADER_BYTES;
        for flip in 0..faults.bit_flips {
            let mut rng = Rng64::for_index(seed, flip as u64);
            let pos = HEADER_BYTES + rng.index(span);
            let bit = rng.index(8) as u8;
            if let Some(b) = bytes.get_mut(pos) {
                *b ^= 1 << bit;
                changed = true;
            }
        }
    }
    if faults.truncate_bytes > 0 {
        let cut = (faults.truncate_bytes as usize).min(bytes.len());
        bytes.truncate(bytes.len() - cut);
        changed = cut > 0 || changed;
    }
    if changed {
        global().counter(STORAGE_CORRUPTED).inc();
    }
    changed
}

/// In-place file variant of [`corrupt_artifact_bytes`].
// lint: allow(dead_api) — fault-injection hook the self-healing suite corrupts stores through
pub fn corrupt_artifact_file(
    path: &Path,
    faults: &StorageFaults,
    seed: u64,
) -> std::io::Result<bool> {
    let mut bytes = std::fs::read(path)?;
    let changed = corrupt_artifact_bytes(&mut bytes, faults, seed);
    if changed {
        std::fs::write(path, &bytes)?;
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkpoint::store::{ArtifactStore, Provenance};
    use checkpoint::{audit_bytes, ArtifactBuilder, RecordingClock, RetryPolicy};

    fn builder() -> ArtifactBuilder {
        let mut b = ArtifactBuilder::new("fault-test");
        b.add_f64s("weights", &[1.0, 2.0, 3.0, 4.0]);
        b.add_f64s("losses", &[0.5, 0.25]);
        b
    }

    fn artifact_bytes() -> Vec<u8> {
        builder().to_bytes()
    }

    #[test]
    fn bit_flips_are_deterministic_and_caught_by_the_audit() {
        let clean = artifact_bytes();
        let mut a = clean.clone();
        let mut b = clean.clone();
        let faults = StorageFaults {
            bit_flips: 2,
            truncate_bytes: 0,
        };
        assert!(corrupt_artifact_bytes(&mut a, &faults, 7));
        assert!(corrupt_artifact_bytes(&mut b, &faults, 7));
        assert_eq!(a, b, "same seed, same damage");
        assert_ne!(a, clean);
        assert_eq!(a.len(), clean.len(), "flips never change the length");
        // Header bytes are preserved by construction.
        assert_eq!(&a[..HEADER_BYTES], &clean[..HEADER_BYTES]);
        // The audit sees the damage (flips may land in the section table
        // itself, which surfaces as structural damage instead).
        let audit = audit_bytes(&a);
        assert!(!audit.is_clean());
    }

    #[test]
    fn truncation_shortens_and_audit_flags_structural_damage() {
        let clean = artifact_bytes();
        let mut a = clean.clone();
        let faults = StorageFaults {
            bit_flips: 0,
            truncate_bytes: 5,
        };
        assert!(corrupt_artifact_bytes(&mut a, &faults, 0));
        assert_eq!(a.len(), clean.len() - 5);
        let audit = audit_bytes(&a);
        assert!(!audit.is_clean());
    }

    #[test]
    fn inert_faults_change_nothing() {
        let clean = artifact_bytes();
        let mut a = clean.clone();
        assert!(!corrupt_artifact_bytes(
            &mut a,
            &StorageFaults::default(),
            3
        ));
        assert_eq!(a, clean);
    }

    #[test]
    fn latest_good_skips_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!(
            "cityod-fault-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let b = builder();
        let prov = Provenance::new("fault-test", "{}", 0);
        let v1 = store.save_versioned("model", &b, &prov);
        let v2 = store.save_versioned("model", &b, &prov);
        let (v1, v2) = (v1.unwrap(), v2.unwrap());
        assert_eq!((v1.as_str(), v2.as_str()), ("model-v001", "model-v002"));
        // Corrupt the newest version on disk.
        let faults = StorageFaults {
            bit_flips: 4,
            truncate_bytes: 0,
        };
        corrupt_artifact_file(&store.artifact_path(&v2), &faults, 1).unwrap();
        let clock = RecordingClock::new();
        let got = store
            .latest_good("model", &RetryPolicy::default(), &clock)
            .unwrap()
            .expect("v001 is still good");
        assert_eq!(got.name(), "model-v001");
        // The corrupt newest version was quarantined out of the listing.
        assert!(!store.names().unwrap().contains(&v2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
