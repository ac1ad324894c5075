//! Read-side snapshot API: immutable, cheaply shareable artifact handles.
//!
//! Training writes artifacts through [`crate::store::ArtifactStore::save`];
//! everything that *reads* a model — the eval harness, the bench model
//! cache, the `cityod checkpoint` CLI, the store's own listing and gc, and
//! the serving layer — goes through a [`Snapshot`], the one read path. A
//! snapshot is taken exactly once: the bytes are read, every section
//! checksum is verified, and the decoded [`Artifact`] plus a stable
//! content fingerprint are frozen behind an `Arc`. Cloning a snapshot is a pointer copy, so a server can
//! hand the same decoded model to hundreds of concurrent readers without
//! re-reading or re-verifying anything.
//!
//! The fingerprint is a pure function of the artifact bytes
//! (`"{len:x}-{crc32:08x}"`), which makes it usable as an HTTP ETag: two
//! stores holding byte-identical artifacts produce byte-identical
//! fingerprints, and `cityod checkpoint inspect` prints the same string a
//! server would emit in its `ETag` header.
//!
//! [`SnapshotWatcher`] closes the loop for long-running readers: it polls
//! the newest good version of an artifact family (quarantining corrupt
//! entries exactly like the self-healing trainer does) and atomically
//! swaps in a fresh snapshot when a newer checkpoint lands. Readers that
//! grabbed the old snapshot keep a valid handle — there is no torn state,
//! only old-or-new.

use crate::format::{crc32, Artifact};
use crate::retry::{is_transient, Clock, RetryPolicy};
use crate::store::{ArtifactStore, Provenance};
use crate::{CheckpointError, Result};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable overriding the default watcher poll interval, in
/// milliseconds. Shared by every long-running watcher host (`cityod
/// serve`, `cityod stream run`); an explicit builder or CLI setting beats
/// the environment, which beats [`DEFAULT_WATCH_INTERVAL_MS`].
pub const WATCH_INTERVAL_ENV: &str = "CITYOD_WATCH_INTERVAL_MS";

/// Default watcher poll interval when neither a builder option nor
/// [`WATCH_INTERVAL_ENV`] says otherwise.
pub const DEFAULT_WATCH_INTERVAL_MS: u64 = 200;

/// Empty-poll backoff cap, as a multiple of the configured interval:
/// consecutive polls that resolve *no* artifact double the suggested
/// delay (interval, 2x, 4x, ...) up to `interval * WATCH_BACKOFF_CAP`,
/// and any poll that finds an artifact resets the delay to the interval.
pub const WATCH_BACKOFF_CAP: u64 = 8;

/// The effective default poll interval: [`WATCH_INTERVAL_ENV`] when set
/// to a positive integer, [`DEFAULT_WATCH_INTERVAL_MS`] otherwise.
pub fn default_watch_interval_ms() -> u64 {
    // lint: allow(determinism) — operator-facing poll cadence, not data.
    std::env::var(WATCH_INTERVAL_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_WATCH_INTERVAL_MS)
}

/// Immutable view of one verified artifact: decoded contents plus the
/// content fingerprint. Cloning is an `Arc` pointer copy.
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    name: String,
    fingerprint: String,
    size: u64,
    content_crc: u32,
    artifact: Artifact,
    provenance: Option<Provenance>,
}

impl Snapshot {
    /// Builds a snapshot from raw artifact bytes (already read from
    /// somewhere). Verifies every section checksum before freezing.
    pub fn from_bytes(name: &str, bytes: &[u8], provenance: Option<Provenance>) -> Result<Self> {
        let artifact = Artifact::from_bytes(bytes)?;
        let crc = crc32(bytes);
        Ok(Self {
            inner: Arc::new(SnapshotInner {
                name: name.to_string(),
                fingerprint: fingerprint(bytes.len() as u64, crc),
                size: bytes.len() as u64,
                content_crc: crc,
                artifact,
                provenance,
            }),
        })
    }

    /// Reads and verifies a `.ckpt` file directly (no store). The
    /// snapshot name is the file stem; no provenance sidecar is read.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("artifact")
            .to_string();
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&name, &bytes, None)
    }

    /// The artifact name the snapshot was taken from.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Stable content fingerprint: `"{size:x}-{crc32:08x}"` over the
    /// whole artifact byte string. Byte-identical artifacts always yield
    /// identical fingerprints, on any machine.
    pub fn fingerprint(&self) -> &str {
        &self.inner.fingerprint
    }

    /// The fingerprint in HTTP ETag form: `"\"{fingerprint}\""`.
    pub fn etag(&self) -> String {
        format!("\"{}\"", self.inner.fingerprint)
    }

    /// Size of the artifact file in bytes.
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// CRC32 of the whole artifact byte string.
    pub fn content_crc(&self) -> u32 {
        self.inner.content_crc
    }

    /// The decoded, checksum-verified artifact.
    pub fn artifact(&self) -> &Artifact {
        &self.inner.artifact
    }

    /// Provenance sidecar contents, when the snapshot came from a store
    /// that had one.
    pub fn provenance(&self) -> Option<&Provenance> {
        self.inner.provenance.as_ref()
    }

    /// True when `other` refers to byte-identical artifact content.
    pub fn same_content(&self, other: &Snapshot) -> bool {
        self.inner.fingerprint == other.inner.fingerprint
    }
}

/// The shared fingerprint encoding: length (hex) + CRC32 of the bytes.
fn fingerprint(size: u64, crc: u32) -> String {
    format!("{size:x}-{crc:08x}")
}

impl ArtifactStore {
    /// Takes a snapshot of a named artifact: one read, full checksum
    /// verification, provenance sidecar attached when present.
    pub fn snapshot(&self, name: &str) -> Result<Snapshot> {
        let bytes = std::fs::read(self.existing_path(name)?)?;
        Snapshot::from_bytes(name, &bytes, self.provenance(name)?)
    }

    /// [`ArtifactStore::snapshot`] under a bounded retry policy:
    /// transient read failures (torn concurrent writes, IO hiccups) are
    /// retried with deterministic backoff before the error surfaces.
    pub fn snapshot_with_retry(
        &self,
        name: &str,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<Snapshot> {
        crate::retry::with_retry(policy, clock, || self.snapshot(name))
    }

    /// Snapshot with retries; persistent corruption-class failures
    /// quarantine the artifact and return `Ok(None)` so callers can fall
    /// back to an older version. Permanent errors still surface as `Err`.
    pub fn snapshot_or_quarantine(
        &self,
        name: &str,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<Option<Snapshot>> {
        match self.snapshot_with_retry(name, policy, clock) {
            Ok(s) => Ok(Some(s)),
            Err(e) if is_transient(&e) => {
                self.quarantine(name)?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Walks a versioned family (`{family}-vNNN`) newest-first and
    /// returns a snapshot of the first member that loads clean,
    /// quarantining every corrupt entry it skips. `Ok(None)` means no
    /// version of the family survived.
    ///
    /// Besides checksum damage, a version whose header is not a
    /// checkpoint header (`BadMagic`) or whose container or provenance
    /// sidecar does not parse (`Malformed`) is damage to that version
    /// alone: it is quarantined and the walk falls back to the next
    /// older one. Any other error, such as a version written by a newer
    /// format, ends the walk.
    pub fn latest_good(
        &self,
        family: &str,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<Option<Snapshot>> {
        Self::validate_name(family)?;
        let versions = self.family_versions(family)?;
        for (_, name) in versions.into_iter().rev() {
            match self.snapshot_or_quarantine(&name, policy, clock) {
                Ok(Some(snapshot)) => return Ok(Some(snapshot)),
                Ok(None) => {}
                Err(CheckpointError::BadMagic { .. } | CheckpointError::Malformed(_)) => {
                    self.quarantine(&name)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// Where a [`SnapshotWatcher`] resolves its artifact from.
#[derive(Debug, Clone)]
pub enum SnapshotSource {
    /// A fixed artifact name; the watcher re-snapshots when the bytes at
    /// that name change.
    Name(String),
    /// A versioned family; the watcher follows the newest good version,
    /// quarantining corrupt entries along the way (see
    /// [`ArtifactStore::latest_good`]).
    Family(String),
}

impl SnapshotSource {
    /// The name or family string the watcher was pointed at.
    pub fn target(&self) -> &str {
        match self {
            Self::Name(s) | Self::Family(s) => s,
        }
    }
}

/// Polls a store for new artifact versions and atomically swaps the
/// current [`Snapshot`]. `current()` is wait-free for readers (a mutex'd
/// `Arc` clone); `poll()` does the IO and is meant to run on one
/// background thread or timer.
#[derive(Debug)]
pub struct SnapshotWatcher {
    store: ArtifactStore,
    source: SnapshotSource,
    policy: RetryPolicy,
    interval_ms: u64,
    empty_streak: AtomicU32,
    current: Mutex<Option<Snapshot>>,
}

impl SnapshotWatcher {
    /// A watcher with no snapshot loaded yet; call [`SnapshotWatcher::poll`]
    /// to populate it. The poll interval starts at
    /// [`default_watch_interval_ms`] (environment-aware); override it
    /// with [`SnapshotWatcher::with_poll_interval`].
    pub fn new(store: ArtifactStore, source: SnapshotSource, policy: RetryPolicy) -> Self {
        Self {
            store,
            source,
            policy,
            interval_ms: default_watch_interval_ms(),
            empty_streak: AtomicU32::new(0),
            current: Mutex::new(None),
        }
    }

    /// Sets the base poll interval in milliseconds (clamped to >= 1),
    /// overriding the environment-derived default.
    pub fn with_poll_interval(mut self, ms: u64) -> Self {
        self.interval_ms = ms.max(1);
        self
    }

    /// How long the host loop should sleep before the next poll: the base
    /// interval, doubled for each consecutive poll that resolved no
    /// artifact, capped at `interval * `[`WATCH_BACKOFF_CAP`]. Any poll
    /// that finds an artifact (swap or not) resets the backoff.
    pub fn next_poll_delay_ms(&self) -> u64 {
        let streak = self.empty_streak.load(Ordering::Relaxed).min(32);
        let factor = 1u64.checked_shl(streak).unwrap_or(u64::MAX);
        self.interval_ms
            .saturating_mul(factor.min(WATCH_BACKOFF_CAP))
    }

    /// The store the watcher polls.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The source the watcher resolves.
    pub fn source(&self) -> &SnapshotSource {
        &self.source
    }

    /// The currently installed snapshot, if any. Cheap (`Arc` clone).
    pub fn current(&self) -> Option<Snapshot> {
        self.current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Resolves the source to its freshest good snapshot and installs it
    /// if the content changed. Returns `Ok(true)` when a swap happened.
    ///
    /// A resolution that finds *no* good artifact leaves the previous
    /// snapshot installed — a reader never loses a working model because
    /// the newest write was corrupt; the corrupt entry is quarantined and
    /// the fallback version takes over on the same poll.
    pub fn poll(&self, clock: &dyn Clock) -> Result<bool> {
        let fresh = match &self.source {
            SnapshotSource::Name(name) => {
                self.store
                    .snapshot_or_quarantine(name, &self.policy, clock)?
            }
            SnapshotSource::Family(family) => {
                self.store.latest_good(family, &self.policy, clock)?
            }
        };
        let Some(fresh) = fresh else {
            self.empty_streak.fetch_add(1, Ordering::Relaxed);
            obs::global()
                .counter("snapshot_watcher_empty_polls_total")
                .inc();
            return Ok(false);
        };
        self.empty_streak.store(0, Ordering::Relaxed);
        let mut cur = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let changed = match cur.as_ref() {
            Some(existing) => !existing.same_content(&fresh),
            None => true,
        };
        if changed {
            *cur = Some(fresh);
            obs::global().counter("snapshot_watcher_swaps_total").inc();
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ArtifactBuilder;
    use crate::retry::RecordingClock;
    use neural::Matrix;

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("cityod-snapshot-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    fn builder(fill: f64) -> ArtifactBuilder {
        let mut b = ArtifactBuilder::new("snap-test");
        b.add_matrices("w", &[Matrix::filled(2, 2, fill)]);
        b
    }

    #[test]
    fn snapshot_matches_file_bytes_and_is_cheap_to_clone() {
        let store = tmp_store("basic");
        let prov = Provenance::new("snap-test", "{}", 11);
        let path = store.save("alpha", &builder(1.0), &prov).unwrap();

        let snap = store.snapshot("alpha").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (size, content_crc) = (bytes.len() as u64, crc32(&bytes));
        assert_eq!(snap.name(), "alpha");
        assert_eq!(snap.size(), size);
        assert_eq!(snap.content_crc(), content_crc);
        assert_eq!(snap.fingerprint(), format!("{size:x}-{content_crc:08x}"));
        assert_eq!(snap.etag(), format!("\"{}\"", snap.fingerprint()));
        assert_eq!(snap.provenance().unwrap().seed, 11);
        assert_eq!(snap.artifact().kind(), "snap-test");

        let clone = snap.clone();
        assert!(clone.same_content(&snap));
        assert!(std::ptr::eq(clone.artifact(), snap.artifact()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fingerprint_is_content_derived() {
        let store = tmp_store("fp");
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save("a", &builder(1.0), &prov).unwrap();
        store.save("b", &builder(1.0), &prov).unwrap();
        store.save("c", &builder(2.0), &prov).unwrap();
        let a = store.snapshot("a").unwrap();
        let b = store.snapshot("b").unwrap();
        let c = store.snapshot("c").unwrap();
        // Same bytes, different name -> same fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different content -> different fingerprint.
        assert_ne!(a.fingerprint(), c.fingerprint());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn read_from_file_agrees_with_store_snapshot() {
        let store = tmp_store("file");
        let prov = Provenance::new("snap-test", "{}", 0);
        let path = store.save("direct", &builder(0.5), &prov).unwrap();
        let via_store = store.snapshot("direct").unwrap();
        let via_file = Snapshot::read_from(&path).unwrap();
        assert_eq!(via_file.name(), "direct");
        assert!(via_file.same_content(&via_store));
        // File path skips the sidecar on purpose.
        assert!(via_file.provenance().is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_artifact_is_permanent_error() {
        let store = tmp_store("missing");
        assert!(matches!(
            store.snapshot("absent"),
            Err(CheckpointError::MissingSection { .. })
        ));
        let clock = RecordingClock::new();
        assert!(store
            .snapshot_or_quarantine("absent", &RetryPolicy::default(), &clock)
            .is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_good_skips_corrupt_newest_and_quarantines() {
        let store = tmp_store("latest");
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        let v2 = store.save_versioned("fam", &builder(2.0), &prov).unwrap();
        // Corrupt the newest version's payload.
        let path = store.artifact_path(&v2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let clock = RecordingClock::new();
        let got = store
            .latest_good(
                "fam",
                &RetryPolicy {
                    attempts: 2,
                    base_backoff_ms: 1,
                },
                &clock,
            )
            .unwrap()
            .expect("v001 still good");
        assert_eq!(got.name(), "fam-v001");
        assert!(!store.names().unwrap().contains(&v2));
        // No versions at all -> Ok(None).
        assert!(store
            .latest_good("ghost", &RetryPolicy::default(), &clock)
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Saves `fam-v001` and `fam-v002`, damages v002 with `damage`, and
    /// checks that the family walk quarantines v002 and returns v001.
    fn assert_walk_skips_damaged_newest(tag: &str, damage: impl FnOnce(&ArtifactStore, &str)) {
        let store = tmp_store(tag);
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        let v2 = store.save_versioned("fam", &builder(2.0), &prov).unwrap();
        damage(&store, &v2);

        let clock = RecordingClock::new();
        let got = store
            .latest_good("fam", &RetryPolicy::default(), &clock)
            .unwrap()
            .expect("v001 still good");
        assert_eq!(got.name(), "fam-v001");
        assert_eq!(store.names().unwrap(), vec!["fam-v001".to_string()]);
        let quarantined = store.dir().join(crate::store::QUARANTINE_DIR);
        assert!(quarantined.join(format!("{v2}.ckpt")).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_good_skips_newest_with_bad_magic() {
        assert_walk_skips_damaged_newest("magic", |store, v2| {
            let path = store.artifact_path(v2);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[0] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                store.snapshot(v2),
                Err(CheckpointError::BadMagic { .. })
            ));
        });
    }

    #[test]
    fn latest_good_skips_newest_with_malformed_sidecar() {
        assert_walk_skips_damaged_newest("sidecar", |store, v2| {
            let sidecar = store.dir().join(format!("{v2}.meta.json"));
            std::fs::write(&sidecar, "{ not json").unwrap();
            assert!(matches!(
                store.snapshot(v2),
                Err(CheckpointError::Malformed(_))
            ));
        });
    }

    #[test]
    fn latest_good_leaves_a_save_in_progress_alone() {
        let store = tmp_store("inflight");
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        // What a save of v002 leaves on disk before its renames: an empty
        // sidecar temp file and a partial container temp file.
        std::fs::write(store.dir().join("fam-v002.meta.json.tmp"), "").unwrap();
        std::fs::write(store.dir().join("fam-v002.ckpt.tmp"), b"CITY").unwrap();

        let clock = RecordingClock::new();
        let got = store
            .latest_good("fam", &RetryPolicy::default(), &clock)
            .unwrap()
            .expect("v001 still good");
        assert_eq!(got.name(), "fam-v001");
        assert!(!store.dir().join(crate::store::QUARANTINE_DIR).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_good_polled_during_saves_quarantines_nothing() {
        let store = tmp_store("race");
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(0.0), &prov).unwrap();
        let writer = {
            let store = store.clone();
            let prov = prov.clone();
            std::thread::spawn(move || {
                for i in 1..400 {
                    store
                        .save_versioned("fam", &builder(f64::from(i)), &prov)
                        .unwrap();
                }
            })
        };
        let clock = RecordingClock::new();
        while !writer.is_finished() {
            store
                .latest_good("fam", &RetryPolicy::default(), &clock)
                .unwrap()
                .expect("some version is always good");
        }
        writer.join().unwrap();
        assert!(!store.dir().join(crate::store::QUARANTINE_DIR).exists());
        let newest = store
            .latest_good("fam", &RetryPolicy::default(), &clock)
            .unwrap()
            .unwrap();
        assert_eq!(newest.name(), "fam-v400");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_good_stops_at_an_unsupported_version() {
        let store = tmp_store("version");
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        let v2 = store.save_versioned("fam", &builder(2.0), &prov).unwrap();
        // The format version follows the 8-byte magic.
        let path = store.artifact_path(&v2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let clock = RecordingClock::new();
        assert!(matches!(
            store.latest_good("fam", &RetryPolicy::default(), &clock),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));
        assert_eq!(store.names().unwrap().len(), 2, "nothing quarantined");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn watcher_swaps_only_on_content_change() {
        let store = tmp_store("watch");
        let prov = Provenance::new("snap-test", "{}", 0);
        let clock = RecordingClock::new();
        let watcher = SnapshotWatcher::new(
            store.clone(),
            SnapshotSource::Family("m".to_string()),
            RetryPolicy {
                attempts: 2,
                base_backoff_ms: 1,
            },
        );
        // Empty family: no snapshot, no swap.
        assert!(!watcher.poll(&clock).unwrap());
        assert!(watcher.current().is_none());

        store.save_versioned("m", &builder(1.0), &prov).unwrap();
        assert!(watcher.poll(&clock).unwrap());
        let first = watcher.current().expect("installed");
        assert_eq!(first.name(), "m-v001");

        // Re-poll with nothing new: no swap, same snapshot.
        assert!(!watcher.poll(&clock).unwrap());
        assert!(watcher.current().unwrap().same_content(&first));

        // A new version lands: swap, new fingerprint.
        store.save_versioned("m", &builder(3.0), &prov).unwrap();
        assert!(watcher.poll(&clock).unwrap());
        let second = watcher.current().expect("still installed");
        assert_eq!(second.name(), "m-v002");
        assert!(!second.same_content(&first));
        // The old handle is still fully usable after the swap.
        assert_eq!(first.artifact().kind(), "snap-test");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_poll_backoff_doubles_to_cap_and_resets() {
        let store = tmp_store("backoff");
        let clock = RecordingClock::new();
        let watcher = SnapshotWatcher::new(
            store.clone(),
            SnapshotSource::Family("fam".to_string()),
            RetryPolicy::default(),
        )
        .with_poll_interval(10);
        assert_eq!(watcher.next_poll_delay_ms(), 10);
        // Each empty poll doubles the suggested delay, capped at
        // interval * WATCH_BACKOFF_CAP.
        for expect in [20, 40, 80, 80, 80] {
            assert!(!watcher.poll(&clock).unwrap());
            assert_eq!(watcher.next_poll_delay_ms(), expect);
        }
        // A poll that finds an artifact resets the backoff.
        let prov = Provenance::new("snap-test", "{}", 0);
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        assert!(watcher.poll(&clock).unwrap());
        assert_eq!(watcher.next_poll_delay_ms(), 10);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn watch_interval_env_sets_default() {
        std::env::set_var(WATCH_INTERVAL_ENV, "77");
        assert_eq!(default_watch_interval_ms(), 77);
        std::env::set_var(WATCH_INTERVAL_ENV, "not-a-number");
        assert_eq!(default_watch_interval_ms(), DEFAULT_WATCH_INTERVAL_MS);
        std::env::remove_var(WATCH_INTERVAL_ENV);
        assert_eq!(default_watch_interval_ms(), DEFAULT_WATCH_INTERVAL_MS);
    }

    #[test]
    fn watcher_serves_its_snapshot_after_gc_removes_the_file() {
        let store = tmp_store("gc");
        let prov = Provenance::new("snap-test", "{}", 0);
        let clock = RecordingClock::new();
        let watcher = SnapshotWatcher::new(
            store.clone(),
            SnapshotSource::Family("fam".to_string()),
            RetryPolicy::default(),
        );
        store.save_versioned("fam", &builder(1.0), &prov).unwrap();
        assert!(watcher.poll(&clock).unwrap());
        let installed = watcher.current().expect("v001 installed");

        // Two newer versions land and gc keep=1 reaps everything but the
        // newest good version, the installed v001 included.
        store.save_versioned("fam", &builder(2.0), &prov).unwrap();
        store.save_versioned("fam", &builder(3.0), &prov).unwrap();
        assert_eq!(store.gc("fam", 1).unwrap(), ["fam-v001", "fam-v002"]);
        assert!(!store.artifact_path("fam-v001").exists());

        // The installed snapshot lives in memory: readers still get v001,
        // sections and all, until the next poll.
        let still = watcher.current().expect("still installed");
        assert_eq!(still.name(), "fam-v001");
        assert!(still.same_content(&installed));
        assert_eq!(still.artifact().kind(), "snap-test");
        assert_eq!(still.artifact().matrix("w").unwrap().get(0, 0), 1.0);

        // The next poll moves to the newest good version gc kept.
        assert!(watcher.poll(&clock).unwrap());
        assert_eq!(watcher.current().unwrap().name(), "fam-v003");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn watcher_keeps_old_snapshot_when_newest_is_corrupt() {
        let store = tmp_store("watch-corrupt");
        let prov = Provenance::new("snap-test", "{}", 0);
        let clock = RecordingClock::new();
        let policy = RetryPolicy {
            attempts: 2,
            base_backoff_ms: 1,
        };
        let watcher = SnapshotWatcher::new(
            store.clone(),
            SnapshotSource::Family("m".to_string()),
            policy,
        );
        store.save_versioned("m", &builder(1.0), &prov).unwrap();
        assert!(watcher.poll(&clock).unwrap());
        let good = watcher.current().expect("v001 installed");

        // Newest version is corrupt: poll quarantines it and keeps v001
        // (resolution falls back to the same content -> no swap).
        let v2 = store.save_versioned("m", &builder(9.0), &prov).unwrap();
        let path = store.artifact_path(&v2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(!watcher.poll(&clock).unwrap());
        assert!(watcher.current().unwrap().same_content(&good));
        assert!(!store.names().unwrap().contains(&v2));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
