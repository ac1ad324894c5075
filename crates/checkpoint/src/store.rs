//! The artifact registry: named, hashed, garbage-collected checkpoints
//! under a workspace directory.
//!
//! An [`ArtifactStore`] is just a directory of `<name>.ckpt` files plus
//! one `<name>.meta.json` provenance sidecar per artifact. The `.ckpt`
//! files are fully self-describing (kind, sections, checksums), so the
//! registry carries no separate index that could drift: listing is a
//! directory scan, and every read by name is a
//! [`crate::snapshot::Snapshot`], which re-verifies every section
//! checksum.
//!
//! Provenance records *how* a model came to be — the exact config JSON,
//! the RNG seed, `git describe` of the working tree, the parameter shape
//! signature, and the loss traces of each training stage — which is what
//! lets a loader refuse an artifact whose recorded shapes do not match
//! the requesting configuration, before a single weight is copied.

use crate::format::{audit_bytes, ArtifactAudit, ArtifactBuilder};
use crate::snapshot::Snapshot;
use crate::{CheckpointError, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Environment variable overriding the default store directory.
pub const STORE_ENV: &str = "CITYOD_ARTIFACTS";

/// Default store directory (relative to the working directory).
pub const DEFAULT_DIR: &str = "artifacts";

/// File extension of checkpoint artifacts.
const CKPT_EXT: &str = "ckpt";

/// Suffix of provenance sidecar files.
const META_SUFFIX: &str = ".meta.json";

/// Subdirectory artifacts that fail CRC verification are moved into.
/// Quarantined files drop out of [`ArtifactStore::names`] (the listing
/// scan is non-recursive) but stay on disk for post-mortem inspection.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Provenance metadata recorded alongside every artifact: enough to
/// reproduce (or refuse) the model without opening the weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Artifact kind, duplicated from the container for cheap listing.
    pub kind: String,
    /// The full config the model was built from, as JSON.
    pub config_json: String,
    /// RNG seed the training run used.
    pub seed: u64,
    /// `git describe --always --dirty` of the tree that produced the
    /// artifact, or `"unknown"` outside a repository.
    pub git: String,
    /// Unix timestamp (seconds) of the save.
    pub created_unix: u64,
    /// `(rows, cols)` of every parameter slot, in `visit_params` order.
    pub shape_sig: Vec<(usize, usize)>,
    /// Per-step loss trace of the V2S fitting stage.
    pub v2s_losses: Vec<f64>,
    /// Per-step loss trace of the TOD2V fitting stage.
    pub tod2v_losses: Vec<f64>,
    /// Per-step loss trace of the test-time TOD-generator fit.
    pub fit_losses: Vec<f64>,
    /// Free-form operator note.
    pub note: String,
}

impl Provenance {
    /// A minimal provenance record; fill in traces and note as needed.
    pub fn new(kind: &str, config_json: &str, seed: u64) -> Self {
        Self {
            kind: kind.to_string(),
            config_json: config_json.to_string(),
            seed,
            git: git_describe(),
            created_unix: unix_now(),
            shape_sig: Vec::new(),
            v2s_losses: Vec::new(),
            tod2v_losses: Vec::new(),
            fit_losses: Vec::new(),
            note: String::new(),
        }
    }
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_now() -> u64 {
    // lint: allow(determinism) — provenance sidecar timestamp only; never
    // read back into model state or stable exports.
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A directory-backed registry of checkpoint artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// A relative `dir` is canonicalized against the working directory
    /// *once, here* — every later operation (including a long-lived
    /// [`crate::snapshot::SnapshotWatcher`]) uses the resolved absolute
    /// path, so a process that chdirs after opening keeps reading the
    /// same store instead of silently re-resolving against the new cwd.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Canonicalization can only fail on exotic filesystems now that
        // the directory exists; fall back to the raw path in that case.
        let dir = std::fs::canonicalize(&dir).unwrap_or(dir);
        Ok(Self { dir })
    }

    /// Opens the default store: `$CITYOD_ARTIFACTS` when set, otherwise
    /// `./artifacts`.
    pub fn open_default() -> Result<Self> {
        // lint: allow(determinism) — opt-in store location, not data.
        let dir = std::env::var(STORE_ENV).unwrap_or_else(|_| DEFAULT_DIR.to_string());
        Self::open(dir)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The `.ckpt` path an artifact of this name lives (or would live) at.
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{CKPT_EXT}"))
    }

    fn meta_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}{META_SUFFIX}"))
    }

    /// Validates an artifact name: non-empty ASCII alphanumerics plus
    /// `-`, `_` and `.` (no path separators, no hidden files).
    pub fn validate_name(name: &str) -> Result<()> {
        let ok = !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if ok {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "invalid artifact name '{name}': use alphanumerics, '-', '_', '.'"
            )))
        }
    }

    /// The `.ckpt` path of a stored artifact: validates the name and
    /// fails with [`CheckpointError::MissingSection`] when no artifact of
    /// that name is in the store.
    pub(crate) fn existing_path(&self, name: &str) -> Result<PathBuf> {
        Self::validate_name(name)?;
        let path = self.artifact_path(name);
        if path.exists() {
            Ok(path)
        } else {
            Err(CheckpointError::MissingSection {
                name: format!("artifact '{name}' in {}", self.dir.display()),
            })
        }
    }

    /// Saves an artifact under `name`, overwriting any previous version,
    /// and writes its provenance sidecar. Returns the `.ckpt` path.
    ///
    /// The sidecar is renamed into place before the `.ckpt` is, and both
    /// go through a temp file: by the time a name shows up in
    /// [`ArtifactStore::names`] its sidecar is complete, so a reader that
    /// polls mid-save never sees a torn sidecar and a sidecar that fails
    /// to parse is damage, not a write in progress.
    pub fn save(
        &self,
        name: &str,
        builder: &ArtifactBuilder,
        provenance: &Provenance,
    ) -> Result<PathBuf> {
        Self::validate_name(name)?;
        let meta = serde_json::to_string(provenance)
            .map_err(|e| CheckpointError::Malformed(format!("provenance encode: {e}")))?;
        let meta_path = self.meta_path(name);
        let meta_tmp = self.dir.join(format!("{name}{META_SUFFIX}.tmp"));
        std::fs::write(&meta_tmp, meta)?;
        std::fs::rename(&meta_tmp, &meta_path)?;
        let path = self.artifact_path(name);
        builder.write_to(&path)?;
        Ok(path)
    }

    /// Saves under the next free `"{family}-vNNN"` name, never
    /// overwriting. Returns the assigned name.
    pub fn save_versioned(
        &self,
        family: &str,
        builder: &ArtifactBuilder,
        provenance: &Provenance,
    ) -> Result<String> {
        Self::validate_name(family)?;
        // Quarantined versions count too, so a number is never reused and
        // a later quarantine never overwrites an earlier one's evidence.
        let qdir = self.dir.join(QUARANTINE_DIR);
        let quarantined = if qdir.is_dir() {
            ckpt_names(&qdir)?
        } else {
            Vec::new()
        };
        let newest_quarantined = versions_of(family, quarantined).last().map(|&(v, _)| v);
        let next = self
            .family_versions(family)?
            .last()
            .map(|&(v, _)| v)
            .max(newest_quarantined)
            .map_or(1, |v| v + 1);
        let name = format!("{family}-v{next:03}");
        self.save(&name, builder, provenance)?;
        Ok(name)
    }

    /// Loads an artifact's provenance sidecar, if one exists.
    pub fn provenance(&self, name: &str) -> Result<Option<Provenance>> {
        Self::validate_name(name)?;
        let path = self.meta_path(name);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)?;
        serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| CheckpointError::Malformed(format!("provenance decode: {e}")))
    }

    /// All artifact names in the store, sorted.
    pub fn names(&self) -> Result<Vec<String>> {
        ckpt_names(&self.dir)
    }

    /// Snapshots every artifact in the store (sorted by name), skipping
    /// none: a corrupt artifact fails the listing so damage is never
    /// silent.
    pub fn list(&self) -> Result<Vec<Snapshot>> {
        self.names()?.iter().map(|n| self.snapshot(n)).collect()
    }

    /// Snapshots every artifact, returning `(name, error-or-none)` pairs.
    pub fn verify_all(&self) -> Result<Vec<(String, Option<CheckpointError>)>> {
        Ok(self
            .names()?
            .into_iter()
            .map(|n| {
                let err = self.snapshot(&n).err();
                (n, err)
            })
            .collect())
    }

    /// Audits one artifact: checks **every** section checksum and reports
    /// all failures with byte offsets, instead of stopping at the first
    /// bad section the way [`ArtifactStore::snapshot`] does.
    pub fn audit(&self, name: &str) -> Result<ArtifactAudit> {
        let bytes = std::fs::read(self.existing_path(name)?)?;
        Ok(audit_bytes(&bytes))
    }

    /// Moves a damaged artifact (and its provenance sidecar) into the
    /// store's `quarantine/` subdirectory, removing it from the listing
    /// while preserving the bytes for post-mortem. Returns the new path
    /// of the quarantined `.ckpt` file.
    pub fn quarantine(&self, name: &str) -> Result<PathBuf> {
        let src = self.existing_path(name)?;
        let qdir = self.dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir)?;
        let dst = qdir.join(format!("{name}.{CKPT_EXT}"));
        std::fs::rename(&src, &dst)?;
        let meta_src = self.meta_path(name);
        if meta_src.exists() {
            std::fs::rename(&meta_src, qdir.join(format!("{name}{META_SUFFIX}")))?;
        }
        obs::global().counter("store_quarantined_total").inc();
        Ok(dst)
    }

    /// Removes an artifact and its provenance sidecar.
    pub fn remove(&self, name: &str) -> Result<()> {
        std::fs::remove_file(self.existing_path(name)?)?;
        let meta = self.meta_path(name);
        if meta.exists() {
            std::fs::remove_file(meta)?;
        }
        Ok(())
    }

    /// Versioned members of a family, as `(version, name)` sorted
    /// ascending by version.
    pub(crate) fn family_versions(&self, family: &str) -> Result<Vec<(u32, String)>> {
        Ok(versions_of(family, self.names()?))
    }

    /// Garbage-collects a version family, keeping only the newest `keep`
    /// versions. Returns the names removed.
    ///
    /// The newest version that verifies clean survives regardless of
    /// `keep`: that is the version a [`crate::snapshot::SnapshotWatcher`]'s
    /// next poll resolves to, so collecting it would race the reader into
    /// an empty family (the newest version *by number* is not enough: when
    /// it is corrupt, readers fall back to the newest good one). A
    /// watcher's installed [`Snapshot`] is fully in memory, so removing
    /// its file does not disturb it.
    pub fn gc(&self, family: &str, keep: usize) -> Result<Vec<String>> {
        Self::validate_name(family)?;
        let versions = self.family_versions(family)?;
        let newest_good = versions
            .iter()
            .rev()
            .find(|(_, name)| self.snapshot(name).is_ok())
            .map(|(_, name)| name.clone());
        let drop_count = versions.len().saturating_sub(keep);
        let mut removed = Vec::with_capacity(drop_count);
        for (_, name) in versions.into_iter().take(drop_count) {
            if newest_good.as_ref() == Some(&name) {
                obs::global().counter("store_gc_retained_total").inc();
                continue;
            }
            self.remove(&name)?;
            removed.push(name);
        }
        Ok(removed)
    }
}

/// The `.ckpt` artifact names directly inside `dir`, sorted.
fn ckpt_names(dir: &Path) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(CKPT_EXT) {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                out.push(stem.to_string());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The `{family}-vNNN` members of `names`, as `(version, name)` sorted
/// ascending by version.
fn versions_of(family: &str, names: Vec<String>) -> Vec<(u32, String)> {
    let prefix = format!("{family}-v");
    let mut out: Vec<(u32, String)> = names
        .into_iter()
        .filter_map(|n| {
            let v = n.strip_prefix(&prefix)?.parse::<u32>().ok()?;
            Some((v, n))
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{RecordingClock, RetryPolicy};
    use neural::Matrix;

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("cityod-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    fn sample_builder() -> ArtifactBuilder {
        let mut b = ArtifactBuilder::new("test-kind");
        b.add_matrices("w", &[Matrix::filled(2, 2, 1.0)]);
        b
    }

    #[test]
    fn save_load_list_remove() {
        let store = tmp_store("basic");
        let mut prov = Provenance::new("test-kind", "{}", 7);
        prov.shape_sig = vec![(2, 2)];
        store.save("alpha", &sample_builder(), &prov).unwrap();
        let a = store.snapshot("alpha").unwrap();
        assert_eq!(a.artifact().kind(), "test-kind");
        let recs = store.list().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name(), "alpha");
        assert_eq!(recs[0].artifact().kind(), "test-kind");
        assert_eq!(recs[0].provenance().unwrap().seed, 7);
        assert_eq!(recs[0].provenance().unwrap().shape_sig, vec![(2, 2)]);
        store.remove("alpha").unwrap();
        assert!(store.list().unwrap().is_empty());
        assert!(store.snapshot("alpha").is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn versioned_saves_and_gc() {
        let store = tmp_store("gc");
        let prov = Provenance::new("test-kind", "{}", 1);
        for _ in 0..5 {
            store
                .save_versioned("model", &sample_builder(), &prov)
                .unwrap();
        }
        assert_eq!(
            store.names().unwrap(),
            [
                "model-v001",
                "model-v002",
                "model-v003",
                "model-v004",
                "model-v005"
            ]
        );
        let removed = store.gc("model", 2).unwrap();
        assert_eq!(removed, ["model-v001", "model-v002", "model-v003"]);
        assert_eq!(store.names().unwrap(), ["model-v004", "model-v005"]);
        // Next save continues the numbering past the survivors.
        let name = store
            .save_versioned("model", &sample_builder(), &prov)
            .unwrap();
        assert_eq!(name, "model-v006");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_retains_newest_good_version_when_newest_is_corrupt() {
        let store = tmp_store("gc-newest-good");
        let prov = Provenance::new("test-kind", "{}", 1);
        for _ in 0..3 {
            store
                .save_versioned("model", &sample_builder(), &prov)
                .unwrap();
        }
        // Corrupt the newest version: the newest *good* one is now v002,
        // which a watcher's next poll would load — gc must keep it even
        // though keep=1 nominally covers only v003.
        let path = store.artifact_path("model-v003");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.gc("model", 1).unwrap(), ["model-v001"]);
        assert_eq!(store.names().unwrap(), ["model-v002", "model-v003"]);
        assert!(store.snapshot("model-v002").is_ok());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bad_names_are_rejected() {
        let store = tmp_store("names");
        let prov = Provenance::new("k", "{}", 0);
        let policy = RetryPolicy::default();
        let clock = RecordingClock::new();
        for bad in ["", "../etc", "a/b", ".hidden", "sp ace"] {
            assert!(store.save(bad, &sample_builder(), &prov).is_err(), "{bad}");
            assert!(store.snapshot(bad).is_err(), "{bad}");
            assert!(
                store.snapshot_or_quarantine(bad, &policy, &clock).is_err(),
                "{bad}"
            );
            assert!(store.latest_good(bad, &policy, &clock).is_err(), "{bad}");
            assert!(store.audit(bad).is_err(), "{bad}");
            assert!(store.quarantine(bad).is_err(), "{bad}");
            assert!(store.remove(bad).is_err(), "{bad}");
            assert!(store.gc(bad, 0).is_err(), "{bad}");
        }
        assert!(clock.sleeps().is_empty(), "a bad name is never retried");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_artifact_fails_verify_with_typed_error() {
        let store = tmp_store("verify");
        let prov = Provenance::new("test-kind", "{}", 0);
        let path = store.save("ok", &sample_builder(), &prov).unwrap();
        assert!(store.snapshot("ok").is_ok());
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.snapshot("ok"),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let report = store.verify_all().unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].1.is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn audit_lists_all_bad_sections() {
        let store = tmp_store("audit");
        let prov = Provenance::new("test-kind", "{}", 0);
        let mut b = ArtifactBuilder::new("test-kind");
        b.add_f64s("a", &[1.0, 2.0]);
        b.add_f64s("b", &[3.0, 4.0]);
        let path = store.save("multi", &b, &prov).unwrap();
        let clean = store.audit("multi").unwrap();
        assert!(clean.is_clean());

        let mut bytes = std::fs::read(&path).unwrap();
        let off_a = clean
            .sections
            .iter()
            .find(|s| s.name == "a")
            .unwrap()
            .offset;
        let off_b = clean
            .sections
            .iter()
            .find(|s| s.name == "b")
            .unwrap()
            .offset;
        bytes[off_a as usize] ^= 0xFF;
        bytes[off_b as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let audit = store.audit("multi").unwrap();
        let failures = audit.failures();
        assert_eq!(
            failures.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_versioned_never_reuses_a_quarantined_number() {
        let store = tmp_store("reuse");
        let prov = Provenance::new("test-kind", "{}", 0);
        store
            .save_versioned("fam", &sample_builder(), &prov)
            .unwrap();
        let v2 = store
            .save_versioned("fam", &sample_builder(), &prov)
            .unwrap();
        store.quarantine(&v2).unwrap();
        let next = store
            .save_versioned("fam", &sample_builder(), &prov)
            .unwrap();
        assert_eq!(next, "fam-v003");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantine_removes_from_listing_but_keeps_bytes() {
        let store = tmp_store("quarantine");
        let prov = Provenance::new("test-kind", "{}", 0);
        let path = store.save("bad", &sample_builder(), &prov).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let qpath = store.quarantine("bad").unwrap();
        assert!(qpath.exists());
        assert!(!path.exists());
        assert!(store.names().unwrap().is_empty());
        // Sidecar went with it.
        assert!(qpath.parent().unwrap().join("bad.meta.json").exists());
        assert!(matches!(
            store.quarantine("bad"),
            Err(CheckpointError::MissingSection { .. })
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn snapshot_or_quarantine_falls_back_on_persistent_corruption() {
        let store = tmp_store("loadq");
        let prov = Provenance::new("test-kind", "{}", 0);
        let clock = RecordingClock::new();
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff_ms: 1,
        };

        // Healthy artifact loads with zero retries.
        store.save("ok", &sample_builder(), &prov).unwrap();
        let got = store.snapshot_or_quarantine("ok", &policy, &clock).unwrap();
        assert!(got.is_some());
        assert!(clock.sleeps().is_empty());

        // Corrupt artifact: retried, then quarantined, then Ok(None).
        let path = store.save("corrupt", &sample_builder(), &prov).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let got = store
            .snapshot_or_quarantine("corrupt", &policy, &clock)
            .unwrap();
        assert!(got.is_none());
        assert_eq!(clock.sleeps(), vec![1, 2]);
        assert!(!path.exists());
        assert!(store
            .dir()
            .join(QUARANTINE_DIR)
            .join("corrupt.ckpt")
            .exists());

        // Missing artifact is a permanent error, not a quarantine.
        assert!(store
            .snapshot_or_quarantine("absent", &policy, &clock)
            .is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn open_canonicalizes_relative_paths_once() {
        // Open through a relative-ish path containing a `..` hop; the
        // stored dir must come back absolute and normalized, so a later
        // chdir cannot re-resolve it somewhere else.
        let base = std::env::temp_dir().join(format!("cityod-store-canon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(base.join("sub")).unwrap();
        let via_dots = base.join("sub").join("..").join("store");
        let store = ArtifactStore::open(&via_dots).unwrap();
        assert!(store.dir().is_absolute());
        assert!(
            !store.dir().components().any(|c| c.as_os_str() == ".."),
            "dir is normalized: {}",
            store.dir().display()
        );
        assert_eq!(
            store.dir(),
            std::fs::canonicalize(base.join("store")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn provenance_round_trips_through_json() {
        let mut p = Provenance::new("ovs-model", "{\"t\":4}", 99);
        p.shape_sig = vec![(3, 4), (1, 4)];
        p.v2s_losses = vec![1.0, 0.5];
        p.note = "warm start source".to_string();
        let json = serde_json::to_string(&p).unwrap();
        let back: Provenance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
