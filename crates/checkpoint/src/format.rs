//! The binary artifact container.
//!
//! Byte layout (all integers little-endian, independent of host
//! endianness; see DESIGN.md §7 for the versioning policy):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "OVSCKPT\0"
//! 8       4     u32    format version (currently 1)
//! 12      4     u32    section count S
//! 16      ...   section table, S entries:
//!                 u16  name length L
//!                 L    section name (UTF-8)
//!                 u64  payload length
//!                 u32  CRC32 (IEEE) of the payload
//! ...     ...   payloads, concatenated in table order
//! ```
//!
//! The artifact *kind* (what the payload is — an OVS model, a baseline
//! net, a stage state) travels as a reserved section named `__kind__`
//! whose payload is the UTF-8 kind string, so the container itself stays
//! schema-free. Section order is preserved exactly through a load, which
//! makes `save -> load -> save` byte-identical — the property the
//! round-trip proptests pin down.

use crate::{CheckpointError, Result};
use std::fmt::Display;
use std::path::Path;

/// The 8-byte artifact magic.
pub const MAGIC: [u8; 8] = *b"OVSCKPT\0";

/// Current (and highest understood) container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Reserved section carrying the artifact kind string.
const KIND_SECTION: &str = "__kind__";

/// Smallest section-table entry: name length, empty name, payload length
/// and checksum.
const MIN_TABLE_ENTRY: usize = 2 + 8 + 4;

// --- CRC32 (IEEE 802.3, reflected) ---------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice — the per-section checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- little-endian primitives ---------------------------------------------

/// Append-only little-endian byte sink used by the payload codecs.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u16` (LE).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by its IEEE-754 bit pattern (LE) — bit-exact for
    /// every value including NaN payloads and signed zeros.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Finishes, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a byte slice; every
/// out-of-bounds read becomes a typed [`CheckpointError::Truncated`].
/// Each read names what it reads with a `context` that is formatted only
/// into an error, so a successful read allocates nothing: pass
/// `format_args!` for a context that carries an index.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize, context: impl Display) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                context: format!("{context} ({n} bytes needed, {} left)", self.remaining()),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u16` (LE).
    pub fn u16(&mut self, context: impl Display) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self, context: impl Display) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self, context: impl Display) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern (LE).
    pub fn f64(&mut self, context: impl Display) -> Result<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a `u64` and narrows it to `usize`, guarding 32-bit hosts.
    pub fn len_u64(&mut self, context: impl Display) -> Result<usize> {
        let v = self.u64(&context)?;
        usize::try_from(v).map_err(|_| {
            CheckpointError::Malformed(format!("{context}: length {v} overflows usize"))
        })
    }
}

/// One section-table entry: name, payload length, stored CRC32.
type TableEntry = (String, usize, u32);

/// Reads the header (magic, format version, section count) and the
/// section table, leaving `r` at the first payload byte. A count whose
/// table cannot fit in the unread bytes is refused before the table is
/// reserved, so no allocation trusts the input. A name that is not UTF-8
/// is an error unless `lossy_names` (the audit still reports on such a
/// file, under the lossily decoded name).
fn read_table(r: &mut ByteReader<'_>, lossy_names: bool) -> Result<Vec<TableEntry>> {
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic {
            found: magic.to_vec(),
        });
    }
    let version = r.u32("format version")?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.u32("section count")? as usize;
    let left = r.remaining();
    if count > left / MIN_TABLE_ENTRY {
        return Err(CheckpointError::Truncated {
            context: format!(
                "section count ({count} entries of at least {MIN_TABLE_ENTRY} bytes, {left} left)"
            ),
        });
    }
    let mut table = Vec::with_capacity(count);
    for i in 0..count {
        let name_len = r.u16(format_args!("section {i} name length"))? as usize;
        let name_bytes = r.take(name_len, format_args!("section {i} name"))?;
        let name = match std::str::from_utf8(name_bytes) {
            Ok(name) => name.to_string(),
            Err(_) if lossy_names => String::from_utf8_lossy(name_bytes).into_owned(),
            Err(_) => {
                return Err(CheckpointError::Malformed(format!(
                    "section {i} name is not UTF-8"
                )))
            }
        };
        let len = r.len_u64(format_args!("section '{name}' length"))?;
        let crc = r.u32(format_args!("section '{name}' checksum"))?;
        table.push((name, len, crc));
    }
    Ok(table)
}

// --- builder ---------------------------------------------------------------

/// Accumulates named sections and serialises them into the container
/// format. Sections are written in insertion order; serialisation is
/// fully deterministic.
#[derive(Debug, Clone)]
pub struct ArtifactBuilder {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl ArtifactBuilder {
    /// Starts an artifact of the given kind (e.g. `"ovs-model"`).
    pub fn new(kind: &str) -> Self {
        Self {
            kind: kind.to_string(),
            sections: Vec::new(),
        }
    }

    /// The artifact kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Adds a raw byte section.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or reserved section name, or a name longer
    /// than `u16::MAX` bytes — both are programming errors at the call
    /// site, not runtime conditions.
    pub fn add_bytes(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            name != KIND_SECTION,
            "section name '{KIND_SECTION}' is reserved"
        );
        assert!(
            !self.sections.iter().any(|(n, _)| n == name),
            "duplicate section '{name}'"
        );
        assert!(name.len() <= u16::MAX as usize, "section name too long");
        self.sections.push((name.to_string(), payload));
        self
    }

    /// Adds a matrix-list section (see [`crate::codec::encode_matrices`]).
    pub fn add_matrices(&mut self, name: &str, ms: &[neural::Matrix]) -> &mut Self {
        self.add_bytes(name, crate::codec::encode_matrices(ms))
    }

    /// Adds a single-matrix section.
    pub fn add_matrix(&mut self, name: &str, m: &neural::Matrix) -> &mut Self {
        self.add_matrices(name, std::slice::from_ref(m))
    }

    /// Adds an Adam optimiser-state section.
    pub fn add_adam(&mut self, name: &str, s: &neural::optim::AdamSnapshot) -> &mut Self {
        self.add_bytes(name, crate::codec::encode_adam(s))
    }

    /// Adds an `f64`-vector section.
    pub fn add_f64s(&mut self, name: &str, vs: &[f64]) -> &mut Self {
        self.add_bytes(name, crate::codec::encode_f64s(vs))
    }

    /// Adds a UTF-8 string section (JSON metadata, notes, ...).
    pub fn add_str(&mut self, name: &str, s: &str) -> &mut Self {
        self.add_bytes(name, s.as_bytes().to_vec())
    }

    /// Serialises the artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        let all: Vec<(&str, &[u8])> = std::iter::once((KIND_SECTION, self.kind.as_bytes()))
            .chain(
                self.sections
                    .iter()
                    .map(|(n, p)| (n.as_str(), p.as_slice())),
            )
            .collect();
        w.u32(all.len() as u32);
        for (name, payload) in &all {
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u64(payload.len() as u64);
            w.u32(crc32(payload));
        }
        for (_, payload) in &all {
            w.bytes(payload);
        }
        w.into_bytes()
    }

    /// Serialises and writes the artifact to `path` atomically (write to
    /// a sibling temp file, then rename).
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

// --- audit -----------------------------------------------------------------

/// Verification result for one section, as produced by [`audit_bytes`].
///
/// Unlike [`Artifact::from_bytes`], the audit does not stop at the first
/// bad checksum: every section is checked and reported with its payload
/// byte offset, so an operator (or the quarantine logic) can see exactly
/// which regions of the file are damaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionAudit {
    /// Section name from the table.
    pub name: String,
    /// Byte offset of the section's payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 recorded in the section table.
    pub stored: u32,
    /// CRC32 computed over the payload actually present.
    pub computed: u32,
}

impl SectionAudit {
    /// True when the stored and computed checksums agree.
    pub fn ok(&self) -> bool {
        self.stored == self.computed
    }
}

/// Full-container audit: per-section checksum verdicts plus any
/// structural failure that stopped the walk early.
#[derive(Debug, Clone, Default)]
pub struct ArtifactAudit {
    /// Every section reachable through the table, in file order
    /// (including the reserved kind section).
    pub sections: Vec<SectionAudit>,
    /// Structural failure (bad magic, truncated table, ...) that ended
    /// the audit before all sections could be checked, if any.
    pub structural: Option<String>,
}

impl ArtifactAudit {
    /// The sections whose checksums do not match.
    pub fn failures(&self) -> Vec<&SectionAudit> {
        self.sections.iter().filter(|s| !s.ok()).collect()
    }

    /// True when the container is structurally sound and every section
    /// checksum verifies.
    pub fn is_clean(&self) -> bool {
        self.structural.is_none() && self.sections.iter().all(SectionAudit::ok)
    }
}

/// Audits a serialized artifact without decoding it: walks the section
/// table, checks **every** section's CRC32, and reports all failures
/// with byte offsets instead of stopping at the first one.
pub fn audit_bytes(bytes: &[u8]) -> ArtifactAudit {
    let mut audit = ArtifactAudit::default();
    let mut r = ByteReader::new(bytes);
    let structural = |e: CheckpointError| Some(e.to_string());
    let table = match read_table(&mut r, true) {
        Ok(table) => table,
        Err(e) => {
            audit.structural = structural(e);
            return audit;
        }
    };
    let mut offset = (bytes.len() - r.remaining()) as u64;
    audit.sections.reserve_exact(table.len());
    for (name, len, stored) in table {
        // A truncated payload is still audited: the checksum over the
        // bytes that remain will not match the table entry.
        let avail = len.min(r.remaining());
        let payload = r
            .take(avail, format_args!("section '{name}' payload"))
            .unwrap_or(&[]);
        audit.sections.push(SectionAudit {
            name: name.clone(),
            offset,
            len: len as u64,
            stored,
            computed: crc32(payload),
        });
        if avail < len {
            audit.structural = structural(CheckpointError::Truncated {
                context: format!("section '{name}' payload ({len} bytes needed, {avail} left)"),
            });
            return audit;
        }
        offset += len as u64;
    }
    if r.remaining() != 0 {
        audit.structural = Some(format!(
            "malformed artifact: {} trailing bytes after the last section",
            r.remaining()
        ));
    }
    audit
}

// --- parsed artifact -------------------------------------------------------

/// A fully parsed and checksum-verified artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl Artifact {
    /// Parses an artifact, verifying the magic, the format version, the
    /// section table, and **every section's CRC32**. A corrupted file can
    /// only come out of here as a typed error, never as data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let table = read_table(&mut r, false)?;
        let mut sections = Vec::with_capacity(table.len());
        let mut kind = None;
        for (name, len, stored) in table {
            let payload = r.take(len, format_args!("section '{name}' payload"))?;
            let computed = crc32(payload);
            if computed != stored {
                return Err(CheckpointError::ChecksumMismatch {
                    section: name,
                    stored,
                    computed,
                });
            }
            if name == KIND_SECTION {
                kind = Some(
                    std::str::from_utf8(payload)
                        .map_err(|_| {
                            CheckpointError::Malformed("kind section is not UTF-8".into())
                        })?
                        .to_string(),
                );
            } else {
                sections.push((name, payload.to_vec()));
            }
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        let kind = kind.ok_or(CheckpointError::MissingSection {
            name: KIND_SECTION.to_string(),
        })?;
        Ok(Self { kind, sections })
    }

    /// Re-serialises the artifact; byte-identical to the bytes it was
    /// parsed from.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = ArtifactBuilder::new(&self.kind);
        for (name, payload) in &self.sections {
            b.add_bytes(name, payload.clone());
        }
        b.to_bytes()
    }

    /// The artifact kind string.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Fails with [`CheckpointError::WrongKind`] unless the artifact has
    /// the expected kind.
    pub fn expect_kind(&self, expected: &str) -> Result<()> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(CheckpointError::WrongKind {
                expected: expected.to_string(),
                actual: self.kind.clone(),
            })
        }
    }

    /// Section names in file order (the reserved kind section excluded).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// True when the artifact has a section of this name.
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }

    /// Raw payload of a section.
    pub fn bytes(&self, name: &str) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| CheckpointError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Decodes a matrix-list section.
    pub fn matrices(&self, name: &str) -> Result<Vec<neural::Matrix>> {
        crate::codec::decode_matrices(self.bytes(name)?)
    }

    /// Decodes a single-matrix section.
    pub fn matrix(&self, name: &str) -> Result<neural::Matrix> {
        let ms = self.matrices(name)?;
        if ms.len() != 1 {
            return Err(CheckpointError::Malformed(format!(
                "section '{name}' holds {} matrices, expected exactly 1",
                ms.len()
            )));
        }
        Ok(ms.into_iter().next().expect("checked length"))
    }

    /// Decodes an Adam optimiser-state section.
    pub fn adam(&self, name: &str) -> Result<neural::optim::AdamSnapshot> {
        crate::codec::decode_adam(self.bytes(name)?)
    }

    /// Decodes an `f64`-vector section.
    pub fn f64s(&self, name: &str) -> Result<Vec<f64>> {
        crate::codec::decode_f64s(self.bytes(name)?)
    }

    /// Decodes a UTF-8 string section.
    pub fn str_section(&self, name: &str) -> Result<String> {
        String::from_utf8(self.bytes(name)?.to_vec())
            .map_err(|_| CheckpointError::Malformed(format!("section '{name}' is not UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::Matrix;

    fn sample() -> ArtifactBuilder {
        let mut b = ArtifactBuilder::new("test-kind");
        b.add_matrices(
            "weights",
            &[Matrix::filled(2, 3, 1.5), Matrix::filled(1, 1, -0.0)],
        );
        b.add_f64s("losses", &[1.0, 0.5, 0.25]);
        b.add_str("meta", "{\"x\":1}");
        b
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bytes = sample().to_bytes();
        let a = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.kind(), "test-kind");
        assert_eq!(a.section_names(), ["weights", "losses", "meta"]);
        let ws = a.matrices("weights").unwrap();
        assert_eq!(ws[0], Matrix::filled(2, 3, 1.5));
        // -0.0 survives bit-exactly
        assert!(ws[1].get(0, 0).is_sign_negative());
        assert_eq!(a.f64s("losses").unwrap(), vec![1.0, 0.5, 0.25]);
        assert_eq!(a.str_section("meta").unwrap(), "{\"x\":1}");
        assert_eq!(a.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
        assert!(matches!(
            Artifact::from_bytes(b"short"),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let bytes = sample().to_bytes();
        // Flip one bit in every payload byte position and require a typed
        // failure each time (the table region yields Truncated/Malformed
        // instead, so start after it).
        let a = Artifact::from_bytes(&bytes).unwrap();
        let payload_len: usize = a.to_bytes().len();
        let first_payload = payload_len
            - (a.bytes("weights").unwrap().len()
                + a.bytes("losses").unwrap().len()
                + a.bytes("meta").unwrap().len()
                + "test-kind".len());
        for pos in [first_payload, payload_len - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                matches!(
                    Artifact::from_bytes(&corrupt),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "bit flip at {pos} must be caught"
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            let err = Artifact::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn missing_kind_section_is_typed() {
        // Hand-build a container with zero sections.
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(0);
        assert!(matches!(
            Artifact::from_bytes(&w.into_bytes()),
            Err(CheckpointError::MissingSection { .. })
        ));
    }

    #[test]
    fn audit_reports_every_bad_section_with_offsets() {
        let bytes = sample().to_bytes();
        let clean = audit_bytes(&bytes);
        assert!(clean.is_clean());
        assert_eq!(
            clean
                .sections
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            ["__kind__", "weights", "losses", "meta"]
        );
        // Payloads are contiguous after the table, in table order.
        for w in clean.sections.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }

        // Corrupt two sections at once; the audit must report both,
        // where from_bytes stops at the first.
        let mut corrupt = bytes.clone();
        corrupt[clean.sections[1].offset as usize] ^= 0x01;
        corrupt[clean.sections[3].offset as usize] ^= 0x01;
        let audit = audit_bytes(&corrupt);
        assert!(audit.structural.is_none());
        let failures = audit.failures();
        assert_eq!(
            failures.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["weights", "meta"]
        );
        for f in &failures {
            assert_ne!(f.stored, f.computed);
        }
        assert!(matches!(
            Artifact::from_bytes(&corrupt),
            Err(CheckpointError::ChecksumMismatch { section, .. }) if section == "weights"
        ));
    }

    #[test]
    fn audit_flags_structural_damage() {
        let bytes = sample().to_bytes();
        let truncated = audit_bytes(&bytes[..bytes.len() - 4]);
        assert!(!truncated.is_clean());
        assert!(truncated.structural.is_some());
        // Sections before the cut are still individually audited.
        assert!(!truncated.sections.is_empty());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let audit = audit_bytes(&bad_magic);
        assert!(audit.structural.is_some());
        assert!(audit.sections.is_empty());
    }

    /// Magic, version 1 and a section count of `u32::MAX`, with no table:
    /// 16 bytes that must not make the decoder reserve 4 billion entries.
    fn huge_section_count() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(u32::MAX);
        w.into_bytes()
    }

    #[test]
    fn huge_section_count_is_refused_before_reserving() {
        let err = Artifact::from_bytes(&huge_section_count()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated { ref context } if context.contains("section count")),
            "{err}"
        );
    }

    #[test]
    fn audit_refuses_huge_section_count_before_reserving() {
        let audit = audit_bytes(&huge_section_count());
        let structural = audit.structural.expect("structural failure");
        assert!(structural.contains("section count"), "{structural}");
        assert!(audit.sections.is_empty());
    }

    #[test]
    fn trailing_garbage_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
