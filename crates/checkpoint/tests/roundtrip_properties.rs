//! Property-based tests for the artifact container: save -> load -> save
//! byte-identity over random layer stacks and random section mixes,
//! bit-exactness of every `f64` (NaN payloads included), and the
//! corruption guarantees — a flipped payload byte or a truncation can
//! only surface as a typed error, never as data or a panic.

use checkpoint::format::{crc32, Artifact, ArtifactBuilder, MAGIC};
use checkpoint::module::{export_visit, import_visit};
use checkpoint::CheckpointError;
use neural::layers::{
    ActKind, Activation, Dense, Layer, Lstm, SeqLayer, SeqSequential, Sequential, TimeDistributed,
};
use neural::optim::AdamSnapshot;
use neural::rng::Rng64;
use neural::Matrix;
use proptest::prelude::*;

/// A random dense stack `inp -> w1 -> ... -> wk -> out` with sigmoid
/// gaps, weights drawn from the seeded RNG.
fn random_dense_stack(seed: u64, widths: &[usize]) -> Sequential {
    let mut rng = Rng64::new(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for pair in widths.windows(2) {
        layers.push(Box::new(Dense::new(pair[0], pair[1], &mut rng)));
        layers.push(Box::new(Activation::new(ActKind::Sigmoid)));
    }
    Sequential::new(layers)
}

/// Byte offset where the payload region starts: header, then one table
/// entry per section (2-byte name length + name + 8-byte payload length
/// + 4-byte CRC). Everything at or after this offset is CRC-covered.
fn payload_start(artifact: &Artifact) -> usize {
    let mut off = 8 + 4 + 4; // magic + version + section count
    off += 2 + "__kind__".len() + 8 + 4;
    for name in artifact.section_names() {
        off += 2 + name.len() + 8 + 4;
    }
    off
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Export -> serialise -> parse -> import -> export again is
    /// bit-identical for random layer stacks: the weights decode exactly
    /// and the re-serialised artifact matches byte for byte.
    #[test]
    fn dense_stack_save_load_save_is_byte_identical(
        seed in 0u64..1000,
        w1 in 1usize..6,
        w2 in 1usize..6,
        w3 in 1usize..6,
    ) {
        let widths = [w1, w2, w3];
        let mut net = random_dense_stack(seed, &widths);
        let mut b = ArtifactBuilder::new("prop-dense");
        b.add_matrices("weights", &export_visit(&mut |f| net.visit_params(f)));
        let bytes = b.to_bytes();

        let parsed = Artifact::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed.to_bytes(), bytes.clone());

        // Import into a differently-initialised net of the same shape.
        let mut other = random_dense_stack(seed.wrapping_add(1), &widths);
        import_visit(&mut |f| other.visit_params(f), &parsed.matrices("weights").unwrap()).unwrap();
        let mut b2 = ArtifactBuilder::new("prop-dense");
        b2.add_matrices("weights", &export_visit(&mut |f| other.visit_params(f)));
        prop_assert_eq!(b2.to_bytes(), bytes);
    }

    /// The same byte-identity holds for recurrent stacks (LSTM gates have
    /// many parameter slots; slot order must be stable).
    #[test]
    fn lstm_stack_save_load_save_is_byte_identical(
        seed in 0u64..1000,
        inp in 1usize..4,
        hidden in 1usize..4,
        out in 1usize..4,
    ) {
        let build = |s: u64| {
            let mut rng = Rng64::new(s);
            SeqSequential::new(vec![
                Box::new(Lstm::new(inp, hidden, &mut rng)) as Box<dyn SeqLayer>,
                Box::new(TimeDistributed::new(Dense::new(hidden, out, &mut rng))),
            ])
        };
        let mut net = build(seed);
        let mut b = ArtifactBuilder::new("prop-lstm");
        b.add_matrices("weights", &export_visit(&mut |f| net.visit_params(f)));
        let bytes = b.to_bytes();

        let parsed = Artifact::from_bytes(&bytes).unwrap();
        let mut other = build(seed.wrapping_add(17));
        import_visit(&mut |f| other.visit_params(f), &parsed.matrices("weights").unwrap()).unwrap();
        let mut b2 = ArtifactBuilder::new("prop-lstm");
        b2.add_matrices("weights", &export_visit(&mut |f| other.visit_params(f)));
        prop_assert_eq!(b2.to_bytes(), bytes);
    }

    /// Every `f64` bit pattern survives a section round trip exactly —
    /// including NaNs with payloads, signed zeros, infinities and
    /// subnormals, which textual formats mangle.
    #[test]
    fn f64_sections_are_bit_exact(bits in proptest::collection::vec(0u64..u64::MAX, 16)) {
        let mut vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        // Always include the patterns text formats mangle.
        vals.extend([
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with payload
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
        ]);
        let mut b = ArtifactBuilder::new("prop-f64");
        b.add_f64s("values", &vals);
        let parsed = Artifact::from_bytes(&b.to_bytes()).unwrap();
        let back = parsed.f64s("values").unwrap();
        prop_assert_eq!(back.len(), vals.len());
        for (a, b) in back.iter().zip(&vals) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Adam state (step count and both moment buffers) round trips
    /// exactly through its dedicated section codec.
    #[test]
    fn adam_state_round_trips(
        seed in 0u64..1000,
        t in 0u64..100_000,
        slots in 1usize..4,
        r in 1usize..4,
        c in 1usize..4,
    ) {
        let mut rng = Rng64::new(seed);
        let mut mk = || {
            let mut m = Matrix::zeros(r, c);
            rng.fill_normal(m.as_mut_slice());
            m
        };
        let snap = AdamSnapshot {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t,
            m: (0..slots).map(|_| mk()).collect(),
            v: (0..slots).map(|_| mk()).collect(),
        };
        let mut b = ArtifactBuilder::new("prop-adam");
        b.add_adam("opt", &snap);
        let parsed = Artifact::from_bytes(&b.to_bytes()).unwrap();
        let back = parsed.adam("opt").unwrap();
        prop_assert_eq!(back.t, snap.t);
        prop_assert_eq!(back.m.len(), slots);
        for (a, b) in back.m.iter().zip(&snap.m) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        for (a, b) in back.v.iter().zip(&snap.v) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// Flipping any bit in the payload region is caught by a section CRC:
    /// the parse fails with `ChecksumMismatch`, never succeeds and never
    /// panics.
    #[test]
    fn payload_corruption_is_always_detected(
        seed in 0u64..1000,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut net = random_dense_stack(seed, &[3, 4, 2]);
        let mut b = ArtifactBuilder::new("prop-corrupt");
        b.add_matrices("weights", &export_visit(&mut |f| net.visit_params(f)));
        b.add_f64s("losses", &[1.0, 0.5]);
        let bytes = b.to_bytes();
        let parsed = Artifact::from_bytes(&bytes).unwrap();

        let start = payload_start(&parsed);
        let pos = start + ((bytes.len() - start - 1) as f64 * pos_frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        prop_assert!(matches!(
            Artifact::from_bytes(&corrupt),
            Err(CheckpointError::ChecksumMismatch { .. })
        ), "flip at byte {} bit {} must be caught", pos, bit);
    }

    /// Corrupting *any* byte anywhere (header and table included) never
    /// panics: the result is either a typed error or — only when the flip
    /// lands in an uncovered table field like a section name — a parse
    /// whose re-serialisation still differs from the original.
    #[test]
    fn arbitrary_corruption_never_panics(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut b = ArtifactBuilder::new("prop-any");
        b.add_f64s("values", &[1.0, 2.0, 3.0]);
        b.add_str("meta", "hello");
        let bytes = b.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        match Artifact::from_bytes(&corrupt) {
            Err(_) => {}
            Ok(a) => prop_assert_eq!(a.to_bytes(), corrupt),
        }
    }

    /// Truncating the file at any point yields a typed error, not a panic
    /// and not a silently shorter artifact.
    #[test]
    fn truncation_is_always_detected(cut_frac in 0.0f64..1.0) {
        let mut b = ArtifactBuilder::new("prop-trunc");
        b.add_f64s("values", &[4.0; 32]);
        let bytes = b.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(Artifact::from_bytes(&bytes[..cut]).is_err());
    }
}

/// The CRC implementation matches the IEEE 802.3 reference vector, so
/// files are portable across independent implementations.
#[test]
fn crc_matches_reference_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF43926);
}

/// The magic keeps artifacts from being confused with other binary files.
#[test]
fn magic_is_the_documented_constant() {
    assert_eq!(&MAGIC, b"OVSCKPT\0");
    let b = ArtifactBuilder::new("k");
    assert_eq!(&b.to_bytes()[..8], b"OVSCKPT\0");
}
