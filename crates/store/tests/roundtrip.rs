//! File round trips across both load paths, bit-identity against the
//! text format, and property tests over random architectures.

mod common;

use common::{fix_checksum, synthetic, temp_path};
use proptest::prelude::*;
use targad_core::{snapshot as text_snapshot, EnginePrecision, Runtime, ThresholdCache};
use targad_linalg::rng as lrng;
use targad_store::{load_with, mmap_supported, save, LoadMode};

#[test]
fn mmap_and_buffered_loads_are_bit_identical() {
    let clf = synthetic(&[12, 24, 6], 2, 40);
    let cache = ThresholdCache::complete(0.25, -2.0, 5.0e-4);
    let path = temp_path("bitident");
    save(&clf, &cache, EnginePrecision::F64, &path).expect("save");

    let buffered = load_with(&path, LoadMode::Buffered).expect("buffered load");
    let x = lrng::normal_matrix(&mut lrng::seeded(9), 33, 12, 0.0, 1.0);
    let reference = clf.target_scores_rt(&x, &Runtime::serial());
    assert_eq!(
        buffered.classifier.target_scores_rt(&x, &Runtime::serial()),
        reference
    );
    assert_eq!(buffered.thresholds, cache);

    if mmap_supported() {
        let mapped = load_with(&path, LoadMode::Mmap).expect("mmap load");
        assert_eq!(
            mapped.classifier.target_scores_rt(&x, &Runtime::serial()),
            reference
        );
        assert_eq!(mapped.thresholds, cache);
        assert!(mapped.classifier.has_borrowed_parameters());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn v3_and_v2_text_loads_score_identically() {
    let clf = synthetic(&[10, 20, 5], 2, 41);
    let cache = ThresholdCache::complete(0.0625, -1.0, 2.0e-3);

    let v3_path = temp_path("vs_text_v3");
    let v2_path = temp_path("vs_text_v2");
    save(&clf, &cache, EnginePrecision::F64, &v3_path).expect("save v3");
    text_snapshot::save_with_thresholds(&clf, &cache, &v2_path).expect("save v2");

    let from_v3 = targad_store::load(&v3_path).expect("v3 load");
    let (from_v2, v2_cache) = text_snapshot::load_with_thresholds(&v2_path).expect("v2 load");

    let x = lrng::normal_matrix(&mut lrng::seeded(10), 50, 10, 0.0, 1.0);
    assert_eq!(
        from_v3.classifier.target_scores_rt(&x, &Runtime::serial()),
        from_v2.target_scores_rt(&x, &Runtime::serial()),
        "binary and text loads must score bit-identically"
    );
    assert_eq!(from_v3.thresholds, v2_cache);
    let _ = std::fs::remove_file(&v3_path);
    let _ = std::fs::remove_file(&v2_path);
}

proptest! {
    /// Any architecture/threshold combination round-trips bit-exactly
    /// through v3 bytes, and the weights come back borrowed.
    #[test]
    fn random_models_round_trip(
        d_in in 1usize..17,
        d_hidden in 1usize..25,
        n_hidden in 0usize..3,
        m in 1usize..4,
        k in 1usize..6,
        seed in 0u64..1000,
        tau_mask in 0u32..8,
    ) {
        let mut dims = vec![d_in];
        dims.extend(std::iter::repeat_n(d_hidden, n_hidden));
        dims.push(m + k);
        let clf = synthetic(&dims, m, seed.wrapping_add(7));

        let mut cache = ThresholdCache::default();
        for (i, strategy) in targad_core::OodStrategy::all().into_iter().enumerate() {
            if tau_mask >> i & 1 == 1 {
                cache.set(strategy, (i as f64 + 1.5) / 3.0);
            }
        }

        let bytes = targad_store::to_bytes(&clf, &cache, EnginePrecision::F64);
        let words: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let model = targad_store::from_words(targad_linalg::SharedBuffer::from_vec(words))
            .expect("writer output always validates");
        prop_assert_eq!(model.classifier.layer_dims(), dims.clone());
        prop_assert_eq!(&model.thresholds, &cache);
        prop_assert!(model.classifier.has_borrowed_parameters());
        let x = lrng::normal_matrix(&mut lrng::seeded(seed ^ 1), 7, dims[0], 0.0, 1.0);
        prop_assert_eq!(model.classifier.target_scores_rt(&x, &Runtime::serial()), clf.target_scores_rt(&x, &Runtime::serial()));
    }

    /// Corrupting any single byte of a snapshot is always *detected* —
    /// the loader errors cleanly instead of panicking or reading garbage.
    /// (FNV-1a's state update is a bijection for a fixed input byte, so
    /// two streams differing in one byte can never re-converge.)
    #[test]
    fn any_single_byte_corruption_is_rejected(pos_seed in 0u64..500, delta in 1u32..=255) {
        let delta = delta as u8;
        let clf = synthetic(&[6, 9, 4], 2, 50);
        let mut bytes = targad_store::to_bytes(&clf, &ThresholdCache::default(), EnginePrecision::F64);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let words: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        prop_assert!(
            targad_store::from_words(targad_linalg::SharedBuffer::from_vec(words)).is_err(),
            "byte {pos} changed by {delta} must be rejected"
        );
    }

    /// Structural lies that keep the checksum valid (an attacker or a
    /// buggy writer recomputing it) still never get past validation when
    /// they would make a section escape the file.
    #[test]
    fn lying_offsets_with_valid_checksums_are_rejected(extra in 1u64..1_000_000) {
        let clf = synthetic(&[5, 8, 3], 1, 51);
        let mut bytes = targad_store::to_bytes(&clf, &ThresholdCache::default(), EnginePrecision::F64);
        // Section table entry 0 starts at word 8 + n_dims = 11; its
        // offset field is the third word of the entry.
        let offset_word = (8 + 3 + 2) * 8;
        let old = u64::from_le_bytes(bytes[offset_word..offset_word + 8].try_into().unwrap());
        let lied = (old + extra * 64).to_le_bytes();
        bytes[offset_word..offset_word + 8].copy_from_slice(&lied);
        fix_checksum(&mut bytes);
        let words: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        prop_assert!(
            targad_store::from_words(targad_linalg::SharedBuffer::from_vec(words)).is_err()
        );
    }
}
