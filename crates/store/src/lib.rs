//! Binary v3 model snapshots with a zero-copy `mmap` read path.
//!
//! The paper's deployment shape — train once, score ~150 k merchants
//! daily — means a serving fleet holds *many* fitted models and faults
//! them in constantly. The v1/v2 text format (`targad_core::snapshot`)
//! re-parses and re-allocates every weight on load; this crate replaces
//! that on the hot path with a little-endian binary format whose weight
//! sections are laid out 64-byte-aligned exactly as the inference engine
//! consumes them, so a load is: map the file, validate the header and
//! checksum, and hand each weight matrix a *borrowed window* of the
//! mapping ([`targad_linalg::Matrix::from_shared`]) — zero weight-byte
//! copies, and the mapping lives exactly as long as the model does.
//!
//! Entry points:
//! - [`save`] / [`to_bytes`]: serialize a trained classifier (plus its
//!   calibrated `ThresholdCache` and [`EnginePrecision`] hint);
//! - [`load`] / [`load_with`]: restore a [`LoadedModel`] via `mmap`
//!   ([`LoadMode::Auto`]) or the buffered fallback — bit-identical
//!   scores either way;
//! - [`import_v2_str`] / [`export_v2_string`]: convert to and from the
//!   retained text format for interop.
//!
//! The format spec lives in [`format`]; every structural property the
//! zero-copy path relies on (bounds, alignment, shape agreement, the
//! trailing checksum) is validated before any weight word is touched.

mod file;
mod read;
mod write;

pub mod format;

use std::io;

pub use file::{load, load_with, mmap_supported, LoadMode};
pub use read::{from_words, LoadedModel};
pub use write::{save, to_bytes};

use targad_core::{snapshot as text_snapshot, EnginePrecision};

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem failed.
    Io(io::Error),
    /// The bytes are not a valid v3 snapshot (first validation failure).
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::Format(msg) => write!(f, "invalid v3 snapshot: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Format(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Converts a v1/v2 *text* snapshot to v3 bytes (default `F64`
/// precision hint — the text format does not carry one).
///
/// # Errors
/// [`StoreError::Format`] when the text does not parse.
pub fn import_v2_str(text: &str) -> Result<Vec<u8>, StoreError> {
    let (clf, thresholds) = text_snapshot::from_string_with_thresholds(text)
        .map_err(|e| StoreError::Format(e.to_string()))?;
    Ok(to_bytes(&clf, &thresholds, EnginePrecision::F64))
}

/// Renders a loaded model back to the v2 text format (interop path;
/// bit-exact round trip — the text format prints shortest-round-trip
/// decimals).
pub fn export_v2_string(model: &LoadedModel) -> String {
    text_snapshot::to_string_with_thresholds(&model.classifier, &model.thresholds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use targad_core::{Classifier, OodStrategy, Runtime, ThresholdCache};
    use targad_linalg::{rng as lrng, SharedBuffer};

    /// A deterministic synthetic classifier with the given architecture
    /// (no training needed for format tests).
    pub(crate) fn synthetic(dims: &[usize], m: usize, seed: u64) -> Classifier {
        let mut rng = lrng::seeded(seed);
        let mut matrices = Vec::new();
        for pair in dims.windows(2) {
            matrices.push(lrng::normal_matrix(&mut rng, pair[0], pair[1], 0.0, 0.5));
            matrices.push(lrng::normal_matrix(&mut rng, 1, pair[1], 0.0, 0.1));
        }
        let k = dims.last().unwrap() - m;
        Classifier::from_parameters(matrices, m, k).expect("consistent synthetic shapes")
    }

    fn words_of(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn round_trip_in_memory_is_bit_identical() {
        let clf = synthetic(&[7, 16, 5], 2, 11);
        let cache = ThresholdCache::complete(0.125, -3.5, 1.0625e-3);
        let bytes = to_bytes(&clf, &cache, EnginePrecision::F32);
        let model = from_words(SharedBuffer::from_vec(words_of(&bytes))).expect("valid");
        assert_eq!(model.precision, EnginePrecision::F32);
        assert_eq!(model.thresholds, cache);
        assert_eq!(model.classifier.m(), 2);
        assert_eq!(model.classifier.k(), 3);
        assert_eq!(model.classifier.layer_dims(), vec![7, 16, 5]);
        let x = lrng::normal_matrix(&mut lrng::seeded(5), 9, 7, 0.0, 1.0);
        assert_eq!(
            model.classifier.target_scores_rt(&x, &Runtime::serial()),
            clf.target_scores_rt(&x, &Runtime::serial()),
            "restored scores must be bit-identical"
        );
        // Loaded weights borrow the buffer — no copies were made.
        assert!(model.classifier.has_borrowed_parameters());
        assert_eq!(model.classifier.parameter_bytes(), 0);
    }

    #[test]
    fn partial_thresholds_round_trip() {
        let clf = synthetic(&[4, 3], 1, 3);
        let mut cache = ThresholdCache::default();
        cache.set(OodStrategy::EnergyScore, -7.25);
        let bytes = to_bytes(&clf, &cache, EnginePrecision::F64);
        let model = from_words(SharedBuffer::from_vec(words_of(&bytes))).expect("valid");
        assert_eq!(model.thresholds, cache);
        assert_eq!(model.precision, EnginePrecision::F64);
        // An empty cache round-trips empty.
        let bytes = to_bytes(&clf, &ThresholdCache::default(), EnginePrecision::F64);
        let model = from_words(SharedBuffer::from_vec(words_of(&bytes))).expect("valid");
        assert!(model.thresholds.is_empty());
    }

    #[test]
    fn v2_text_interop_is_bit_identical() {
        let clf = synthetic(&[6, 10, 4], 3, 21);
        let cache = ThresholdCache::complete(0.5, -1.25, 3.0e-4);
        let v3 = to_bytes(&clf, &cache, EnginePrecision::F64);
        let model = from_words(SharedBuffer::from_vec(words_of(&v3))).expect("valid");
        // v3 → v2 text → v3 again preserves every weight bit.
        let text = export_v2_string(&model);
        let v3_again = import_v2_str(&text).expect("text parses");
        let model2 = from_words(SharedBuffer::from_vec(words_of(&v3_again))).expect("valid");
        let x = lrng::normal_matrix(&mut lrng::seeded(8), 5, 6, 0.0, 1.0);
        assert_eq!(
            model2.classifier.target_scores_rt(&x, &Runtime::serial()),
            clf.target_scores_rt(&x, &Runtime::serial())
        );
        assert_eq!(model2.thresholds, cache);
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let clf = synthetic(&[5, 9, 3], 1, 2);
        let bytes = to_bytes(&clf, &ThresholdCache::default(), EnginePrecision::F64);
        assert_eq!(bytes.len() % 8, 0);
        let info = format::validate(&words_of(&bytes)).expect("valid");
        for s in &info.sections {
            assert_eq!(s.byte_offset % format::SECTION_ALIGN, 0);
        }
    }
}
