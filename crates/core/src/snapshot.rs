//! Trained-classifier persistence.
//!
//! A deployment needs to train once and score for days (the paper's SQB
//! scenario scores ~150 k merchants daily). This module serializes the
//! trained classifier `f` — architecture, `m`, `k`, and all weights — to a
//! self-describing plain-text format (no serializer dependency), and
//! reloads it into a scoring-ready [`Classifier`].
//!
//! Format (line oriented):
//!
//! ```text
//! targad-classifier v2
//! m <m>
//! k <k>
//! dims <d0> <d1> … <dn>
//! tau <strategy> <threshold>        (v2 only; zero or more lines)
//! matrix <rows> <cols>
//! <row-major f64 values, one row per line>
//! …
//! ```
//!
//! v2 extends v1 with optional `tau` lines persisting the per-strategy
//! §III-C thresholds calibrated on the fitted model
//! ([`crate::ThresholdCache`]), so a serving process restores a fully
//! decision-ready model and does zero calibration work per request. v1
//! snapshots still load (with an empty cache).
//!
//! **Deprecation note:** the text format is retained for interop
//! (human-readable diffs, cross-version exchange), but new persistence
//! users should prefer the binary **v3** format in `targad-store`, which
//! loads ~orders of magnitude faster and supports zero-copy `mmap`ed
//! weights. `targad-store` converts both directions (v2 text ↔ v3
//! binary), bit-identically.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use targad_linalg::Matrix;

use crate::model::Classifier;
use crate::ood::OodStrategy;
use crate::verdict::ThresholdCache;

const MAGIC_V1: &str = "targad-classifier v1";
const MAGIC_V2: &str = "targad-classifier v2";

/// Wire name of a strategy in `tau` lines (lowercase, parseable by
/// [`OodStrategy::parse`]).
fn tau_key(strategy: OodStrategy) -> &'static str {
    match strategy {
        OodStrategy::Msp => "msp",
        OodStrategy::EnergyScore => "es",
        OodStrategy::EnergyDiscrepancy => "ed",
    }
}

/// Serializes a trained classifier to the v1 text format (no thresholds).
pub fn to_string(clf: &Classifier) -> String {
    serialize(clf, None)
}

/// Serializes a trained classifier *plus* its calibrated thresholds to the
/// v2 text format.
pub fn to_string_with_thresholds(clf: &Classifier, thresholds: &ThresholdCache) -> String {
    serialize(clf, Some(thresholds))
}

fn serialize(clf: &Classifier, thresholds: Option<&ThresholdCache>) -> String {
    let mut out = String::new();
    let magic = if thresholds.is_some() {
        MAGIC_V2
    } else {
        MAGIC_V1
    };
    let _ = writeln!(out, "{magic}");
    let _ = writeln!(out, "m {}", clf.m());
    let _ = writeln!(out, "k {}", clf.k());
    let dims: Vec<String> = clf.layer_dims().iter().map(|d| d.to_string()).collect();
    let _ = writeln!(out, "dims {}", dims.join(" "));
    if let Some(cache) = thresholds {
        for strategy in OodStrategy::all() {
            if let Some(tau) = cache.get(strategy) {
                let _ = writeln!(out, "tau {} {tau:?}", tau_key(strategy));
            }
        }
    }
    for matrix in clf.parameter_matrices() {
        let _ = writeln!(out, "matrix {} {}", matrix.rows(), matrix.cols());
        for row in matrix.iter_rows() {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            let _ = writeln!(out, "{}", cells.join(" "));
        }
    }
    out
}

/// Parses a v1 or v2 snapshot back into a scoring-ready classifier,
/// discarding any persisted thresholds (see
/// [`from_string_with_thresholds`]).
///
/// # Errors
/// `io::ErrorKind::InvalidData` on malformed content or shape mismatches.
pub fn from_string(text: &str) -> io::Result<Classifier> {
    from_string_with_thresholds(text).map(|(clf, _)| clf)
}

/// Parses a v1 or v2 snapshot into a classifier plus its persisted
/// threshold cache (empty for v1).
///
/// # Errors
/// `io::ErrorKind::InvalidData` on malformed content or shape mismatches.
pub fn from_string_with_thresholds(text: &str) -> io::Result<(Classifier, ThresholdCache)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut lines = text.lines();
    let header = lines.next();
    let v2 = match header {
        Some(MAGIC_V1) => false,
        Some(MAGIC_V2) => true,
        _ => return Err(bad(format!("missing `{MAGIC_V1}`/`{MAGIC_V2}` header"))),
    };
    let m = parse_kv(lines.next(), "m").map_err(bad)?;
    let k = parse_kv(lines.next(), "k").map_err(bad)?;
    let dims_line = lines
        .next()
        .ok_or_else(|| bad("missing dims line".into()))?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| bad(format!("expected `dims …`, got `{dims_line}`")))?
        .split_whitespace()
        .map(|tok| {
            tok.parse::<usize>()
                .map_err(|e| bad(format!("bad dim `{tok}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() < 2 {
        return Err(bad("dims must list at least input and output".into()));
    }
    if *dims.last().expect("nonempty") != m + k {
        return Err(bad(format!(
            "output dim {} does not match m + k = {}",
            dims.last().expect("nonempty"),
            m + k
        )));
    }

    let mut thresholds = ThresholdCache::default();
    let mut matrices = Vec::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let header: Vec<&str> = line.split_whitespace().collect();
        if v2 && header.len() == 3 && header[0] == "tau" {
            let strategy = OodStrategy::parse(header[1])
                .ok_or_else(|| bad(format!("unknown OOD strategy `{}`", header[1])))?;
            let tau: f64 = header[2]
                .parse()
                .map_err(|e| bad(format!("bad tau `{}`: {e}", header[2])))?;
            thresholds.set(strategy, tau);
            continue;
        }
        if header.len() != 3 || header[0] != "matrix" {
            return Err(bad(format!("expected `matrix <r> <c>`, got `{line}`")));
        }
        let rows: usize = header[1]
            .parse()
            .map_err(|e| bad(format!("bad rows: {e}")))?;
        let cols: usize = header[2]
            .parse()
            .map_err(|e| bad(format!("bad cols: {e}")))?;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let row_line = lines.next().ok_or_else(|| bad("truncated matrix".into()))?;
            for tok in row_line.split_whitespace() {
                data.push(
                    tok.parse::<f64>()
                        .map_err(|e| bad(format!("bad value `{tok}`: {e}")))?,
                );
            }
        }
        if data.len() != rows * cols {
            return Err(bad(format!(
                "matrix body has {} values, expected {}",
                data.len(),
                rows * cols
            )));
        }
        matrices.push(Matrix::from_vec(rows, cols, data));
    }

    // Check every parsed matrix against the declared architecture, then
    // build the classifier directly over the parsed parameters (no
    // skeleton allocation, no second copy of the weights).
    let expected = 2 * (dims.len() - 1);
    if matrices.len() != expected {
        return Err(bad(format!(
            "expected {expected} parameter matrices, got {}",
            matrices.len()
        )));
    }
    for (i, pair) in dims.windows(2).enumerate() {
        let (w, b) = (&matrices[2 * i], &matrices[2 * i + 1]);
        if w.shape() != (pair[0], pair[1]) || b.shape() != (1, pair[1]) {
            return Err(bad(format!(
                "layer {i}: shapes w{:?} b{:?} do not match dims {pair:?}",
                w.shape(),
                b.shape()
            )));
        }
    }
    let clf = Classifier::from_parameters(matrices, m, k).map_err(bad)?;
    Ok((clf, thresholds))
}

/// Writes a classifier to `path` (v1, no thresholds).
///
/// Prefer `targad_store::save` (binary v3) for new persistence users: it
/// also carries the calibrated thresholds and precision hint, and loads
/// with zero weight-byte copies via `mmap`. This text writer is retained
/// for interop.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save(clf: &Classifier, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_string(clf))
}

/// Writes a classifier plus its calibrated thresholds to `path` (v2).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_with_thresholds(
    clf: &Classifier,
    thresholds: &ThresholdCache,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    fs::write(path, to_string_with_thresholds(clf, thresholds))
}

/// Loads a classifier from `path`.
///
/// Prefer `targad_store::load` (binary v3) for new persistence users —
/// it restores thresholds too and `mmap`s the weights instead of parsing
/// decimal text. This text loader is retained for interop.
///
/// # Errors
/// Propagates filesystem errors and format errors.
pub fn load(path: impl AsRef<Path>) -> io::Result<Classifier> {
    from_string(&fs::read_to_string(path)?)
}

/// Loads a classifier plus its persisted thresholds from `path`.
///
/// # Errors
/// Propagates filesystem errors and format errors.
pub fn load_with_thresholds(path: impl AsRef<Path>) -> io::Result<(Classifier, ThresholdCache)> {
    from_string_with_thresholds(&fs::read_to_string(path)?)
}

fn parse_kv(line: Option<&str>, key: &str) -> Result<usize, String> {
    let line = line.ok_or_else(|| format!("missing `{key}` line"))?;
    let value = line
        .strip_prefix(&format!("{key} "))
        .ok_or_else(|| format!("expected `{key} <n>`, got `{line}`"))?;
    value.parse().map_err(|e| format!("bad `{key}` value: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, TargAd, TargAdConfig};
    use targad_data::GeneratorSpec;

    fn trained() -> (TargAd, targad_data::DatasetBundle) {
        let bundle = GeneratorSpec::quick_demo().generate(55);
        let mut cfg = TargAdConfig::fast();
        cfg.ae_epochs = 4;
        cfg.clf_epochs = 6;
        let mut model = TargAd::try_new(cfg).expect("valid config");
        model.fit(&bundle.train, 55).expect("fit");
        (model, bundle)
    }

    #[test]
    fn round_trip_preserves_scores_exactly() {
        let (model, bundle) = trained();
        let clf = model.classifier().unwrap();
        let text = to_string(clf);
        let restored = from_string(&text).expect("parse");
        assert_eq!(restored.m(), clf.m());
        assert_eq!(restored.k(), clf.k());
        assert_eq!(
            restored.target_scores_rt(&bundle.test.features, &Runtime::serial()),
            clf.target_scores_rt(&bundle.test.features, &Runtime::serial())
        );
    }

    #[test]
    fn file_round_trip() {
        let (model, bundle) = trained();
        let path = std::env::temp_dir().join("targad_snapshot_test.txt");
        save(model.classifier().unwrap(), &path).expect("save");
        let restored = load(&path).expect("load");
        assert_eq!(
            restored.target_scores_rt(&bundle.test.features, &Runtime::serial()),
            model
                .classifier()
                .unwrap()
                .target_scores_rt(&bundle.test.features, &Runtime::serial())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(from_string("").is_err());
        assert!(from_string("wrong header\n").is_err());
        assert!(from_string(&format!("{MAGIC_V1}\nm 2\nk 2\ndims 4 3\n")).is_err()); // 3 != m+k
        assert!(from_string(&format!(
            "{MAGIC_V1}\nm 2\nk 1\ndims 4 3\nmatrix 2 2\n1 2\n"
        ))
        .is_err());
        // tau lines are a v2-only construct with a known strategy key.
        assert!(from_string(&format!("{MAGIC_V1}\nm 2\nk 1\ndims 4 3\ntau msp 0.5\n")).is_err());
        assert!(from_string(&format!("{MAGIC_V2}\nm 2\nk 1\ndims 4 3\ntau bogus 0.5\n")).is_err());
    }

    #[test]
    fn v2_round_trip_preserves_thresholds_exactly() {
        let (model, bundle) = trained();
        let clf = model.classifier().unwrap();
        let cache = ThresholdCache::complete(0.125, -3.5, 1.0625e-3);
        let text = to_string_with_thresholds(clf, &cache);
        let (restored, restored_cache) = from_string_with_thresholds(&text).expect("parse");
        assert_eq!(restored_cache, cache);
        assert_eq!(
            restored.target_scores_rt(&bundle.test.features, &Runtime::serial()),
            clf.target_scores_rt(&bundle.test.features, &Runtime::serial())
        );
        // A v1 snapshot parses with an empty cache.
        let (_, empty) = from_string_with_thresholds(&to_string(clf)).expect("parse v1");
        assert!(empty.is_empty());
        // Partial caches persist too.
        let mut partial = ThresholdCache::default();
        partial.set(crate::OodStrategy::EnergyScore, 0.75);
        let (_, round) =
            from_string_with_thresholds(&to_string_with_thresholds(clf, &partial)).expect("parse");
        assert_eq!(round, partial);
    }

    #[test]
    fn rejects_wrong_parameter_count() {
        let (model, _) = trained();
        let text = to_string(model.classifier().unwrap());
        // Drop the final matrix block.
        let cut = text.rfind("matrix").unwrap();
        assert!(from_string(&text[..cut]).is_err());
    }
}
