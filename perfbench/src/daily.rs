//! `daily_sqb`: the paper's deployment. Train TargAD on the SQB preset,
//! calibrate on validation, then score the whole 150,061-row "day" with
//! the f64 verdict path and the f32 engine.
//!
//! Almost all the time is in the training layers (`cluster`, candidate
//! autoencoders, `nn::dp`, autograd, small GEMM) and in large-batch engine
//! passes (`nn::infer`, blocked GEMM, `f32kernel`); there is no HTTP,
//! batcher or store work. One pass is not steady, so each round fits once
//! and scores the day [`PASSES`] times in each precision. After the
//! measurement the run checks `auc_pr` against [`PINNED_AUC_PR`].

use std::time::Instant;

use targad_cluster::{choose_k_elbow, KMeans, KMeansConfig};
use targad_core::{EnginePrecision, OodStrategy, Runtime, TargAd, TargAdConfig, TrainObserver};
use targad_data::{DatasetBundle, GeneratorSpec, Preset};
use targad_linalg::rng as lrng;
use targad_metrics::average_precision;
use targad_obs::events::{EpochEvent, FitStartEvent, SelectionEvent};

use crate::common::{runtime, secs};
use crate::stats::{median, MetricsSnapshot, Summary};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Preset scale of the training and validation splits.
const SCALE: f64 = 0.03;
/// Data generations per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Day-scoring passes per precision per round.
const PASSES: usize = 8;
/// Wall time of one round (fit + passes) on the 2-core reference host,
/// used to turn `--seconds` into a fixed round count.
const ROUND_S: f64 = 6.0;
/// f32 verdicts must agree with f64 on this share of the day (the f32
/// engine's oracle bar).
const F32_AGREEMENT_MIN: f64 = 0.999;
/// Rows the elbow method clusters (`targad-core` subsamples `D_U` to this).
const ELBOW_ROWS: usize = 2_000;
/// `auc_pr` of the whole generate → fit → calibrate → verdict path at the
/// default and the held-out seed, as this benchmark first measured it. The
/// fit is deterministic, so any change to detection quality, or to any bit
/// the fit computes, fails the run until the pins are deliberately renewed.
const PINNED_AUC_PR: [(u64, f64); 2] = [(1, 0.05997965781339998), (20261017, 0.5014186321240045)];
/// The pinned seed fitted after the measurement when a run's own seed has
/// no pin.
const REFERENCE_SEED: u64 = 1;

/// SQB at [`SCALE`], with the test split — the day to score — at full
/// scale (150,061 rows).
fn day_spec() -> GeneratorSpec {
    let mut spec = Preset::Sqb.spec(SCALE);
    spec.test_counts = Preset::Sqb.spec(1.0).test_counts;
    spec
}

/// Wall-clock marks of one fit, taken from `TrainObserver` events.
#[derive(Default)]
struct FitClock {
    start: Option<Instant>,
    selection: Option<Instant>,
    /// End of each classifier epoch and its optimizer steps.
    epochs: Vec<(Instant, usize)>,
}

impl TrainObserver for FitClock {
    fn on_fit_start(&mut self, _: &FitStartEvent) {
        self.start = Some(Instant::now());
    }
    fn on_selection(&mut self, _: &SelectionEvent<'_>) {
        self.selection = Some(Instant::now());
    }
    fn on_epoch(&mut self, e: &EpochEvent<'_>) {
        self.epochs.push((Instant::now(), e.steps));
    }
}

impl FitClock {
    fn select_s(&self) -> Option<f64> {
        Some((self.selection? - self.start?).as_secs_f64())
    }

    /// `(seconds, steps)` of each classifier epoch.
    fn epochs(&self) -> Vec<(f64, usize)> {
        let mut prev = match self.selection {
            Some(t) => t,
            None => return Vec::new(),
        };
        self.epochs
            .iter()
            .map(|&(t, steps)| {
                let s = (t - prev).as_secs_f64();
                prev = t;
                (s, steps)
            })
            .collect()
    }

    /// The observed phases as child spans of the open fit span.
    fn record(&self, tr: &mut Tracer) {
        if let (Some(start), Some(sel)) = (self.start, self.selection) {
            tr.record("candidate.select", start, sel);
            let mut prev = sel;
            for &(t, _) in &self.epochs {
                tr.record("train.epoch", prev, t);
                prev = t;
            }
        }
    }
}

/// Layer numbers gathered over the traced rounds.
#[derive(Default)]
struct Layers {
    select_s: Vec<f64>,
    epoch_s: Vec<f64>,
    step_us: Vec<f64>,
    steps: Vec<f64>,
    f64_pass_s: Vec<f64>,
    verdict_s: Vec<f64>,
    /// Layer widths of the fitted classifier, for the computed engine work.
    dims: Vec<usize>,
    counters: Option<[f64; 5]>,
    pool_wait_p99_us: Vec<f64>,
    pool_jobs: Vec<f64>,
}

/// `auc_pr` of a fresh fit at `seed`, through the same calls a round makes.
fn reference_auc_pr(seed: u64, rt: Runtime) -> Result<f64, String> {
    let b = day_spec().generate(seed);
    let mut model = TargAd::try_new(TargAdConfig::default_tuned())
        .map_err(|e| e.to_string())?
        .with_runtime(rt);
    model
        .fit_observed(&b.train, seed, &mut FitClock::default())
        .map_err(|e| e.to_string())?;
    model
        .calibrate_thresholds(&b.val.features, &b.val.three_way_labels())
        .map_err(|e| e.to_string())?;
    let out = model
        .try_verdict_matrix(&b.test.features, OodStrategy::Msp)
        .map_err(|e| e.to_string())?;
    Ok(average_precision(out.scores(), &b.test.target_labels()))
}

/// Counter deltas over one fit: small / naive / blocked GEMM dispatches,
/// tape pool hits and misses.
fn fit_counters(before: &MetricsSnapshot, after: &MetricsSnapshot) -> [f64; 5] {
    let d = |n: &str| after.value(n).saturating_sub(before.value(n)) as f64;
    [
        d("gemm.small_dispatches"),
        d("gemm.naive_dispatches"),
        d("gemm.kernel_dispatches"),
        d("tape.pool_hits"),
        d("tape.pool_misses"),
    ]
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) {
    let rt = runtime();

    // ---- set-up: generate the data, SETUP_REPS times ------------------
    let mut gen_s = Vec::new();
    let mut bundle: Option<DatasetBundle> = None;
    for _ in 0..SETUP_REPS {
        drop(bundle.take());
        let t = Instant::now();
        bundle = Some(tr.time("data.generate", |_| day_spec().generate(args.seed)));
        gen_s.push(secs(t));
    }
    let b = bundle.expect("generated");
    let day = &b.test.features;
    let labels = b.test.target_labels();
    let val_truth = b.val.three_way_labels();

    // ---- measure: fixed rounds of fit + PASSES day passes --------------
    let rounds = ((args.seconds.as_secs_f64() / ROUND_S).round() as usize).max(2);
    let (mut fit_s, mut f64_ms, mut f32_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_traced, mut round_plain) = (Vec::new(), Vec::new());
    let mut aucs: Vec<f64> = Vec::new();
    let mut agreement_min = f64::INFINITY;
    let mut layers = Layers::default();
    let traced_run = tr.on();
    for round in 0..rounds {
        // The traced run interleaves untraced rounds (telemetry off too)
        // to measure what tracing costs.
        let traced = traced_run && round % 2 == 1;
        tr.set_on(traced);
        targad_obs::set_enabled(traced);
        let round_start = Instant::now();
        // Time spent in traced-only probes, excluded from the overhead.
        let mut probes_s = 0.0;

        let mut model = TargAd::try_new(TargAdConfig::default_tuned())
            .expect("default_tuned is valid")
            .with_runtime(rt);
        let mut clock = FitClock::default();
        let before = traced.then(MetricsSnapshot::take);
        let t = Instant::now();
        let fitted = tr.time("core.fit", |tr| {
            let r = model.fit_observed(&b.train, args.seed, &mut clock);
            clock.record(tr);
            r
        });
        fit_s.push(secs(t));
        rep.attempted += 1;
        if let Err(e) = fitted {
            rep.failed += 1;
            rep.gate("fit_ok", false, e.to_string());
            continue;
        }
        if let Some(before) = &before {
            let after = MetricsSnapshot::take();
            layers.counters = Some(fit_counters(before, &after));
            layers.select_s.extend(clock.select_s());
            let epochs = clock.epochs();
            layers.steps.push(epochs.iter().map(|e| e.1 as f64).sum());
            for (s, steps) in epochs {
                layers.epoch_s.push(s);
                layers.step_us.push(s * 1e6 / steps.max(1) as f64);
            }
        }
        let calibrated = tr.time("core.calibrate", |_| {
            model.calibrate_thresholds(&b.val.features, &val_truth)
        });
        rep.attempted += 1;
        if let Err(e) = calibrated {
            rep.failed += 1;
            rep.gate("calibrate_ok", false, e.to_string());
            continue;
        }
        let clf = model.classifier().expect("fitted").clone();
        if traced {
            layers.dims = clf.layer_dims();
        }
        let pool_before = traced.then(MetricsSnapshot::take);

        let mut classes64 = Vec::new();
        for pass in 0..PASSES {
            let t = Instant::now();
            let out = tr.time("core.verdict_matrix", |_| {
                model.try_verdict_matrix(day, OodStrategy::Msp)
            });
            f64_ms.push(secs(t) * 1e3);
            rep.attempted += 1;
            match out {
                Ok(out) if pass == 0 => {
                    aucs.push(average_precision(out.scores(), &labels));
                    classes64 = out.classes().to_vec();
                }
                Ok(_) => {}
                Err(e) => {
                    rep.failed += 1;
                    rep.gate("verdict_ok", false, e.to_string());
                }
            }
            let t = Instant::now();
            let s32 = tr.time("engine.f32_pass", |_| {
                clf.target_scores_rt_prec(day, &rt, EnginePrecision::F32)
            });
            f32_s.push(secs(t));
            rep.attempted += 1;
            if s32.len() != day.rows() || s32.iter().any(|s| !s.is_finite()) {
                rep.failed += 1;
            }
            if traced {
                layers.verdict_s.push(f64_ms[f64_ms.len() - 1] / 1e3);
                let t = Instant::now();
                tr.time("engine.f64_pass", |_| {
                    clf.target_scores_rt_prec(day, &rt, EnginePrecision::F64)
                });
                let probe_s = secs(t);
                layers.f64_pass_s.push(probe_s);
                probes_s += probe_s;
            }
        }
        if let Some(before) = &pool_before {
            let after = MetricsSnapshot::take();
            let wait = after
                .hist("pool.queue_wait_ns")
                .since(&before.hist("pool.queue_wait_ns"));
            layers.pool_wait_p99_us.push(wait.quantile(0.99) / 1e3);
            layers.pool_jobs.push(
                after
                    .value("pool.jobs")
                    .saturating_sub(before.value("pool.jobs")) as f64,
            );
        }

        // f32 verdicts against the f64 oracle, outside the timed passes.
        let tau = model
            .thresholds()
            .get(OodStrategy::Msp)
            .expect("calibrated");
        let v32 = tr.time("gate.f32_agreement", |_| {
            clf.verdicts_rt_with_prec(day, &rt, EnginePrecision::F32, |_| (OodStrategy::Msp, tau))
        });
        if classes64.len() == v32.len() && !v32.is_empty() {
            let same = v32
                .iter()
                .zip(&classes64)
                .filter(|(v, c)| v.1 == **c)
                .count();
            agreement_min = agreement_min.min(same as f64 / v32.len() as f64);
        }
        let round_s = secs(round_start) - probes_s;
        if traced {
            round_traced.push(round_s);
        } else {
            round_plain.push(round_s);
        }
        if traced_run && !traced {
            // Keep the untraced round visible as a top-level phase.
            tr.set_on(true);
            tr.record("overhead.untraced_round", round_start, Instant::now());
        }
    }
    tr.set_on(traced_run);
    targad_obs::set_enabled(traced_run);

    // ---- gates -------------------------------------------------------
    let auc = aucs.first().copied().unwrap_or(f64::NAN);
    let prevalence = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
    rep.gate(
        "auc_pr_identical",
        !aucs.is_empty() && aucs.iter().all(|a| a.to_bits() == auc.to_bits()),
        format!("{} fits, auc_pr {aucs:?}", aucs.len()),
    );
    rep.gate(
        "auc_pr_above_chance",
        auc >= 10.0 * prevalence,
        format!(
            "auc_pr {auc:.4} vs 10 x prevalence {:.4}",
            10.0 * prevalence
        ),
    );
    rep.gate(
        "f32_verdict_agreement",
        agreement_min >= F32_AGREEMENT_MIN,
        format!("min over rounds {agreement_min:.6} (bar {F32_AGREEMENT_MIN})"),
    );
    if agreement_min < F32_AGREEMENT_MIN {
        rep.failed += 1;
    }

    // ---- metrics -------------------------------------------------------
    let rows = day.rows() as f64;
    let setup_s = median(&gen_s);
    let fit_med = median(&fit_s);
    let f64_pass = Summary::of(&f64_ms).expect("passes ran");
    let f32_med = median(&f32_s);
    rep.protocol("setup_reps", SETUP_REPS);
    rep.protocol("rounds", rounds);
    rep.protocol("fits", fit_s.len());
    rep.protocol("passes_per_precision", f64_ms.len());
    rep.protocol("day_rows", day.rows());
    rep.show(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} data generations"),
    );
    rep.show(
        "fit_s",
        fit_med,
        "s",
        format!("median of {} fit_observed", fit_s.len()),
    );
    rep.show(
        "score_f64_rows_per_s",
        rows / (f64_pass.p50 / 1e3),
        "rows/s",
        format!("try_verdict_matrix, median of {} passes", f64_pass.n),
    );
    rep.show(
        "score_f32_rows_per_s",
        rows / f32_med,
        "rows/s",
        format!(
            "target_scores_rt_prec(F32), median of {} passes",
            f32_s.len()
        ),
    );
    rep.show("auc_pr", auc, "ratio", "test split, target labels");
    rep.show(
        "f64_pass_ms",
        f64_pass.p50,
        "ms",
        format!(
            "{} {:.3} ms, n={}",
            f64_pass.tail_label(),
            f64_pass.tail,
            f64_pass.n
        ),
    );
    rep.e2e("setup_s", setup_s);
    rep.e2e("p50_ms", f64_pass.p50);
    rep.e2e("aux_p50_ms", fit_med * 1e3);
    rep.e2e("ops_per_s", rows / f32_med);

    if traced_run {
        traced_layers(args, tr, rep, &b, &layers, &f32_s);
        rep.layer("quality.auc_pr", auc);
        let overhead = median(&round_traced) / median(&round_plain) - 1.0;
        rep.layer("obs.trace_overhead_pct", overhead * 100.0);
        rep.layer("data.generate_s", setup_s);
    }

    // ---- quality pin, after the measurement --------------------------
    let pinned = |seed: u64| PINNED_AUC_PR.iter().find(|p| p.0 == seed).map(|p| p.1);
    let (ref_seed, ref_auc) = match pinned(args.seed) {
        Some(_) => (args.seed, Ok(auc)),
        None => {
            // The reference fit generates a second data set: read the
            // run's memory high-water mark first and free the run's data.
            rep.e2e("peak_rss_mb", crate::peak_rss_mb());
            drop(b);
            let got = tr.time("gate.reference_fit", |_| {
                reference_auc_pr(REFERENCE_SEED, rt)
            });
            (REFERENCE_SEED, got)
        }
    };
    let want = pinned(ref_seed).expect("a pinned seed");
    let same = ref_auc
        .as_ref()
        .is_ok_and(|a| a.to_bits() == want.to_bits());
    rep.attempted += 1;
    rep.failed += u64::from(!same);
    rep.gate(
        "auc_pr_pinned",
        same,
        format!("seed {ref_seed}: auc_pr {ref_auc:?}, pinned {want:?}"),
    );
}

fn traced_layers(
    args: &Args,
    tr: &mut Tracer,
    rep: &mut Report,
    b: &DatasetBundle,
    l: &Layers,
    f32_s: &[f64],
) {
    // Clustering runs inside the fit; the benchmark times the same public
    // calls on the same unlabeled split to split candidate selection.
    let (xu, _) = b.train.unlabeled_view();
    let sub = if xu.rows() > ELBOW_ROWS {
        let mut rng = lrng::seeded(args.seed ^ 0xE1B0);
        xu.take_rows(&lrng::sample_indices(&mut rng, xu.rows(), ELBOW_ROWS))
    } else {
        xu.clone()
    };
    let t = Instant::now();
    let (k, _) = tr.time("cluster.elbow", |_| {
        choose_k_elbow(&sub, 1, 8.min(sub.rows()), args.seed)
    });
    let elbow_s = secs(t);
    let t = Instant::now();
    let km = tr.time("cluster.kmeans", |_| {
        KMeans::fit(&xu, KMeansConfig::new(k), args.seed ^ 0xC1D2)
    });
    let kmeans_s = secs(t);
    let select_s = median(&l.select_s);
    rep.layer("cluster.elbow_s", elbow_s);
    rep.layer("cluster.kmeans_s", kmeans_s);
    rep.layer("cluster.kmeans_iters", km.iterations() as f64);
    rep.layer("candidate.select_s", select_s);
    rep.layer("candidate.ae_s", select_s - elbow_s - kmeans_s);
    rep.layer("train.epoch_s", median(&l.epoch_s));
    rep.layer("train.steps", median(&l.steps));
    rep.layer("train.step_us", median(&l.step_us));
    if let Some([small, naive, kernel, hits, misses]) = l.counters {
        rep.layer("gemm.small_dispatches", small);
        rep.layer("gemm.naive_dispatches", naive);
        rep.layer("gemm.kernel_dispatches", kernel);
        rep.layer("tape.pool_hit_ratio", hits / (hits + misses).max(1.0));
    }
    rep.layer("pool.jobs", median(&l.pool_jobs));
    rep.layer("pool.queue_wait_us_p99", median(&l.pool_wait_p99_us));

    // Engine work, computed from the layer shapes and the row count.
    let rows = b.test.features.rows() as f64;
    let dims = &l.dims;
    let macs: f64 = dims.windows(2).map(|p| (p[0] * p[1]) as f64).sum();
    let weights: f64 = dims.windows(2).map(|p| ((p[0] + 1) * p[1]) as f64).sum();
    let activations: f64 = dims.iter().sum::<usize>() as f64 * rows;
    let gflop = 2.0 * macs * rows / 1e9;
    let f64_pass = median(&l.f64_pass_s);
    let f32_pass = median(f32_s);
    rep.layer("engine.gflop", gflop);
    rep.layer("engine.mb_moved", (weights + activations) * 8.0 / 1e6);
    rep.layer("engine.f64_pass_s", f64_pass);
    rep.layer("engine.f32_pass_s", f32_pass);
    rep.layer("engine.f64_gflop_per_s", gflop / f64_pass);
    rep.layer("engine.f32_gflop_per_s", gflop / f32_pass);
    rep.layer("verdict.s", median(&l.verdict_s) - f64_pass);
}
