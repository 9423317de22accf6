//! `nmr-paper`: the NMR toolflow of paper §III.B, composed from the
//! calls `NmrPipeline::run` makes (the LSTM branch left out).
//!
//! Set-up is [`FlowReactorExperiment::acquire`], which produces the 300
//! experimental spectra with their high-field reference. Like the
//! paper's one measured run, the experiment is the same for every
//! workload seed (it uses the pipeline's default seed); the workload
//! seed drives augmentation and the CNN. IHM's cost follows the spectra
//! it fits — Levenberg–Marquardt iterations over a 40-spectrum subsample
//! ranged 416–516 across experiment seeds — so a per-seed experiment
//! would let the seed, not the code, move `paper_s`. The timed pass (`paper_s`)
//! is augmentation, training the 10,532-parameter CNN, CNN prediction
//! over the run, and the IHM baseline on a uniform subsample.

use std::time::Instant;

use chem::nmr::lithiation_components;
use chemometrics::ihm::IhmAnalyzer;
use neural::optim::OptimizerSpec;
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Loss, Network};
use nmr_sim::augment::SpectraAugmenter;
use nmr_sim::experiment::{ExperimentRun, FlowReactorExperiment};
use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};
use spectroai::PipelineError;

use crate::report::Report;
use crate::stages::{latency_window, repeat_for, Setups, Stages, LATENCY_WINDOW_RATIO};
use crate::stats::{
    best_window_quantile, median, min, mse_against, split_window, windowed_quantile,
};
use crate::trace::Attribution;

/// The workload's name.
pub const WORKLOAD: &str = "nmr-paper";

/// The benchmark's NMR configuration for `seed`: the pipeline defaults
/// scaled so one pass takes under a second — 500 synthetic spectra,
/// 10 CNN epochs, IHM on 10 spectra of the run.
pub fn config(seed: u64) -> NmrPipelineConfig {
    NmrPipelineConfig {
        augmented_spectra: 500,
        cnn_epochs: 10,
        ihm_max_spectra: Some(10),
        seed,
        ..NmrPipelineConfig::default()
    }
}

/// Acquires the experimental run (the set-up).
///
/// # Errors
///
/// Propagates acquisition errors.
pub fn acquire(config: &NmrPipelineConfig) -> Result<ExperimentRun, PipelineError> {
    let _span = obs::span("nmr-sim.acquire");
    Ok(FlowReactorExperiment::new(config.seed, config.experiment).acquire()?)
}

/// One evaluated CNN plus the IHM baseline: the result of a timed pass.
#[derive(Debug)]
pub struct Evaluated {
    /// CNN MSE against the high-field reference over the whole run.
    pub cnn_mse: f64,
    /// IHM MSE against the reference on its subsample.
    pub ihm_mse: f64,
    /// Spectra IHM analysed.
    pub ihm_spectra: usize,
    /// Levenberg–Marquardt iterations summed over the IHM fits.
    pub lm_iterations: usize,
    /// Per-epoch training loss.
    pub train_loss: Vec<f32>,
    /// Training rows.
    pub train_rows: usize,
    /// Per-spectrum CNN prediction latencies (ms) of the predict step.
    pub predict_ms: Vec<f64>,
    /// The trained CNN.
    pub cnn: Network,
    /// Wall time of each step.
    pub stages: Stages,
    /// Wall time of the whole pass, steps and the glue between them.
    pub paper_s: f64,
}

/// The timed pass: experimental run in, evaluated CNN and IHM baseline
/// out.
///
/// # Errors
///
/// Propagates augmentation, training and fitting errors.
pub fn toolflow(
    config: &NmrPipelineConfig,
    run: &ExperimentRun,
) -> Result<Evaluated, PipelineError> {
    let started = Instant::now();
    let mut stages = Stages::start(WORKLOAD);
    let scale = config.input_scale as f32;
    let (experimental_inputs, validation) = stages.run("prepare", "neural.dataset", || {
        let inputs: Vec<Vec<f32>> = run
            .spectra
            .iter()
            .map(|s| s.to_f32().into_iter().map(|v| v * scale).collect())
            .collect();
        let reference: Vec<Vec<f32>> = run
            .reference
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect();
        let validation = Dataset::new(inputs.clone(), reference)?;
        Ok::<_, PipelineError>((inputs, validation))
    })?;
    let synthetic = stages.run("augment", "nmr-sim.augment", || {
        let augmenter = SpectraAugmenter::new(config.augmentation.clone())?;
        let mut synthetic = augmenter.generate(config.augmented_spectra, config.seed ^ 0xA5A5)?;
        for row in &mut synthetic.inputs {
            for v in row.iter_mut() {
                *v *= config.input_scale;
            }
        }
        Ok::<_, PipelineError>(synthetic)
    })?;
    let (mut cnn, history, train_rows) = stages.run("train", "neural.train", || {
        let mut cnn = NmrPipeline::cnn_spec().build(config.seed)?;
        let train = Dataset::new(synthetic.inputs_f32(), synthetic.labels_f32())?;
        let train_config = TrainConfig {
            epochs: config.cnn_epochs,
            batch_size: config.batch_size,
            optimizer: OptimizerSpec::Adam {
                lr: config.learning_rate,
            },
            loss: Loss::Mse,
            shuffle: true,
            seed: config.seed,
            restore_best: true,
            stop_at_val_loss: None,
        };
        let history = Trainer::new(train_config).fit(&mut cnn, &train, Some(&validation))?;
        Ok::<_, PipelineError>((cnn, history, train.len()))
    })?;
    let (cnn_mse, predict_ms) = stages.run("predict", "neural.predict", || {
        let mut latencies = Vec::with_capacity(experimental_inputs.len());
        let predictions: Vec<Vec<f64>> = experimental_inputs
            .iter()
            .map(|x| {
                let t = Instant::now();
                let y = cnn.predict(x);
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                y.iter().map(|&v| v as f64).collect()
            })
            .collect();
        (mse_against(&predictions, &run.reference), latencies)
    });
    let (ihm_mse, ihm_spectra, lm_iterations) =
        stages.run("ihm", "chemometrics.ihm_fit", || {
            let analyzer = IhmAnalyzer::new(lithiation_components(), *run.spectra[0].axis())?;
            let indices = ihm_indices(config, run.len());
            let mut predictions = Vec::with_capacity(indices.len());
            let mut iterations = 0;
            for &i in &indices {
                let fit = analyzer.fit(&run.spectra[i])?;
                iterations += fit.iterations;
                predictions.push(fit.concentrations);
            }
            let reference: Vec<Vec<f64>> =
                indices.iter().map(|&i| run.reference[i].clone()).collect();
            Ok::<_, PipelineError>((
                mse_against(&predictions, &reference),
                indices.len(),
                iterations,
            ))
        })?;
    stages.finish();
    let paper_s = started.elapsed().as_secs_f64();
    Ok(Evaluated {
        cnn_mse,
        ihm_mse,
        ihm_spectra,
        lm_iterations,
        train_loss: history.train_loss,
        train_rows,
        predict_ms,
        cnn,
        stages,
        paper_s,
    })
}

/// The IHM subsample, spread uniformly over the run as
/// `NmrPipeline::run` spreads it.
fn ihm_indices(config: &NmrPipelineConfig, len: usize) -> Vec<usize> {
    let limit = config.ihm_max_spectra.unwrap_or(len).min(len);
    let step = (len as f64 / limit as f64).max(1.0);
    (0..limit)
        .map(|i| ((i as f64 * step) as usize).min(len - 1))
        .collect()
}

/// Steps of one pass, for `attempted`.
const STEPS: u64 = 5;

/// Runs the workload: set-up, then untraced passes for `seconds`, each
/// followed by a latency window and, with `trace`, by a traced pass.
///
/// # Errors
///
/// Propagates the first failing step.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), PipelineError> {
    let config = config(seed);
    report.detail(
        "sizes",
        serde_json::json!({
            "augmented_spectra": config.augmented_spectra,
            "cnn_epochs": config.cnn_epochs,
            "batch_size": config.batch_size,
            "ihm_max_spectra": config.ihm_max_spectra,
            "spectra_per_plateau": config.experiment.spectra_per_plateau,
            "experiment_seed": NmrPipelineConfig::default().seed,
        }),
    );

    let experiment = NmrPipelineConfig {
        seed: NmrPipelineConfig::default().seed,
        ..config.clone()
    };
    // Set-up: the acquisition, once before the run and once more before
    // every pass; every repetition must acquire the same spectra.
    let mut setups = Setups::default();
    let run = setups.time(|| acquire(&experiment))?;
    let mut setup_repeats = true;

    let inputs: Vec<Vec<f32>> = run
        .spectra
        .iter()
        .map(|s| {
            s.to_f32()
                .into_iter()
                .map(|v| v * config.input_scale as f32)
                .collect()
        })
        .collect();
    // Untraced passes, each followed by its latency window and, in the
    // traced run, by a traced pass (see `ms_paper::run`).
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut traced_passes = Vec::new();
    let mut attribution = Attribution::default();
    let passes = repeat_for(seconds, || {
        let again = setups.time(|| acquire(&experiment))?;
        setup_repeats &= again == run;
        report.attempted += STEPS;
        let mut pass = toolflow(&config, &run)?;
        let cnn = &mut pass.cnn;
        let mut window = pass.predict_ms.clone();
        window.extend(latency_window(
            pass.paper_s * LATENCY_WINDOW_RATIO,
            &inputs,
            |x| {
                std::hint::black_box(cnn.predict(x));
            },
        ));
        windows.push(window);
        if trace {
            report.attempted += STEPS;
            let (traced_pass, a) = crate::trace::traced(|| toolflow(&config, &run));
            traced_passes.push(traced_pass?);
            attribution.merge(a);
        }
        Ok::<_, PipelineError>(pass)
    })?;
    report.check(
        "set-up repeats bit for bit",
        setup_repeats,
        format!("{} acquisitions", setups.times.len()),
    );
    let setup_s = setups.fastest();
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_s_median", setups.median(), "s");
    report.metric("nmr-sim.acquire_s", setup_s, "s");
    report.metric(
        "nmr-sim.acquire_spectra_per_s",
        run.len() as f64 / setup_s,
        "1/s",
    );
    report.detail("setup_times_s", serde_json::json!(setups.times));

    let first = &passes[0];
    report.check(
        "quality repeats bit for bit, traced or not",
        passes.iter().chain(&traced_passes).all(|p| {
            p.cnn_mse.to_bits() == first.cnn_mse.to_bits()
                && p.ihm_mse.to_bits() == first.ihm_mse.to_bits()
                && p.lm_iterations == first.lm_iterations
                && p.train_loss == first.train_loss
        }),
        format!("{} passes, {} traced", passes.len(), traced_passes.len()),
    );
    report.check(
        "quality finite",
        first.cnn_mse.is_finite() && first.ihm_mse.is_finite() && first.cnn_mse > 0.0,
        format!("cnn_mse {} ihm_mse {}", first.cnn_mse, first.ihm_mse),
    );

    // Times are the fastest pass's; shares are medians over passes.
    let fastest = |f: &dyn Fn(&Evaluated) -> f64| min(&passes.iter().map(f).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Evaluated) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let share = |step: &'static str| med(&|p| p.stages.seconds(step) / p.paper_s);
    let paper_s = fastest(&|p| p.paper_s);
    let train_s = fastest(&|p| p.stages.seconds("train"));
    let ihm_s = fastest(&|p| p.stages.seconds("ihm"));
    let train_samples = (first.train_loss.len() * first.train_rows) as f64;
    let short: Vec<Vec<f64>> = windows.iter().flat_map(|w| split_window(w)).collect();
    let cnn_ms = best_window_quantile(&short, 0.5);
    let ihm_ms = ihm_s / first.ihm_spectra as f64 * 1e3;
    report.metric("e2e_s", paper_s, "s");
    report.metric("paper_s", paper_s, "s");
    report.metric("p50_ms", cnn_ms, "ms");
    report.metric("p90_ms", best_window_quantile(&short, 0.9), "ms");
    report.metric("paper_s_median", med(&|p| p.paper_s), "s");
    report.metric("p50_ms_median", windowed_quantile(&windows, 0.5), "ms");
    report.metric("p90_ms_median", windowed_quantile(&windows, 0.9), "ms");
    report.metric("cnn_mse", first.cnn_mse, "(mol/L)^2");
    report.metric("ihm_mse", first.ihm_mse, "(mol/L)^2");
    report.metric("ihm_over_cnn_time", ihm_ms / cnn_ms, "ratio");
    report.metric(
        "nmr-sim.augment_spectra_per_s",
        config.augmented_spectra as f64 / fastest(&|p| p.stages.seconds("augment")),
        "1/s",
    );
    report.metric("nmr-sim.augment_share", share("augment"), "fraction");
    report.metric("neural.train_s", train_s, "s");
    report.metric("neural.train_share", share("train"), "fraction");
    report.metric("neural.train_samples_per_s", train_samples / train_s, "1/s");
    report.metric("neural.train_samples", train_samples, "count");
    report.metric("neural.predict_per_s", 1e3 / cnn_ms, "1/s");
    report.metric("chemometrics.ihm_ms_per_spectrum", ihm_ms, "ms");
    report.metric("chemometrics.ihm_spectra_per_s", 1e3 / ihm_ms, "1/s");
    report.metric("chemometrics.ihm_share", share("ihm"), "fraction");
    report.metric(
        "chemometrics.lm_iterations",
        first.lm_iterations as f64,
        "count",
    );
    report.detail(
        "passes_paper_s",
        serde_json::json!(passes.iter().map(|p| p.paper_s).collect::<Vec<_>>()),
    );

    if trace {
        let traced_s: Vec<f64> = traced_passes.iter().map(|p| p.paper_s).collect();
        let stage_sum = attribution.total_with_prefix(&format!("stage.{WORKLOAD}."));
        crate::trace::record_paper(
            report,
            &attribution,
            stage_sum,
            traced_s.iter().sum(),
            paper_s,
            min(&traced_s),
        );
        let share = |f: &dyn Fn(&Evaluated) -> f64| {
            median(
                &traced_passes
                    .iter()
                    .map(|p| f(p) / p.paper_s)
                    .collect::<Vec<_>>(),
            )
        };
        let aug_ihm = share(&|p| p.stages.seconds("augment") + p.stages.seconds("ihm"));
        let train = share(&|p| p.stages.seconds("train"));
        report.detail(
            "design",
            serde_json::json!({
                "dominant_layers_predicted": ["nmr-sim", "chemometrics"],
                "augment_plus_ihm_share_of_paper_s": aug_ihm,
                "neural_train_share_of_paper_s": train,
                "holds": aug_ihm > 0.5 && train < 0.5,
            }),
        );
    }
    Ok(())
}
