//! `ms-paper`: the MS toolflow of paper §III.A, composed from the calls
//! `MsPipeline::run` makes.
//!
//! Set-up is the calibration and evaluation campaigns on an
//! [`MmsPrototype`] — the "measured" inputs the toolchain receives. The
//! timed pass (`paper_s`) is Tool 2 characterization, Tools 1+3 dataset
//! generation, Tool 4 training of the Table-1 CNN, and evaluation on the
//! simulated validation split and on the measured campaign.

use std::time::Instant;

use chem::fragmentation::GasLibrary;
use ms_sim::campaign::{run_calibration_campaign, run_evaluation_campaign};
use ms_sim::characterize::Characterizer;
use ms_sim::prototype::{MeasuredSample, MmsPrototype};
use ms_sim::simulate::{LabeledSpectra, TrainingSimulator};
use neural::optim::OptimizerSpec;
use neural::train::{Dataset, History, TrainConfig, Trainer};
use neural::{Loss, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spectroai::pipeline::ms::{evaluate_on, MsPipeline, MsPipelineConfig};
use spectroai::PipelineError;

use crate::report::Report;
use crate::stages::{latency_window, repeat_for, Setups, Stages, LATENCY_WINDOW_RATIO};
use crate::stats::{best_window_quantile, median, min, split_window, windowed_quantile};
use crate::trace::Attribution;

/// The workload's name.
pub const WORKLOAD: &str = "ms-paper";

/// The benchmark's MS configuration for `seed`: the paper's final
/// calibration campaign (200 samples per mixture), 5 measured samples
/// per mixture for evaluation, and a training set sized so one pass is
/// about half a second, most of it scalar training — short enough that
/// a 40 s run holds dozens of passes (see `WORKLOADS.md`).
pub fn config(seed: u64) -> MsPipelineConfig {
    MsPipelineConfig {
        calibration_samples_per_mixture: 200,
        training_spectra: 100,
        evaluation_samples_per_mixture: 5,
        epochs: 2,
        seed,
        ..MsPipelineConfig::default()
    }
}

/// What the prototype measured: Tool 2's calibration input and the
/// measured evaluation set.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurements {
    /// Calibration samples on the pipeline axis.
    pub calibration: Vec<MeasuredSample>,
    /// The measured evaluation campaign on the pipeline axis.
    pub measured: LabeledSpectra,
}

/// Runs the calibration and then the evaluation campaign on a fresh
/// prototype seeded with `prototype_seed`. `MsPipeline::run` takes the
/// evaluation campaign after training, but training never touches the
/// prototype, so its measurements are the same.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn campaigns(
    config: &MsPipelineConfig,
    prototype_seed: u64,
) -> Result<Measurements, PipelineError> {
    let mut prototype = MmsPrototype::new(prototype_seed);
    let calibration = {
        let _span = obs::span("ms-sim.calibration_campaign");
        run_calibration_campaign(&mut prototype, config.calibration_samples_per_mixture)?
    };
    let calibration = calibration
        .into_iter()
        .map(|mut s| {
            if s.spectrum.axis() != &config.axis {
                s.spectrum = s.spectrum.resampled(&config.axis);
            }
            s
        })
        .collect();
    let mut measured = {
        let _span = obs::span("ms-sim.evaluation_campaign");
        run_evaluation_campaign(&mut prototype, config.evaluation_samples_per_mixture)?
    };
    if measured.axis != config.axis {
        let src = measured.axis;
        measured.inputs = measured
            .inputs
            .iter()
            .map(|row| spectrum::interp::resample(&src, row, &config.axis))
            .collect();
        measured.axis = config.axis;
    }
    Ok(Measurements {
        calibration,
        measured,
    })
}

/// One evaluated model: the result of a timed pass.
#[derive(Debug)]
pub struct Evaluated {
    /// The trained Table-1 network (best-validation weights restored).
    pub network: Network,
    /// Training history.
    pub history: History,
    /// The simulated validation split.
    pub validation: Dataset,
    /// Training rows (80% of the simulated spectra).
    pub train_rows: usize,
    /// MAE on the simulated validation split.
    pub sim_mae: f64,
    /// MAE on the measured campaign.
    pub measured_mae: f64,
    /// Wall time of each step.
    pub stages: Stages,
    /// Wall time of the whole pass, steps and the glue between them.
    pub paper_s: f64,
}

/// The timed pass: measurements in, evaluated model out.
///
/// # Errors
///
/// Propagates toolchain, training and evaluation errors.
pub fn toolflow(config: &MsPipelineConfig, m: &Measurements) -> Result<Evaluated, PipelineError> {
    let started = Instant::now();
    let mut stages = Stages::start(WORKLOAD);
    let characterization = stages.run("characterize", "ms-sim.characterize", || {
        Characterizer::new(GasLibrary::standard(), Some("He".into())).characterize(&m.calibration)
    })?;
    let simulated = stages.run("simulate", "ms-sim.generate_dataset", || {
        let simulator = TrainingSimulator::new(
            characterization.model.clone(),
            GasLibrary::standard(),
            config.substances.clone(),
            config.axis,
        )?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        simulator.generate_dataset(config.training_spectra, &mut rng)
    })?;
    let (train, validation) = stages.run("split", "neural.dataset", || {
        Dataset::new(simulated.inputs_f32(), simulated.labels_f32())?.split(0.8)
    })?;
    let (mut network, history) = stages.run("train", "neural.train", || {
        let spec = MsPipeline::table1_spec(
            config.axis.len(),
            config.substances.len(),
            config.activations,
        );
        let mut network = spec.build(config.seed)?;
        let train_config = TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            optimizer: OptimizerSpec::Adam {
                lr: config.learning_rate,
            },
            loss: Loss::Mae,
            shuffle: true,
            seed: config.seed,
            restore_best: true,
            stop_at_val_loss: config.target_validation_mae,
        };
        let history = Trainer::new(train_config).fit(&mut network, &train, Some(&validation))?;
        Ok::<_, PipelineError>((network, history))
    })?;
    let sim_mae = stages.run("evaluate_sim", "neural.per_output_mae", || {
        let per_substance = validation.per_output_mae(&mut network);
        per_substance.iter().sum::<f64>() / per_substance.len() as f64
    });
    let (measured_mae, _) = stages.run("evaluate_measured", "neural.per_output_mae", || {
        evaluate_on(&mut network, &m.measured)
    })?;
    stages.finish();
    let paper_s = started.elapsed().as_secs_f64();
    Ok(Evaluated {
        network,
        history,
        validation,
        train_rows: train.len(),
        sim_mae,
        measured_mae,
        stages,
        paper_s,
    })
}

/// Steps of one pass, for `attempted`.
const STEPS: u64 = 6;

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
            "calibration_samples_per_mixture": config.calibration_samples_per_mixture,
            "evaluation_samples_per_mixture": config.evaluation_samples_per_mixture,
            "training_spectra": config.training_spectra,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "input_len": config.axis.len(),
        }),
    );

    // Set-up: the campaigns, once before the run and once more before
    // every pass; every repetition must measure the same spectra.
    let mut setups = Setups::default();
    let m = setups.time(|| campaigns(&config, seed))?;
    let mut setup_repeats = true;

    // Untraced passes, each followed by its latency window and, in the
    // traced run, by a traced pass: pairs side by side in time, so host
    // drift does not pass for tracing overhead.
    let mut traced_passes = Vec::new();
    let mut attribution = Attribution::default();
    let passes = repeat_for(seconds, || {
        let again = setups.time(|| campaigns(&config, seed))?;
        setup_repeats &= again == m;
        report.attempted += STEPS;
        let pass = Pass::run(&config, &m)?;
        if trace {
            report.attempted += STEPS;
            let (traced_pass, a) = crate::trace::traced(|| toolflow(&config, &m));
            traced_passes.push(traced_pass?);
            attribution.merge(a);
        }
        Ok::<_, PipelineError>(pass)
    })?;
    report.check(
        "set-up repeats bit for bit",
        setup_repeats,
        format!("{} campaigns", setups.times.len()),
    );
    let setup_s = setups.fastest();
    let spectra = (m.calibration.len() + m.measured.len()) as f64;
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_s_median", setups.median(), "s");
    report.metric("ms-sim.campaign_s", setup_s, "s");
    report.metric("ms-sim.campaign_spectra_per_s", spectra / setup_s, "1/s");
    report.detail("setup_times_s", serde_json::json!(setups.times));
    let first = &passes[0].eval;
    let same_quality = passes
        .iter()
        .map(|p| &p.eval)
        .chain(&traced_passes)
        .all(|p| {
            p.sim_mae.to_bits() == first.sim_mae.to_bits()
                && p.measured_mae.to_bits() == first.measured_mae.to_bits()
                && p.history.train_loss == first.history.train_loss
        });
    report.check(
        "quality repeats bit for bit, traced or not",
        same_quality,
        format!("{} passes, {} traced", passes.len(), traced_passes.len()),
    );
    report.check(
        "quality finite and learned",
        first.sim_mae.is_finite() && first.measured_mae.is_finite() && first.sim_mae < 0.125,
        format!(
            "sim_mae {} measured_mae {}",
            first.sim_mae, first.measured_mae
        ),
    );
    report.check(
        "timed predictions reproduce measured_mae",
        passes
            .iter()
            .all(|p| p.probe_mae.to_bits() == p.eval.measured_mae.to_bits()),
        format!("{} vs {}", passes[0].probe_mae, first.measured_mae),
    );

    // Times are the fastest pass's; shares are medians over passes.
    let fastest = |f: &dyn Fn(&Pass) -> f64| min(&passes.iter().map(f).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let paper_s = fastest(&|p| p.eval.paper_s);
    let train_s = fastest(&|p| p.eval.stages.seconds("train"));
    let epochs_run = first.history.train_loss.len();
    let train_samples = (epochs_run * first.train_rows) as f64;
    let windows: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies_ms.clone()).collect();
    let short: Vec<Vec<f64>> = passes
        .iter()
        .flat_map(|p| split_window(&p.latencies_ms))
        .collect();
    report.metric("e2e_s", paper_s, "s");
    report.metric("paper_s", paper_s, "s");
    report.metric("p50_ms", best_window_quantile(&short, 0.5), "ms");
    report.metric("p90_ms", best_window_quantile(&short, 0.9), "ms");
    report.metric("paper_s_median", med(&|p| p.eval.paper_s), "s");
    report.metric("p50_ms_median", windowed_quantile(&windows, 0.5), "ms");
    report.metric("p90_ms_median", windowed_quantile(&windows, 0.9), "ms");
    report.metric("sim_mae", first.sim_mae, "fraction");
    report.metric("measured_mae", first.measured_mae, "fraction");
    report.metric(
        "sim_to_real_gap",
        first.measured_mae / first.sim_mae,
        "ratio",
    );
    report.metric(
        "ms-sim.characterize_s",
        fastest(&|p| p.eval.stages.seconds("characterize")),
        "s",
    );
    report.metric(
        "ms-sim.characterize_share",
        med(&|p| p.eval.stages.seconds("characterize") / p.eval.paper_s),
        "fraction",
    );
    report.metric(
        "ms-sim.simulate_spectra_per_s",
        config.training_spectra as f64 / fastest(&|p| p.eval.stages.seconds("simulate")),
        "1/s",
    );
    report.metric("neural.train_s", train_s, "s");
    report.metric(
        "neural.train_share",
        med(&|p| p.eval.stages.seconds("train") / p.eval.paper_s),
        "fraction",
    );
    report.metric("neural.train_samples_per_s", train_samples / train_s, "1/s");
    report.metric("neural.train_samples", train_samples, "count");
    report.metric(
        "neural.predict_per_s",
        1e3 / best_window_quantile(&short, 0.5),
        "1/s",
    );
    let validate_pass_s = fastest(&|p| p.validate_pass_s);
    report.metric("neural.validate_pass_s", validate_pass_s, "s");
    report.metric(
        "neural.validate_share",
        validate_pass_s * epochs_run as f64 / paper_s,
        "fraction",
    );
    report.detail(
        "passes_paper_s",
        serde_json::json!(passes.iter().map(|p| p.eval.paper_s).collect::<Vec<_>>()),
    );

    if trace {
        record_traced(&traced_passes, &attribution, paper_s, report);
    }
    Ok(())
}

/// One untraced pass with the measurements taken outside `paper_s`.
struct Pass {
    eval: Evaluated,
    /// Per-spectrum latencies of the trained model, cycling over the
    /// measured campaign (one latency window).
    latencies_ms: Vec<f64>,
    /// MAE of the timed predictions; must equal `eval.measured_mae`.
    probe_mae: f64,
    /// One `Dataset::evaluate` pass over the validation split, timed
    /// outside `fit`: the per-epoch validation cost.
    validate_pass_s: f64,
}

impl Pass {
    fn run(config: &MsPipelineConfig, m: &Measurements) -> Result<Self, PipelineError> {
        let mut eval = toolflow(config, m)?;
        let (mut latencies_ms, probe_mae) = latency_probe(&mut eval.network, &m.measured);
        let inputs = m.measured.inputs_f32();
        let network = &mut eval.network;
        latencies_ms.extend(latency_window(
            eval.paper_s * LATENCY_WINDOW_RATIO,
            &inputs,
            |x| {
                std::hint::black_box(network.predict(x));
            },
        ));
        let started = Instant::now();
        let _ = eval.validation.evaluate(&mut eval.network, Loss::Mae);
        let validate_pass_s = started.elapsed().as_secs_f64();
        Ok(Self {
            eval,
            latencies_ms,
            probe_mae,
            validate_pass_s,
        })
    }
}

/// Predicts each measured spectrum on its own, timing every call.
/// Returns the latencies (ms) and the MAE of those outputs, computed as
/// `Dataset::per_output_mae` does.
fn latency_probe(network: &mut Network, measured: &LabeledSpectra) -> (Vec<f64>, f64) {
    let inputs = measured.inputs_f32();
    let targets = measured.labels_f32();
    let width = targets.first().map_or(0, Vec::len);
    let mut acc = vec![0.0f64; width];
    let mut latencies = Vec::with_capacity(inputs.len());
    for (x, t) in inputs.iter().zip(&targets) {
        let started = Instant::now();
        let y = network.predict(x);
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        for c in 0..width {
            acc[c] += (y[c] - t[c]).abs() as f64;
        }
    }
    for v in &mut acc {
        *v /= inputs.len() as f64;
    }
    let mae = acc.iter().sum::<f64>() / acc.len() as f64;
    (latencies, mae)
}

/// Records the traced passes: per-layer attribution, the stage-span
/// reconciliation, the tracing overhead and the design check.
fn record_traced(
    passes: &[Evaluated],
    attribution: &Attribution,
    paper_s: f64,
    report: &mut Report,
) {
    let traced_s: Vec<f64> = passes.iter().map(|p| p.paper_s).collect();
    let stage_sum = attribution.total_with_prefix(&format!("stage.{WORKLOAD}."));
    crate::trace::record_paper(
        report,
        attribution,
        stage_sum,
        traced_s.iter().sum(),
        paper_s,
        min(&traced_s),
    );
    let train_share = median(
        &passes
            .iter()
            .map(|p| p.stages.seconds("train") / p.paper_s)
            .collect::<Vec<_>>(),
    );
    report.detail(
        "design",
        serde_json::json!({
            "dominant_layer_predicted": "neural",
            "neural_train_share_of_paper_s": train_share,
            "neural_share_traced": attribution.share("neural"),
            "holds": train_share > 0.5,
        }),
    );
}
