//! `serve-mixed`: seeded MS Table-1 and NMR CNN traffic through the
//! serving tier.
//!
//! Set-up deploys both networks into a datastore `Store`, round-trips the
//! store through a directory, loads the `ModelRegistry` from it (plan
//! compile), starts a one-shard `Router` with one worker per CPU, and
//! warms it up. Request spectra are pre-generated from `ms-sim` and
//! `nmr-sim` and checked against the `Reference` backend. Two phases
//! follow:
//!
//! - *open*: Poisson arrivals at [`OPEN_RATE`], well below capacity;
//!   batches stay tiny, so linger and per-request overhead dominate
//!   `p50_ms`/`p90_ms`, timed from each request's due time;
//! - *closed*: [`closed_outstanding`] requests always in flight (every
//!   worker's batch full); kernels dominate, and `e2e_s` is the time per
//!   [`E2E_REQUESTS`] requests.
//!
//! The run is split into [`ROUNDS`] rounds of set-up, open phase and
//! closed phase, so a stretch of host contention falls on all three
//! rather than on one.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chem::fragmentation::GasLibrary;
use datastore::Store;
use ms_sim::campaign::MS_TASK_SUBSTANCES;
use ms_sim::instrument::{default_axis, nominal_instrument};
use ms_sim::simulate::TrainingSimulator;
use neural::export::ExportedNetwork;
use neural::kernels::{max_abs_divergence, PlanBackend, Scratch};
use neural::plan::FrozenPlan;
use neural::spec::NetworkSpec;
use neural::Network;
use nmr_sim::augment::{AugmentationConfig, SpectraAugmenter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serve::{
    MetricsReport, ModelRegistry, Request, Router, RouterConfig, ServeConfig, ServeError,
    SubmitError, Ticket,
};
use spectroai::pipeline::deploy::deploy_network;
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

use crate::report::Report;
use crate::stages::Setups;
use crate::stats::{best_window_quantile, median, quantile, windowed_quantile};
use crate::trace::Attribution;

/// The workload's name.
pub const WORKLOAD: &str = "serve-mixed";
/// Open-phase arrival rate (requests/s over both models).
pub const OPEN_RATE: f64 = 1_000.0;
/// Share of requests addressed to the MS model. In the open phase the
/// two models' latencies form two modes, NMR's below MS's; at this share
/// the boundary between them (the 70th percentile) lies midway between
/// the gated p50 and p90, so in every window p50 falls inside the NMR
/// mode and p90 inside the MS mode (see `WORKLOADS.md`).
pub const MS_FRACTION: f64 = 0.3;
/// Largest micro-batch a worker runs.
const MAX_BATCH: usize = 32;
/// `e2e_s` is the closed-phase time to serve this many requests.
pub const E2E_REQUESTS: f64 = 10_000.0;
/// Max-abs-error tolerance of served outputs against the `Reference`
/// backend (the serving tier's batched-kernel gate).
pub const TOLERANCE: f32 = 1e-4;
/// Distinct pre-generated spectra per model.
const POOL: usize = 256;
/// Warm-up requests per set-up (both models, alternating).
const WARMUP_REQUESTS: usize = 2_000;
/// Rounds of set-up, open phase and closed phase the run is split into;
/// `setup_s` is the fastest of their set-ups.
pub const ROUNDS: usize = 10;
/// Closed-phase throughput is the median over windows of this length.
const WINDOW_S: f64 = 0.5;
/// `p50_ms` and `p90_ms` are the best over open-phase windows of this
/// length (about 250 requests each).
const BEST_WINDOW_S: f64 = 0.25;
/// The diagnostic p99 and the inside latencies are medians over windows
/// of this length (about 1,000 requests, ten beyond the p99).
const LATENCY_WINDOW_S: f64 = 1.0;
const COLLECTION: &str = "deployed_models";

/// The two served models, in index order.
const MODELS: [&str; 2] = ["table1-ms", "nmr-cnn"];
const MS: usize = 0;
const NMR: usize = 1;

/// Requests kept in flight during the closed phase and the warm-up:
/// enough to fill every worker's batch.
pub fn closed_outstanding(workers: usize) -> usize {
    workers * MAX_BATCH
}

/// A served model: its spec, weights, request pool and the `Reference`
/// backend's outputs for that pool.
struct Model {
    spec: NetworkSpec,
    network: Network,
    pool: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
}

/// Builds both models and their request pools from `seed`.
fn models(seed: u64) -> Result<[Model; 2], String> {
    let axis = default_axis();
    let substances: Vec<String> = MS_TASK_SUBSTANCES.iter().map(|s| s.to_string()).collect();
    let ms_spec =
        MsPipeline::table1_spec(axis.len(), substances.len(), ActivationChoice::paper_best());
    let simulator = TrainingSimulator::new(
        nominal_instrument(),
        GasLibrary::standard(),
        substances,
        axis,
    )
    .map_err(|e| e.to_string())?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ms_pool = simulator
        .generate_dataset(POOL, &mut rng)
        .map_err(|e| e.to_string())?
        .inputs_f32();
    let augmenter =
        SpectraAugmenter::new(AugmentationConfig::default()).map_err(|e| e.to_string())?;
    let scale = spectroai::pipeline::nmr::NmrPipelineConfig::default().input_scale;
    let nmr_pool: Vec<Vec<f32>> = augmenter
        .generate(POOL, seed ^ 0x5EED)
        .map_err(|e| e.to_string())?
        .inputs
        .iter()
        .map(|row| row.iter().map(|&v| (v * scale) as f32).collect())
        .collect();
    let build = |spec: NetworkSpec, pool: Vec<Vec<f32>>, name: &str| -> Result<Model, String> {
        let network = spec.build(seed).map_err(|e| e.to_string())?;
        let reference =
            FrozenPlan::compile(&ExportedNetwork::from_network(spec.clone(), &network, name))
                .map_err(|e| e.to_string())?;
        let block: Vec<f32> = pool.iter().flatten().copied().collect();
        let mut outputs = Vec::new();
        reference
            .predict_batch_with(
                PlanBackend::Reference,
                &block,
                &mut outputs,
                &mut Scratch::new(),
            )
            .map_err(|e| e.to_string())?;
        let expected = outputs
            .chunks(reference.output_len())
            .map(<[f32]>::to_vec)
            .collect();
        Ok(Model {
            spec,
            network,
            pool,
            expected,
        })
    };
    Ok([
        build(ms_spec, ms_pool, MODELS[MS])?,
        build(NmrPipeline::cnn_spec(), nmr_pool, MODELS[NMR])?,
    ])
}

/// Wall time of each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    deploy_s: f64,
    roundtrip_s: f64,
    registry_load_s: f64,
    start_s: f64,
    warmup_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.deploy_s + self.roundtrip_s + self.registry_load_s + self.start_s + self.warmup_s
    }
}

fn router_config(workers: usize) -> RouterConfig {
    RouterConfig {
        shards: 1,
        engine: ServeConfig {
            workers,
            queue_capacity: 1024,
            max_batch: MAX_BATCH,
            max_linger: Duration::from_micros(200),
            default_deadline: Duration::from_secs(2),
        },
        ..RouterConfig::default()
    }
}

/// One set-up: deploy, datastore round trip through `dir`, registry
/// load, router start and warm-up.
fn set_up(models: &[Model; 2], workers: usize, dir: &Path) -> Result<(Router, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let store = Store::in_memory();
    for (model, name) in models.iter().zip(MODELS) {
        let _span = obs::span("datastore.deploy");
        deploy_network(
            &store,
            COLLECTION,
            name,
            model.spec.clone(),
            &model.network,
            [],
        )
        .map_err(|e| e.to_string())?;
    }
    times.deploy_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let loaded = {
        let _span = obs::span("datastore.roundtrip");
        store.save_to_dir(dir).map_err(|e| e.to_string())?;
        let loaded = Store::load_from_dir(dir).map_err(|e| e.to_string());
        let _ = std::fs::remove_dir_all(dir);
        loaded?
    };
    times.roundtrip_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    let count = {
        let _span = obs::span("serve.registry_load");
        registry
            .load_from_store(&loaded, COLLECTION)
            .map_err(|e| e.to_string())?
    };
    if count != MODELS.len() {
        return Err(format!(
            "registry loaded {count} models, expected {}",
            MODELS.len()
        ));
    }
    times.registry_load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let router = {
        let _span = obs::span("serve.start");
        Router::start(registry, router_config(workers)).map_err(|e| e.to_string())?
    };
    times.start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    {
        let _span = obs::span("serve.warmup");
        let mut in_flight = VecDeque::new();
        for i in 0..WARMUP_REQUESTS {
            let m = i % 2;
            let input = models[m].pool[i % POOL].clone();
            in_flight.push_back(
                router
                    .submit(Request::new(MODELS[m], input))
                    .map_err(|e| e.to_string())?,
            );
            if in_flight.len() >= closed_outstanding(workers) {
                let ticket: Ticket = in_flight.pop_front().expect("non-empty");
                ticket.wait().map_err(|e| e.to_string())?;
            }
        }
        for ticket in in_flight {
            ticket.wait().map_err(|e| e.to_string())?;
        }
    }
    times.warmup_s = t.elapsed().as_secs_f64();
    Ok((router, times))
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Completed,
    Failed,
    TimedOut,
    Shed,
}

/// One request's record.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    model: usize,
    fate: Fate,
    /// Generator lateness + `Prediction.latency`, in ms: the open
    /// phase's latency from the request's due time (lateness is 0 in the
    /// closed phase).
    latency_ms: f64,
    /// `Prediction.latency` in ms.
    inside_ms: f64,
    batch: usize,
    /// Seconds from the phase start to completion: submission plus
    /// `Prediction.latency`, so the order in which tickets are waited on
    /// does not shift it; for a failed request, when the client saw the
    /// failure.
    done_s: f64,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
struct Phase {
    outcomes: Vec<Outcome>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    wall_s: f64,
    mismatches: usize,
    max_err: f32,
    server: ServerCounts,
}

/// What the router's own counters recorded during a phase.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounts {
    completed: u64,
    /// Failed, timed out or drained.
    failed: u64,
    batches: u64,
}

impl ServerCounts {
    fn between(before: &MetricsReport, after: &MetricsReport) -> Self {
        Self {
            completed: after.requests_completed - before.requests_completed,
            failed: (after.requests_failed - before.requests_failed)
                + (after.requests_timed_out - before.requests_timed_out)
                + (after.requests_drained - before.requests_drained),
            batches: after.batches - before.batches,
        }
    }
}

impl Phase {
    /// Appends a later round of the same phase; its completion times
    /// continue this phase's clock.
    fn absorb(&mut self, round: Phase) {
        let offset = self.wall_s;
        self.outcomes
            .extend(round.outcomes.into_iter().map(|o| Outcome {
                done_s: o.done_s + offset,
                ..o
            }));
        self.submit_us.extend(round.submit_us);
        self.late_ms.extend(round.late_ms);
        self.wall_s += round.wall_s;
        self.mismatches += round.mismatches;
        self.max_err = self.max_err.max(round.max_err);
        self.server = ServerCounts {
            completed: self.server.completed + round.server.completed,
            failed: self.server.failed + round.server.failed,
            batches: self.server.batches + round.server.batches,
        };
    }

    fn count(&self, fate: Fate) -> usize {
        self.outcomes.iter().filter(|o| o.fate == fate).count()
    }

    fn completed(&self, model: Option<usize>) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .filter(move |o| o.fate == Fate::Completed && model.is_none_or(|m| o.model == m))
    }

    /// Batch-weighted mean batch size of `model`'s requests: a batch of
    /// `b` contributes `b` riders of weight `1/b`.
    fn batch_mean(&self, model: usize) -> f64 {
        let riders = self.completed(Some(model)).count() as f64;
        let batches: f64 = self
            .completed(Some(model))
            .map(|o| 1.0 / o.batch as f64)
            .sum();
        if batches > 0.0 {
            riders / batches
        } else {
            0.0
        }
    }

    fn batches(&self, model: usize) -> f64 {
        self.completed(Some(model))
            .map(|o| 1.0 / o.batch as f64)
            .sum()
    }

    /// Completed requests' latencies in `window_s` windows of completion
    /// time.
    /// A request that failed or was shed counts as infinitely late; the
    /// trailing partial window is dropped.
    fn latency_windows(&self, window_s: f64, model: Option<usize>, inside: bool) -> Vec<Vec<f64>> {
        let windows = (self.wall_s / window_s).floor().max(1.0) as usize;
        let mut out = vec![Vec::new(); windows];
        for o in self
            .outcomes
            .iter()
            .filter(|o| model.is_none_or(|m| o.model == m))
        {
            let w = (o.done_s / window_s) as usize;
            if w < windows {
                out[w].push(match o.fate {
                    Fate::Completed if inside => o.inside_ms,
                    Fate::Completed => o.latency_ms,
                    _ => f64::INFINITY,
                });
            }
        }
        out
    }
}

/// Submits one request, timing the `Router::submit` call.
fn submit(
    router: &Router,
    model: usize,
    input: &[f32],
    submit_us: &mut Vec<f64>,
) -> Result<Ticket, SubmitError> {
    let _span = obs::span("serve.submit");
    let t = Instant::now();
    let result = router.submit(Request::new(MODELS[model], input.to_vec()));
    submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    result
}

fn is_shed(err: &SubmitError) -> bool {
    matches!(
        err,
        SubmitError::QueueFull { .. }
            | SubmitError::Overloaded { .. }
            | SubmitError::WouldMissDeadline { .. }
            | SubmitError::NoHealthyShard
    )
}

/// A submitted request awaiting its result.
struct InFlight {
    ticket: Ticket,
    model: usize,
    index: usize,
    /// When `Router::submit` was called.
    submitted: Instant,
    /// Generator lateness behind the due time, in ms.
    late_ms: f64,
}

/// Resolves one ticket into an [`Outcome`], checking the output.
fn resolve(
    request: InFlight,
    expected: [&[Vec<f32>]; 2],
    started: Instant,
    phase: &mut Phase,
) -> Outcome {
    let InFlight {
        ticket,
        model,
        index,
        submitted,
        late_ms,
    } = request;
    let result = ticket.wait();
    let mut outcome = Outcome {
        model,
        fate: Fate::Completed,
        latency_ms: 0.0,
        inside_ms: 0.0,
        batch: 0,
        done_s: started.elapsed().as_secs_f64(),
    };
    let expected = &expected[model][index];
    match result {
        Ok(prediction) => {
            let err = max_abs_divergence(&prediction.output, expected);
            phase.max_err = phase.max_err.max(err);
            // A NaN divergence is a mismatch too.
            if err.is_nan() || err > TOLERANCE {
                phase.mismatches += 1;
            }
            outcome.inside_ms = prediction.latency.as_secs_f64() * 1e3;
            outcome.latency_ms = late_ms + outcome.inside_ms;
            outcome.done_s = (submitted - started + prediction.latency).as_secs_f64();
            outcome.batch = prediction.batch_size.max(1);
        }
        Err(ServeError::DeadlineExceeded) => outcome.fate = Fate::TimedOut,
        Err(_) => outcome.fate = Fate::Failed,
    }
    outcome
}

/// The seeded request stream: model and pool index of request `i`.
struct Traffic(ChaCha8Rng);

impl Traffic {
    fn next(&mut self) -> (usize, usize) {
        let model = if self.0.gen_bool(MS_FRACTION) {
            MS
        } else {
            NMR
        };
        (model, self.0.gen_range(0..POOL))
    }
}

/// Open phase: Poisson arrivals for `seconds`; a collector thread
/// resolves tickets while this thread keeps the schedule. Latency runs
/// from each request's due time: generator lateness + the serving tier's
/// own `Prediction.latency`.
fn open_phase(router: &Router, models: &[Model; 2], seed: u64, seconds: f64) -> Phase {
    let _stage = obs::span(&format!("stage.{WORKLOAD}.open"));
    let mut traffic = Traffic(ChaCha8Rng::seed_from_u64(seed ^ 0x0BE7));
    let mut gaps = ChaCha8Rng::seed_from_u64(seed ^ 0xA7A7);
    let before = router.report().total;
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut phase = Phase::default();
    let expected: [&[Vec<f32>]; 2] = [&models[MS].expected, &models[NMR].expected];
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut phase = Phase::default();
            for request in rx {
                let outcome = resolve(request, expected, started, &mut phase);
                phase.outcomes.push(outcome);
            }
            phase
        });
        let mut due_s = 0.0f64;
        loop {
            let u: f64 = gaps.gen_range(f64::MIN_POSITIVE..1.0);
            due_s += -u.ln() / OPEN_RATE;
            if due_s >= seconds {
                break;
            }
            let due = started + Duration::from_secs_f64(due_s);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                // Sleep to just short of the due time and spin the rest,
                // so the generator does not hold a core the workers need.
                let gap = due - now;
                if gap > Duration::from_micros(100) {
                    std::thread::sleep(gap - Duration::from_micros(80));
                } else {
                    std::hint::spin_loop();
                }
            }
            let submitted = Instant::now();
            let late_ms = (submitted - due).as_secs_f64() * 1e3;
            phase.late_ms.push(late_ms);
            let (model, index) = traffic.next();
            match submit(
                router,
                model,
                &models[model].pool[index],
                &mut phase.submit_us,
            ) {
                Ok(ticket) => {
                    let request = InFlight {
                        ticket,
                        model,
                        index,
                        submitted,
                        late_ms,
                    };
                    if tx.send(request).is_err() {
                        break;
                    }
                }
                Err(err) => phase.outcomes.push(Outcome {
                    model,
                    fate: if is_shed(&err) {
                        Fate::Shed
                    } else {
                        Fate::Failed
                    },
                    latency_ms: 0.0,
                    inside_ms: 0.0,
                    batch: 0,
                    done_s: started.elapsed().as_secs_f64(),
                }),
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.outcomes.extend(collected.outcomes);
    phase.mismatches = collected.mismatches;
    phase.max_err = collected.max_err;
    phase.server = ServerCounts::between(&before, &router.report().total);
    phase
}

/// Closed phase: `outstanding` requests in flight for `seconds`, each
/// completion replaced by a new submission.
fn closed_phase(
    router: &Router,
    models: &[Model; 2],
    seed: u64,
    seconds: f64,
    outstanding: usize,
) -> Phase {
    let _stage = obs::span(&format!("stage.{WORKLOAD}.closed"));
    let mut traffic = Traffic(ChaCha8Rng::seed_from_u64(seed ^ 0xC105));
    let before = router.report().total;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    let expected: [&[Vec<f32>]; 2] = [&models[MS].expected, &models[NMR].expected];
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    loop {
        let refill = Instant::now() < deadline;
        while refill && in_flight.len() < outstanding {
            let (model, index) = traffic.next();
            let submitted = Instant::now();
            match submit(
                router,
                model,
                &models[model].pool[index],
                &mut phase.submit_us,
            ) {
                Ok(ticket) => in_flight.push_back(InFlight {
                    ticket,
                    model,
                    index,
                    submitted,
                    late_ms: 0.0,
                }),
                Err(err) => phase.outcomes.push(Outcome {
                    model,
                    fate: if is_shed(&err) {
                        Fate::Shed
                    } else {
                        Fate::Failed
                    },
                    latency_ms: 0.0,
                    inside_ms: 0.0,
                    batch: 0,
                    done_s: started.elapsed().as_secs_f64(),
                }),
            }
        }
        let Some(request) = in_flight.pop_front() else {
            break;
        };
        let outcome = resolve(request, expected, started, &mut phase);
        phase.outcomes.push(outcome);
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.server = ServerCounts::between(&before, &router.report().total);
    phase
}

/// Median completions per second over whole [`WINDOW_S`] windows.
fn windowed_rps(phase: &Phase) -> f64 {
    let windows = (phase.wall_s / WINDOW_S).floor().max(1.0) as usize;
    let mut counts = vec![0usize; windows];
    for o in phase.completed(None) {
        let w = (o.done_s / WINDOW_S) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / WINDOW_S).collect();
    median(&rates)
}

/// Single-thread `predict_batch_scratch` time of `plan` on a `batch`-
/// sample block: median over repetitions, in microseconds.
fn kernel_us(plan: &FrozenPlan, pool: &[Vec<f32>], batch: usize) -> f64 {
    let block: Vec<f32> = pool.iter().cycle().take(batch).flatten().copied().collect();
    let mut scratch = Scratch::new();
    let mut outputs = Vec::new();
    let mut times = Vec::new();
    for rep in 0..220 {
        outputs.clear();
        let t = Instant::now();
        let _ = plan.predict_batch_scratch(&block, &mut outputs, &mut scratch);
        if rep >= 20 {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&times)
}

/// Records one phase's conservation check and failure counts; returns
/// (attempted, failed).
fn account(report: &mut Report, name: &str, phase: &Phase) -> (u64, u64) {
    let attempted = phase.outcomes.len();
    let completed = phase.count(Fate::Completed);
    let failed = phase.count(Fate::Failed);
    let timed_out = phase.count(Fate::TimedOut);
    let shed = phase.count(Fate::Shed);
    let server_completed = phase.server.completed;
    let server_failed = phase.server.failed;
    report.check(
        format!("{name}: conservation"),
        attempted == completed + failed + timed_out + shed
            && server_completed as usize == completed
            && server_failed as usize == failed + timed_out,
        format!(
            "attempted {attempted} = completed {completed} + failed {failed} + timed out \
             {timed_out} + shed {shed}; server completed {server_completed}, failed {server_failed}"
        ),
    );
    report.check(
        format!("{name}: outputs match the Reference backend"),
        phase.mismatches == 0,
        format!(
            "{} mismatches, max abs error {:e} (tolerance {TOLERANCE:e})",
            phase.mismatches, phase.max_err
        ),
    );
    (attempted as u64, (failed + timed_out + shed) as u64)
}

/// Runs the workload.
///
/// # Errors
///
/// A message naming the set-up step that failed.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let workers = crate::host::nproc();
    let models = models(seed)?;
    report.detail(
        "sizes",
        serde_json::json!({
            "workers": workers,
            "shards": 1,
            "open_rate_rps": OPEN_RATE,
            "ms_fraction": MS_FRACTION,
            "closed_outstanding": closed_outstanding(workers),
            "rounds": ROUNDS,
            "pool_per_model": POOL,
            "warmup_requests": WARMUP_REQUESTS,
            "max_batch": MAX_BATCH,
            "max_linger_us": 200,
        }),
    );

    // Each round sets up a fresh router, then runs both phases untraced
    // and, in the traced run, each once more traced right after it, so
    // host drift does not pass for tracing overhead. The last round's
    // router stays up for the kernel timings.
    let runs_per_phase = if trace { 2.0 } else { 1.0 };
    let phase_s = seconds / (2 * ROUNDS) as f64 / runs_per_phase;
    let outstanding = closed_outstanding(workers);
    let run_open = |router: &Router, seed| open_phase(router, &models, seed, phase_s);
    let run_closed =
        |router: &Router, seed| closed_phase(router, &models, seed, phase_s, outstanding);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut router: Option<Router> = None;
    let mut open = Phase::default();
    let mut closed = Phase::default();
    let mut open_traced = (Phase::default(), Attribution::default());
    let mut closed_traced = (Phase::default(), Attribution::default());
    for round in 0..ROUNDS {
        if let Some(previous) = router.take() {
            Router::shutdown(previous);
        }
        let dir: PathBuf = out_dir.join(format!("store-{}-{round}", std::process::id()));
        let (r, t) = set_up(&models, workers, &dir)?;
        setups.push(t);
        let r = router.insert(r);
        let round_seed = seed.wrapping_add(round as u64);
        for (phase, untraced, traced) in [
            (
                &run_open as &dyn Fn(&Router, u64) -> Phase,
                &mut open,
                &mut open_traced,
            ),
            (&run_closed, &mut closed, &mut closed_traced),
        ] {
            untraced.absorb(phase(r, round_seed));
            if trace {
                let (p, a) = crate::trace::traced(|| {
                    let _workload = obs::span(&format!("workload.{WORKLOAD}"));
                    phase(r, round_seed)
                });
                traced.0.absorb(p);
                traced.1.merge(a);
            }
        }
    }
    let router = router.expect("at least one round");

    let totals = Setups {
        times: setups.iter().map(SetupTimes::total).collect(),
    };
    let setup_s = totals.fastest();
    let fastest = setups
        .iter()
        .copied()
        .find(|t| t.total() == setup_s)
        .unwrap_or_default();
    report.metric("setup_s", setup_s, "s");
    report.metric("setup_s_median", totals.median(), "s");
    for (name, value) in [
        ("datastore.deploy_s", fastest.deploy_s),
        ("datastore.roundtrip_s", fastest.roundtrip_s),
        ("serve.registry_load_s", fastest.registry_load_s),
        ("serve.start_s", fastest.start_s),
        ("serve.warmup_s", fastest.warmup_s),
    ] {
        report.metric(name, value, "s");
        let share = name.replace("_s", "_share");
        if share != "datastore.deploy_share" {
            report.metric(share, value / setup_s, "fraction");
        }
    }
    report.detail("setup_times_s", serde_json::json!(totals.times));

    let (open_attempted, open_failed) = account(report, "open", &open);
    let (closed_attempted, closed_failed) = account(report, "closed", &closed);
    report.attempted = open_attempted + closed_attempted;
    report.failed = open_failed + closed_failed;

    let latencies = open.latency_windows(LATENCY_WINDOW_S, None, false);
    let short = open.latency_windows(BEST_WINDOW_S, None, false);
    let p50 = best_window_quantile(&short, 0.5);
    let p99 = windowed_quantile(&latencies, 0.99);
    let rps = windowed_rps(&closed);
    report.metric("p50_ms", p50, "ms");
    report.metric("p90_ms", best_window_quantile(&short, 0.9), "ms");
    report.metric("p50_ms_median", windowed_quantile(&short, 0.5), "ms");
    report.metric("p90_ms_median", windowed_quantile(&short, 0.9), "ms");
    report.metric("serve.p99_ms", p99, "ms");
    report.metric("serve.p99_over_p50", p99 / p50, "ratio");
    let per_window = |q: f64, model: Option<usize>| -> Vec<f64> {
        open.latency_windows(BEST_WINDOW_S, model, false)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect()
    };
    report.detail(
        "open_windows",
        serde_json::json!({
            "p50_ms": per_window(0.5, None),
            "p90_ms": per_window(0.9, None),
            "p50_ms_ms": per_window(0.5, Some(MS)),
            "p90_ms_ms": per_window(0.9, Some(MS)),
            "p50_ms_nmr": per_window(0.5, Some(NMR)),
            "p90_ms_nmr": per_window(0.9, Some(NMR)),
        }),
    );
    report.metric("served_rps", rps, "req/s");
    report.metric("e2e_s", E2E_REQUESTS / rps, "s");
    report.metric("bench.late_p99_ms", quantile(&open.late_ms, 0.99), "ms");
    report.metric(
        "bench.late_p99_share",
        quantile(&open.late_ms, 0.99) / p50,
        "fraction",
    );
    let submit_p50 = median(&closed.submit_us);
    report.metric("serve.submit_us_p50", submit_p50, "us");
    report.metric(
        "serve.submit_share",
        closed.submit_us.iter().sum::<f64>() * 1e-6 / closed.wall_s,
        "fraction",
    );
    for (m, tag) in [(MS, "ms"), (NMR, "nmr")] {
        let inside = windowed_quantile(&open.latency_windows(LATENCY_WINDOW_S, Some(m), true), 0.5);
        report.metric(format!("serve.inside_p50_ms.{tag}"), inside, "ms");
        report.metric(
            format!("serve.inside_share.{tag}"),
            inside / p50,
            "fraction",
        );
        report.metric(
            format!("serve.batch_mean.{tag}.open"),
            open.batch_mean(m),
            "requests",
        );
        report.metric(
            format!("serve.batch_mean.{tag}.closed"),
            closed.batch_mean(m),
            "requests",
        );
    }
    for (phase, tag) in [(&open, "open"), (&closed, "closed")] {
        report.metric(
            format!("serve.batches.{tag}"),
            phase.server.batches as f64,
            "count",
        );
    }
    let shed = (open.count(Fate::Shed) + closed.count(Fate::Shed)) as f64;
    let timed_out = (open.count(Fate::TimedOut) + closed.count(Fate::TimedOut)) as f64;
    let failed = (open.count(Fate::Failed) + closed.count(Fate::Failed)) as f64;
    report.metric("serve.shed", shed, "count");
    report.metric("serve.timed_out", timed_out, "count");
    report.metric("serve.failed", failed, "count");

    // Kernels, timed from outside at each phase's mean batch size: the
    // share of worker time each model spends in its kernels.
    let mut kernel_busy = 0.0;
    let mut plans = Vec::new();
    for (m, tag) in [(MS, "ms"), (NMR, "nmr")] {
        let (_, plan) = router
            .registry()
            .resolve(MODELS[m], None)
            .map_err(|e| e.to_string())?;
        for (phase, name) in [(&open, "open"), (&closed, "closed")] {
            let batch = phase.batch_mean(m).round().max(1.0) as usize;
            let us = kernel_us(&plan, &models[m].pool, batch);
            let busy = phase.batches(m) * us * 1e-6 / (workers as f64 * phase.wall_s);
            report.metric(format!("neural.kernel_busy.{tag}.{name}"), busy, "fraction");
            if name == "closed" {
                kernel_busy += busy;
                report.metric(format!("neural.kernel_us.{tag}"), us, "us");
                report.metric(
                    format!("neural.kernel_gmacs.{tag}"),
                    (plan.macs_per_inference() * batch as u64) as f64 / us * 1e-3,
                    "GMAC/s",
                );
                plans.push((tag, plan.clone(), batch));
            }
        }
        report.metric(
            format!("neural.macs_per_request.{tag}"),
            plan.macs_per_inference() as f64,
            "count",
        );
    }
    report.metric("neural.kernel_busy", kernel_busy, "fraction");

    if trace {
        record_traced(open_traced, closed_traced, rps, report);
        let peak = report.value("host.fma_peak_gmacs").unwrap_or(0.0);
        let mut roofline = std::collections::BTreeMap::new();
        for (tag, plan, batch) in &plans {
            let pool = &models[if *tag == "ms" { MS } else { NMR }].pool;
            let ops = crate::roofline::per_op(plan, pool, *batch, 200, peak);
            roofline.insert(
                format!("{tag}@batch{batch}"),
                crate::roofline::to_json(&ops),
            );
            let gmacs = report
                .value(&format!("neural.kernel_gmacs.{tag}"))
                .unwrap_or(0.0);
            report.metric(
                format!("neural.kernel_peak_frac.{tag}"),
                gmacs / peak,
                "fraction",
            );
        }
        report.detail("roofline", serde_json::Value::Object(roofline));
    }
    Router::shutdown(router);
    Ok(())
}

/// Records the traced phases: conservation and output checks,
/// per-layer attribution, the open phase's queue high-water mark, the
/// tracing overhead on closed-phase throughput and the FMA peak.
fn record_traced(
    (open, open_attribution): (Phase, Attribution),
    (closed, closed_attribution): (Phase, Attribution),
    untraced_rps: f64,
    report: &mut Report,
) {
    let (attempted, failed) = account(report, "traced open", &open);
    report.attempted += attempted;
    report.failed += failed;
    let (attempted, failed) = account(report, "traced closed", &closed);
    report.attempted += attempted;
    report.failed += failed;
    // The engine's gauge reports the depth after every admitted request;
    // each traced phase has a collector of its own, so this high-water
    // mark is the open phase's alone.
    report.metric(
        "serve.queue_high_water",
        open_attribution.gauge_max("serve.queue_depth"),
        "count",
    );
    let mut attribution = open_attribution;
    attribution.merge(closed_attribution);
    attribution.record(report);
    let traced_rps = windowed_rps(&closed);
    report.metric(
        "trace.overhead",
        untraced_rps / traced_rps - 1.0,
        "fraction",
    );
    report.metric(
        "trace.overhead_s",
        (E2E_REQUESTS / traced_rps) - (E2E_REQUESTS / untraced_rps),
        "s",
    );
    report.metric(
        "host.fma_peak_gmacs",
        crate::roofline::fma_peak_gmacs(5),
        "GMAC/s",
    );
    report.detail(
        "design",
        serde_json::json!({
            "dominant_layers_predicted": ["serve", "neural kernels"],
            "serve_share_traced": attribution.share("serve"),
            "kernel_busy_closed": report.value("neural.kernel_busy"),
        }),
    );
}
