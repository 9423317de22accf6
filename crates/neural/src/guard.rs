//! Fault-tolerant training: divergence guards, checkpoint/rollback with
//! learning-rate backoff, and deterministic save/resume.
//!
//! [`GuardedTrainer`] wraps the plain [`crate::train::Trainer`] loop with
//! a recovery layer:
//!
//! * **Divergence detection** — every batch loss is checked for
//!   non-finite values and (optionally) an explosion threshold, and the
//!   accumulated gradient norm can be bounded before each optimizer step.
//! * **Checkpoint / rollback** — weights, optimizer state and history are
//!   snapshotted on a configurable epoch cadence; on divergence the run
//!   rolls back to the last good checkpoint and retries with the learning
//!   rate scaled down by [`GuardConfig::lr_backoff`]. Retries are bounded;
//!   exhausting them yields [`NeuralError::TrainingDiverged`] carrying the
//!   full [`RecoveryEvent`] history.
//! * **Deterministic resume** — [`Checkpoint`]s serialize to JSON with
//!   exact float round-tripping, so a run interrupted at an epoch boundary
//!   and resumed from disk produces bit-identical weights to an
//!   uninterrupted run of the same seed (for dropout-free networks; see
//!   *Determinism* below).
//! * **Fault injection** — a [`faultsim::FaultPlan`] can poison chosen
//!   batches with NaN inputs to exercise the recovery path end to end.
//!
//! # Determinism
//!
//! Epoch shuffles are derived statelessly from `seed + epoch`, weights
//! and optimizer moments are captured exactly, so resume is bit-exact —
//! except for [`crate::layers::Dropout`], whose internal RNG stream is
//! not part of the checkpoint. The paper's Table 1 MS network contains no
//! dropout and resumes exactly.

use std::path::Path;
use std::sync::Arc;

use faultsim::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::optim::{Optimizer, OptimizerState};
use crate::train::{Batch, Dataset, History, TrainConfig};
use crate::{Network, NeuralError};

/// Divergence-guard and checkpoint policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Epochs between weight/optimizer snapshots (≥ 1).
    pub checkpoint_every: usize,
    /// Rollback attempts before giving up with
    /// [`NeuralError::TrainingDiverged`].
    pub max_retries: usize,
    /// Learning-rate multiplier applied on every rollback, in `(0, 1]`.
    pub lr_backoff: f32,
    /// Treat any batch loss above this value as divergence.
    pub max_loss: Option<f32>,
    /// Treat any accumulated gradient norm above this value as divergence
    /// (checked per batch, before the optimizer step).
    pub max_grad_norm: Option<f32>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 5,
            max_retries: 3,
            lr_backoff: 0.5,
            max_loss: None,
            max_grad_norm: None,
        }
    }
}

/// What triggered a divergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceCause {
    /// A batch produced a NaN/infinite loss.
    NonFiniteLoss,
    /// A batch loss exceeded [`GuardConfig::max_loss`].
    LossExplosion {
        /// The configured threshold that was exceeded.
        limit: f32,
    },
    /// The accumulated gradient norm exceeded
    /// [`GuardConfig::max_grad_norm`] (or was non-finite).
    GradientExplosion {
        /// The configured threshold that was exceeded.
        limit: f32,
    },
    /// The validation loss came back non-finite.
    NonFiniteValidation,
}

/// One recovery action taken by the guard.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch in which the divergence was detected.
    pub epoch: usize,
    /// Batch index within the epoch (`None` for validation-time
    /// divergence).
    pub batch: Option<usize>,
    /// What triggered the divergence.
    pub cause: DivergenceCause,
    /// Epoch of the checkpoint the run rolled back to.
    pub rolled_back_to: usize,
    /// Learning rate in effect after the backoff.
    pub learning_rate: f32,
}

/// A serializable training snapshot: everything needed to continue a run
/// exactly where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Number of completed epochs.
    pub epochs_done: usize,
    /// Network weights at the snapshot.
    pub weights: Vec<Vec<Vec<f32>>>,
    /// Optimizer state at the snapshot.
    pub optimizer: OptimizerState,
    /// Learning rate in effect (reflects any backoff so far).
    pub learning_rate: f32,
    /// Training-loss history up to the snapshot.
    pub train_loss: Vec<f32>,
    /// Validation-loss history up to the snapshot.
    pub val_loss: Vec<f32>,
    /// Best validation epoch so far, if tracked.
    pub best_epoch: Option<usize>,
    /// Best validation loss so far, if tracked.
    pub best_val: Option<f32>,
    /// Weights of the best validation epoch, if tracked.
    pub best_weights: Option<Vec<Vec<Vec<f32>>>>,
}

impl Checkpoint {
    /// Atomically writes the checkpoint as JSON (`path.tmp` + rename), so
    /// an interrupted save never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NeuralError> {
        let path = path.as_ref();
        let text =
            serde_json::to_string(self).map_err(|e| NeuralError::Serde(e.to_string()))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, text).map_err(|e| NeuralError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| NeuralError::Io(e.to_string()))
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::Io`] if the file cannot be read, or
    /// [`NeuralError::Serde`] if it does not parse as a checkpoint.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, NeuralError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| NeuralError::Io(e.to_string()))?;
        serde_json::from_str(&text).map_err(|e| NeuralError::Serde(e.to_string()))
    }
}

/// Result of a guarded training run.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedOutcome {
    /// Per-epoch loss history (post-rollback epochs overwrite the rolled
    /// back ones, like the uninterrupted history they replay).
    pub history: History,
    /// Every rollback the guard performed, in order.
    pub recovery: Vec<RecoveryEvent>,
    /// Number of snapshots taken (periodic plus the final one).
    pub checkpoints_taken: usize,
    /// Snapshot of the finished run — resume from here to train further,
    /// or persist it with [`Checkpoint::save`].
    pub checkpoint: Checkpoint,
}

struct EpochDivergence {
    batch: usize,
    cause: DivergenceCause,
}

struct RunState {
    epochs_done: usize,
    optimizer: Box<dyn Optimizer>,
    history: History,
    best_val: Option<f32>,
    best_weights: Option<Vec<Vec<Vec<f32>>>>,
    retries: usize,
    recovery: Vec<RecoveryEvent>,
    checkpoint: Checkpoint,
    checkpoints_taken: usize,
}

/// A [`crate::train::Trainer`] with divergence guards and
/// checkpoint/rollback recovery.
#[derive(Debug, Clone)]
pub struct GuardedTrainer {
    config: TrainConfig,
    guard: GuardConfig,
    plan: Option<Arc<FaultPlan>>,
}

impl GuardedTrainer {
    /// Creates a guarded trainer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `guard.checkpoint_every`
    /// is zero or `guard.lr_backoff` is outside `(0, 1]`.
    pub fn new(config: TrainConfig, guard: GuardConfig) -> Result<Self, NeuralError> {
        if guard.checkpoint_every == 0 {
            return Err(NeuralError::InvalidSpec(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if !(guard.lr_backoff > 0.0 && guard.lr_backoff <= 1.0) {
            return Err(NeuralError::InvalidSpec(format!(
                "lr_backoff must be in (0, 1], got {}",
                guard.lr_backoff
            )));
        }
        Ok(Self {
            config,
            guard,
            plan: None,
        })
    }

    /// Attaches a fault-injection plan (testing aid: poisons scheduled
    /// batches with NaN inputs).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The guard configuration.
    pub fn guard(&self) -> &GuardConfig {
        &self.guard
    }

    /// Trains `network` for the configured number of epochs, recovering
    /// from divergence by checkpoint rollback + learning-rate backoff.
    ///
    /// # Errors
    ///
    /// [`NeuralError::ShapeMismatch`] on dataset/network mismatch;
    /// [`NeuralError::TrainingDiverged`] once
    /// [`GuardConfig::max_retries`] rollbacks have been exhausted.
    pub fn fit(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
    ) -> Result<GuardedOutcome, NeuralError> {
        self.check_shapes(network, train)?;
        let state = self.fresh_state(network);
        self.run(network, train, validation, state, self.config.epochs, true)
    }

    /// Trains for `stop_after` epochs only, simulating an interrupted
    /// run: best-epoch weight restoration is skipped so the returned
    /// [`GuardedOutcome::checkpoint`] continues the run exactly.
    ///
    /// # Errors
    ///
    /// As for [`GuardedTrainer::fit`].
    pub fn fit_interrupted(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        stop_after: usize,
    ) -> Result<GuardedOutcome, NeuralError> {
        self.check_shapes(network, train)?;
        let state = self.fresh_state(network);
        let until = stop_after.min(self.config.epochs);
        self.run(network, train, validation, state, until, false)
    }

    /// Continues a run from `checkpoint` to the configured epoch count,
    /// restoring weights, optimizer state, learning rate and history.
    ///
    /// # Errors
    ///
    /// As for [`GuardedTrainer::fit`], plus
    /// [`NeuralError::InvalidWeights`] if the checkpoint does not match
    /// the network or optimizer kind.
    pub fn resume(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        checkpoint: &Checkpoint,
    ) -> Result<GuardedOutcome, NeuralError> {
        self.check_shapes(network, train)?;
        network.import_weights(&checkpoint.weights)?;
        let mut optimizer = self.config.optimizer.build();
        optimizer.import_state(&checkpoint.optimizer)?;
        optimizer.set_learning_rate(checkpoint.learning_rate);
        let state = RunState {
            epochs_done: checkpoint.epochs_done,
            optimizer,
            history: History {
                train_loss: checkpoint.train_loss.clone(),
                val_loss: checkpoint.val_loss.clone(),
                best_epoch: checkpoint.best_epoch,
            },
            best_val: checkpoint.best_val,
            best_weights: checkpoint.best_weights.clone(),
            retries: 0,
            recovery: Vec::new(),
            checkpoint: checkpoint.clone(),
            checkpoints_taken: 0,
        };
        self.run(network, train, validation, state, self.config.epochs, true)
    }

    fn check_shapes(&self, network: &Network, train: &Dataset) -> Result<(), NeuralError> {
        if train.input_width() != network.input_len() {
            return Err(NeuralError::ShapeMismatch {
                expected: network.input_len(),
                actual: train.input_width(),
            });
        }
        if train.target_width() != network.output_len() {
            return Err(NeuralError::ShapeMismatch {
                expected: network.output_len(),
                actual: train.target_width(),
            });
        }
        Ok(())
    }

    fn fresh_state(&self, network: &Network) -> RunState {
        let optimizer = self.config.optimizer.build();
        let checkpoint = Checkpoint {
            epochs_done: 0,
            weights: network.export_weights(),
            optimizer: optimizer.export_state(),
            learning_rate: optimizer.learning_rate(),
            train_loss: Vec::new(),
            val_loss: Vec::new(),
            best_epoch: None,
            best_val: None,
            best_weights: None,
        };
        RunState {
            epochs_done: 0,
            optimizer,
            history: History {
                train_loss: Vec::new(),
                val_loss: Vec::new(),
                best_epoch: None,
            },
            best_val: None,
            best_weights: None,
            retries: 0,
            recovery: Vec::new(),
            checkpoint,
            checkpoints_taken: 0,
        }
    }

    fn snapshot(&self, network: &Network, state: &RunState) -> Checkpoint {
        Checkpoint {
            epochs_done: state.epochs_done,
            weights: network.export_weights(),
            optimizer: state.optimizer.export_state(),
            learning_rate: state.optimizer.learning_rate(),
            train_loss: state.history.train_loss.clone(),
            val_loss: state.history.val_loss.clone(),
            best_epoch: state.history.best_epoch,
            best_val: state.best_val,
            best_weights: state.best_weights.clone(),
        }
    }

    fn run(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        mut state: RunState,
        until: usize,
        restore_best: bool,
    ) -> Result<GuardedOutcome, NeuralError> {
        while state.epochs_done < until {
            let _epoch_span = obs::span!("train.epoch");
            if state.epochs_done.is_multiple_of(self.guard.checkpoint_every) {
                state.checkpoint = self.snapshot(network, &state);
                state.checkpoints_taken += 1;
            }
            let epoch = state.epochs_done;
            match self.run_epoch(network, &mut state.optimizer, train, epoch) {
                Ok(mean_loss) => {
                    state.history.train_loss.push(mean_loss);
                }
                Err(divergence) => {
                    self.rollback(
                        network,
                        &mut state,
                        epoch,
                        Some(divergence.batch),
                        divergence.cause,
                    )?;
                    continue;
                }
            }

            let mut stop_early = false;
            if let Some(val) = validation {
                let v = {
                    let _validate_span = obs::span!("train.validate");
                    val.evaluate(network, self.config.loss)
                };
                if !v.is_finite() {
                    // The pushed train loss belongs to the diverged epoch;
                    // rollback restores the checkpointed history anyway.
                    self.rollback(
                        network,
                        &mut state,
                        epoch,
                        None,
                        DivergenceCause::NonFiniteValidation,
                    )?;
                    continue;
                }
                state.history.val_loss.push(v);
                let improved = state.best_val.is_none_or(|b| v < b);
                if improved {
                    state.best_val = Some(v);
                    state.best_weights = Some(network.export_weights());
                    state.history.best_epoch = Some(epoch);
                }
                if let Some(target) = self.config.stop_at_val_loss {
                    if v <= target {
                        stop_early = true;
                    }
                }
            }
            state.epochs_done += 1;
            if stop_early {
                break;
            }
        }

        // Final snapshot of the running state (pre best-restore), so the
        // outcome's checkpoint resumes exactly where this run stopped.
        state.checkpoint = self.snapshot(network, &state);
        state.checkpoints_taken += 1;

        if restore_best && self.config.restore_best {
            if let Some(weights) = &state.best_weights {
                network.import_weights(weights)?;
            }
        }
        Ok(GuardedOutcome {
            history: state.history,
            recovery: state.recovery,
            checkpoints_taken: state.checkpoints_taken,
            checkpoint: state.checkpoint,
        })
    }

    fn run_epoch(
        &self,
        network: &mut Network,
        optimizer: &mut Box<dyn Optimizer>,
        train: &Dataset,
        epoch: usize,
    ) -> Result<f32, EpochDivergence> {
        let order = train.epoch_order(
            self.config.shuffle,
            self.config.seed.wrapping_add(epoch as u64),
        );
        let mut batch = Batch::default();
        let mut epoch_loss = 0.0f64;
        for (batch_idx, indices) in order.chunks(self.config.batch_size.max(1)).enumerate() {
            let _batch_span = obs::span!("train.batch");
            train.gather(indices, &mut batch);
            if self
                .plan
                .as_deref()
                .is_some_and(|p| p.poison_batch(epoch, batch_idx))
            {
                batch.inputs[..train.input_width()].fill(f32::NAN);
            }
            network.zero_grads();
            let losses = network.train_batch(&batch.inputs, &batch.targets, self.config.loss);
            for &value in losses {
                if !value.is_finite() {
                    return Err(EpochDivergence {
                        batch: batch_idx,
                        cause: DivergenceCause::NonFiniteLoss,
                    });
                }
                if let Some(limit) = self.guard.max_loss {
                    if value > limit {
                        return Err(EpochDivergence {
                            batch: batch_idx,
                            cause: DivergenceCause::LossExplosion { limit },
                        });
                    }
                }
                epoch_loss += f64::from(value);
            }
            let _optimizer_span = obs::span!("train.optimizer");
            if let Some(limit) = self.guard.max_grad_norm {
                let norm = network.grad_norm();
                if !norm.is_finite() || norm > limit {
                    return Err(EpochDivergence {
                        batch: batch_idx,
                        cause: DivergenceCause::GradientExplosion { limit },
                    });
                }
            }
            network.apply_gradients(optimizer.as_mut(), indices.len());
        }
        Ok((epoch_loss / train.len() as f64) as f32)
    }

    fn rollback(
        &self,
        network: &mut Network,
        state: &mut RunState,
        epoch: usize,
        batch: Option<usize>,
        cause: DivergenceCause,
    ) -> Result<(), NeuralError> {
        if state.retries >= self.guard.max_retries {
            return Err(NeuralError::TrainingDiverged {
                epoch,
                retries: state.retries,
                recovery: state.recovery.clone(),
            });
        }
        state.retries += 1;
        let checkpoint = &state.checkpoint;
        network.import_weights(&checkpoint.weights)?;
        let mut optimizer = self.config.optimizer.build();
        optimizer.import_state(&checkpoint.optimizer)?;
        let lr = checkpoint.learning_rate * self.guard.lr_backoff;
        optimizer.set_learning_rate(lr);
        state.optimizer = optimizer;
        state.history = History {
            train_loss: checkpoint.train_loss.clone(),
            val_loss: checkpoint.val_loss.clone(),
            best_epoch: checkpoint.best_epoch,
        };
        state.best_val = checkpoint.best_val;
        state.best_weights = checkpoint.best_weights.clone();
        state.epochs_done = checkpoint.epochs_done;
        state.recovery.push(RecoveryEvent {
            epoch,
            batch,
            cause,
            rolled_back_to: checkpoint.epochs_done,
            learning_rate: lr,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::{Activation, Loss};

    fn linear_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i % 10) as f32 / 10.0;
                let b = ((i / 10) % 10) as f32 / 10.0;
                vec![a, b]
            })
            .collect();
        let targets = inputs
            .iter()
            .map(|v| vec![0.5 * v[0] + 0.2 * v[1]])
            .collect();
        Dataset::new(inputs, targets).unwrap()
    }

    fn small_net() -> Network {
        NetworkSpec::new(2)
            .layer(LayerSpec::Dense {
                units: 1,
                activation: Activation::Linear,
            })
            .build(1)
            .unwrap()
    }

    fn config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 16,
            loss: Loss::Mse,
            optimizer: crate::optim::OptimizerSpec::Adam { lr: 0.01 },
            ..TrainConfig::default()
        }
    }

    fn guard() -> GuardConfig {
        GuardConfig {
            checkpoint_every: 1,
            max_retries: 3,
            lr_backoff: 0.5,
            ..GuardConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let bad = GuardConfig {
            checkpoint_every: 0,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
        let bad = GuardConfig {
            lr_backoff: 0.0,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
        let bad = GuardConfig {
            lr_backoff: 1.5,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
    }

    #[test]
    fn clean_run_matches_plain_trainer() {
        let data = linear_dataset(100);
        let mut guarded_net = small_net();
        let outcome = GuardedTrainer::new(config(30), guard())
            .unwrap()
            .fit(&mut guarded_net, &data, None)
            .unwrap();
        let mut plain_net = small_net();
        let history = crate::train::Trainer::new(config(30))
            .fit(&mut plain_net, &data, None)
            .unwrap();
        assert!(outcome.recovery.is_empty());
        assert_eq!(outcome.history.train_loss, history.train_loss);
        assert_eq!(guarded_net.export_weights(), plain_net.export_weights());
    }

    #[test]
    fn injected_nan_batch_triggers_rollback_and_backoff() {
        let data = linear_dataset(100);
        let mut net = small_net();
        let plan = Arc::new(FaultPlan::new().with_nan_batch(3, 1));
        let trainer = GuardedTrainer::new(config(60), guard())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let outcome = trainer.fit(&mut net, &data, None).unwrap();
        assert_eq!(outcome.recovery.len(), 1);
        let event = &outcome.recovery[0];
        assert_eq!(event.epoch, 3);
        assert_eq!(event.batch, Some(1));
        assert_eq!(event.cause, DivergenceCause::NonFiniteLoss);
        assert_eq!(event.rolled_back_to, 3);
        assert_eq!(plan.events().len(), 1);
        // Training still converges after recovery.
        assert!(outcome.history.final_train_loss() < 1e-2);
    }

    #[test]
    fn exhausted_retries_yield_structured_error() {
        let data = linear_dataset(50);
        let mut net = small_net();
        // A max_loss of zero makes every epoch "diverge" immediately.
        let hopeless = GuardConfig {
            max_loss: Some(0.0),
            max_retries: 2,
            ..guard()
        };
        let err = GuardedTrainer::new(config(10), hopeless)
            .unwrap()
            .fit(&mut net, &data, None)
            .unwrap_err();
        match err {
            NeuralError::TrainingDiverged {
                epoch,
                retries,
                recovery,
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(retries, 2);
                assert_eq!(recovery.len(), 2);
                // Backoff compounds across retries.
                assert!(recovery[1].learning_rate < recovery[0].learning_rate);
            }
            other => panic!("expected TrainingDiverged, got {other:?}"),
        }
    }

    #[test]
    fn gradient_norm_guard_fires() {
        let data = linear_dataset(50);
        let mut net = small_net();
        let strict = GuardConfig {
            max_grad_norm: Some(1e-12),
            max_retries: 1,
            ..guard()
        };
        let err = GuardedTrainer::new(config(5), strict)
            .unwrap()
            .fit(&mut net, &data, None)
            .unwrap_err();
        match err {
            NeuralError::TrainingDiverged { recovery, .. } => {
                assert!(matches!(
                    recovery[0].cause,
                    DivergenceCause::GradientExplosion { .. }
                ));
            }
            other => panic!("expected TrainingDiverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let data = linear_dataset(60);
        let mut net = small_net();
        let outcome = GuardedTrainer::new(config(4), guard())
            .unwrap()
            .fit_interrupted(&mut net, &data, None, 4)
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "neural-guard-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        outcome.checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, outcome.checkpoint);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_best_restore_matches_plain_trainer() {
        let all = linear_dataset(100);
        let (train, val) = all.split(0.8).unwrap();
        let mut guarded_net = small_net();
        let outcome = GuardedTrainer::new(config(20), guard())
            .unwrap()
            .fit(&mut guarded_net, &train, Some(&val))
            .unwrap();
        let mut plain_net = small_net();
        let history = crate::train::Trainer::new(config(20))
            .fit(&mut plain_net, &train, Some(&val))
            .unwrap();
        assert_eq!(outcome.history.best_epoch, history.best_epoch);
        assert_eq!(outcome.history.val_loss, history.val_loss);
        assert_eq!(guarded_net.export_weights(), plain_net.export_weights());
    }
}
