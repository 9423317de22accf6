//! The training loops' span hierarchy: `train.forward`,
//! `train.backward` and `train.optimizer` nest under `train.batch`, and
//! `train.batch` and `train.validate` under `train.epoch`, in both
//! `Trainer::fit` and `GuardedTrainer::fit`. This file holds one test,
//! so no other test records spans into the installed collector.

use neural::guard::{GuardConfig, GuardedTrainer};
use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Activation, Loss};

fn data() -> Dataset {
    let inputs: Vec<Vec<f32>> = (0..22)
        .map(|i| {
            (0..16)
                .map(|j| ((i * 16 + j) as f32 * 0.37).sin())
                .collect()
        })
        .collect();
    let targets = inputs
        .iter()
        .map(|x| vec![x[0] * 0.5, x[1] * 0.25])
        .collect();
    Dataset::new(inputs, targets).unwrap()
}

fn conv_dense_spec() -> NetworkSpec {
    NetworkSpec::new(16)
        .layer(LayerSpec::Reshape { channels: 1 })
        .layer(LayerSpec::Conv1d {
            filters: 3,
            kernel: 4,
            stride: 2,
            activation: Activation::Tanh,
        })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 6,
        optimizer: OptimizerSpec::Adam { lr: 0.01 },
        loss: Loss::Mse,
        seed: 5,
        ..TrainConfig::default()
    }
}

#[test]
fn training_spans_nest_under_batch_and_epoch() {
    let (train, val) = data().split(0.75).unwrap();
    let guard = obs::install(obs::Collector::new());
    let mut net = conv_dense_spec().build(2).unwrap();
    Trainer::new(train_config())
        .fit(&mut net, &train, Some(&val))
        .unwrap();
    GuardedTrainer::new(train_config(), GuardConfig::default())
        .unwrap()
        .fit(&mut net, &train, Some(&val))
        .unwrap();
    let events = guard.collector().events();
    drop(guard);
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::Span && e.name.starts_with("train."))
        .collect();
    let parent_of = |child: &obs::Event| {
        spans
            .iter()
            .filter(|p| {
                p.thread == child.thread
                    && p.depth + 1 == child.depth
                    && p.start_ns <= child.start_ns
                    && child.end_ns <= p.end_ns
            })
            .map(|p| p.name.as_str())
            .next()
    };
    let mut seen = std::collections::BTreeMap::new();
    for span in &spans {
        let want = match span.name.as_str() {
            "train.forward" | "train.backward" | "train.optimizer" => Some("train.batch"),
            "train.batch" | "train.validate" => Some("train.epoch"),
            _ => continue,
        };
        assert_eq!(parent_of(span), want, "{} is misplaced", span.name);
        *seen.entry(span.name.clone()).or_insert(0usize) += 1;
    }
    // Two trainers × 4 epochs × 3 batches (17 rows, batch 6).
    for name in ["train.forward", "train.backward", "train.optimizer"] {
        assert_eq!(seen.get(name), Some(&24), "{name}");
    }
    assert_eq!(seen.get("train.validate"), Some(&8));
}
