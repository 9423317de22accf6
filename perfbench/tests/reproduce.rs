//! The composed paper workloads reproduce the monolithic pipelines bit
//! for bit, and `BENCHMARK.json` matches the metric catalogues.

use ms_sim::prototype::MmsPrototype;
use perfbench::args::Workload;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{ms_paper, nmr_paper};
use spectroai::pipeline::ms::{MsPipeline, MsPipelineConfig};
use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};

#[test]
fn composed_ms_paper_matches_ms_pipeline_run() {
    // The quick axis differs from the prototype's, so the campaigns'
    // resampling path is exercised too.
    let config = MsPipelineConfig {
        seed: 5,
        ..MsPipelineConfig::quick_test()
    };
    let pipeline = MsPipeline::new(config.clone())
        .unwrap()
        .run(&mut MmsPrototype::new(17))
        .unwrap();
    let measurements = ms_paper::campaigns(&config, 17).unwrap();
    let composed = ms_paper::toolflow(&config, &measurements).unwrap();
    assert_eq!(
        composed.sim_mae.to_bits(),
        pipeline.validation_mae.to_bits()
    );
    assert_eq!(
        composed.measured_mae.to_bits(),
        pipeline.measured_mae.to_bits()
    );
    assert_eq!(composed.history.train_loss, pipeline.history.train_loss);
}

#[test]
fn composed_nmr_paper_matches_nmr_pipeline_run() {
    let config = NmrPipelineConfig {
        augmented_spectra: 120,
        cnn_epochs: 2,
        lstm_epochs: 1,
        lstm_windows: 8,
        ihm_max_spectra: Some(3),
        seed: 9,
        ..NmrPipelineConfig::default()
    };
    let pipeline = NmrPipeline::new(config.clone()).unwrap().run().unwrap();
    let run = nmr_paper::acquire(&config).unwrap();
    assert_eq!(run, pipeline.experiment);
    let composed = nmr_paper::toolflow(&config, &run).unwrap();
    assert_eq!(composed.cnn_mse.to_bits(), pipeline.cnn.mse.to_bits());
    let ihm = pipeline.ihm.expect("IHM ran");
    assert_eq!(composed.ihm_mse.to_bits(), ihm.mse.to_bits());
    assert_eq!(composed.train_loss, pipeline.cnn_history.train_loss);
}

#[test]
fn serve_mixed_conserves_requests_and_matches_reference() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let mut report = perfbench::report::Report::default();
    perfbench::serve_mixed::run(3, 1.0, false, &out, &mut report).unwrap();
    let _ = std::fs::remove_dir_all(&out);
    assert!(report.correct(), "{:#?}", report.checks);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    for &(name, _) in END_TO_END {
        let value = report.value(name).unwrap_or(f64::NAN);
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn benchmark_json_lists_the_catalogues() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        match &doc {
            serde_json::Value::Object(map) => match map.get(key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .map(|item| {
                        let field = |f: &str| match item {
                            serde_json::Value::Object(m) => match m.get(f) {
                                Some(serde_json::Value::String(s)) => s.clone(),
                                _ => String::new(),
                            },
                            _ => String::new(),
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            },
            _ => panic!("not an object"),
        }
    };
    let expect = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(END_TO_END));
    assert_eq!(listed("per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
