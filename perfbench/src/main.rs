//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --out-dir perfbench/out --workload ms-paper --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints every metric of the workload by name with its unit, then the
//! output checks, then — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! catalogue, or the per-layer one with `--trace 1`). The full report,
//! with the host fingerprint, goes to
//! `<out-dir>/<workload>-seed<seed>-trace<0|1>.json`. Exits 1 when an
//! output check fails and 2 on a usage error.

use std::process::ExitCode;

use perfbench::args::{Args, Workload};
use perfbench::report::Report;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("perfbench: {usage}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let mut report = Report::default();
    let result = match args.workload {
        Workload::MsPaper => {
            perfbench::ms_paper::run(args.seed, args.seconds, args.trace, &mut report)
                .map_err(|e| e.to_string())
        }
        Workload::NmrPaper => {
            perfbench::nmr_paper::run(args.seed, args.seconds, args.trace, &mut report)
                .map_err(|e| e.to_string())
        }
        Workload::ServeMixed => perfbench::serve_mixed::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.out_dir,
            &mut report,
        ),
    };
    if let Err(err) = result {
        report.failed += 1;
        report.attempted = report.attempted.max(1);
        report.check("workload ran", false, err);
    }

    let metrics = report.catalogue_metrics(args.trace);
    let correct = report.correct();
    let mut full = report.to_json();
    if let serde_json::Value::Object(map) = &mut full {
        map.insert("workload".into(), serde_json::json!(args.workload.name()));
        map.insert("seed".into(), serde_json::json!(args.seed));
        map.insert("seconds".into(), serde_json::json!(args.seconds));
        map.insert("trace".into(), serde_json::json!(args.trace));
        map.insert("host".into(), perfbench::host::fingerprint());
    }
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = serde_json::to_string_pretty(&full)
        .map_err(|e| e.to_string())
        .and_then(|text| std::fs::write(&path, text).map_err(|e| e.to_string()));

    println!(
        "{} seed {} ({}traced)",
        args.workload.name(),
        args.seed,
        if args.trace { "" } else { "un" }
    );
    for line in report.lines() {
        println!("{line}");
    }
    match written {
        Ok(()) => println!("  report {}", path.display()),
        Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
    }
    let line = serde_json::json!({
        "correct": correct,
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
