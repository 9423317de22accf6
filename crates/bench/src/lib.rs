//! Shared helpers for the experiment-harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4). All harnesses run at a CI-friendly scale by default and
//! switch to paper-scale workloads when the environment variable
//! `SPECTROAI_FULL=1` is set.

#![forbid(unsafe_code)]

pub mod arrival;

use std::io::Write;
use std::path::PathBuf;

/// Returns `true` when paper-scale workloads were requested via
/// `SPECTROAI_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("SPECTROAI_FULL").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Picks `quick` or `full` depending on [`full_scale`].
pub fn pick<T>(quick: T, full: T) -> T {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// `--out-dir <dir>` from the process arguments: the directory a
/// harness writes its outputs to instead of the checkout it was built
/// from.
fn out_dir_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--out-dir" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Root of the checkout this binary was built from (fixed at compile
/// time): the default output location.
fn build_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Creates `dir` and returns it.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
fn ensure_dir(dir: PathBuf) -> PathBuf {
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// The directory experiment outputs (CSV series) are written to:
/// `--out-dir` when given, else `target/experiments/` of the build's
/// checkout.
pub fn experiments_dir() -> PathBuf {
    ensure_dir(out_dir_arg().unwrap_or_else(|| build_root().join("target/experiments")))
}

/// The directory `BENCH_*.json` reports are written to: `--out-dir`
/// when given, else the root of the build's checkout, where the
/// committed reports live.
pub fn bench_dir() -> PathBuf {
    ensure_dir(out_dir_arg().unwrap_or_else(build_root))
}

/// Writes a CSV file into [`experiments_dir`] and returns its path.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(name);
    let mut file = std::fs::File::create(&path).expect("create csv");
    writeln!(file, "{header}").expect("write header");
    for row in rows {
        writeln!(file, "{row}").expect("write row");
    }
    path
}

/// Prints a banner naming the experiment and its scale.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}  —  reproduces {paper_ref}");
    println!(
        "scale: {} (set SPECTROAI_FULL=1 for paper-scale workloads)",
        if full_scale() { "FULL" } else { "quick" }
    );
    println!("================================================================");
}

/// Formats a fraction as percent with two decimals (the paper reports
/// MAE in percent).
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// `--trace <out.json>` support for harness binaries: installs an
/// `obs::Collector` for the run and writes a chrome-trace JSON profile
/// (loadable in `about://tracing` / Perfetto) on [`TraceSession::finish`].
///
/// Constructed from CLI args; when `--trace` is absent nothing is
/// installed and instrumented code stays on the disabled fast path.
#[derive(Debug, Default)]
pub struct TraceSession {
    active: Option<(PathBuf, obs::InstallGuard)>,
}

impl TraceSession {
    /// Journal capacity for harness traces — sized for full-scale runs
    /// (20k requests → ~40k span/gauge records) with headroom.
    const JOURNAL_CAPACITY: usize = 1 << 18;

    /// Parses `--trace <path>` out of the process arguments and, when
    /// present, installs a collector for the rest of the run.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        while let Some(arg) = args.next() {
            if arg == "--trace" {
                let Some(path) = args.next() else {
                    eprintln!("--trace requires an output path; tracing disabled");
                    return Self::default();
                };
                let guard = obs::install(
                    obs::Collector::new().with_journal_capacity(Self::JOURNAL_CAPACITY),
                );
                println!("tracing:    chrome-trace profile -> {path}");
                return Self {
                    active: Some((PathBuf::from(path), guard)),
                };
            }
        }
        Self::default()
    }

    /// Whether a trace is being collected.
    pub fn is_tracing(&self) -> bool {
        self.active.is_some()
    }

    /// Writes the chrome-trace JSON (if tracing) and uninstalls the
    /// collector. Returns the output path when a profile was written.
    ///
    /// Binaries that don't need the path can rely on `Drop`, which does
    /// the same thing (minus the panic on I/O failure).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (harness binaries want loud failures).
    pub fn finish(mut self) -> Option<PathBuf> {
        self.active.take().map(|(path, guard)| {
            write_profile(&path, &guard).expect("write chrome trace");
            path
        })
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if let Some((path, guard)) = self.active.take() {
            if let Err(err) = write_profile(&path, &guard) {
                eprintln!("trace: failed to write {}: {err}", path.display());
            }
        }
    }
}

/// Serializes the collector's journal as chrome-trace JSON to `path`.
fn write_profile(path: &std::path::Path, guard: &obs::InstallGuard) -> std::io::Result<()> {
    let json = guard.collector().chrome_trace();
    let dropped = guard.collector().journal_dropped();
    std::fs::write(path, json)?;
    if dropped > 0 {
        eprintln!("trace: {dropped} events dropped under journal contention");
    }
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_percent() {
        assert_eq!(pct(0.015), "1.50%");
    }

    #[test]
    fn pick_respects_scale() {
        // Cannot portably set env vars in parallel tests; just check the
        // quick path (CI never sets SPECTROAI_FULL).
        if !full_scale() {
            assert_eq!(pick(1, 2), 1);
        }
    }

    #[test]
    fn experiments_dir_is_creatable() {
        let dir = experiments_dir();
        assert!(dir.exists());
    }
}
