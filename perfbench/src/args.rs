//! Command-line arguments.
//!
//! ```text
//! perfbench --workload <ms-paper|nmr-paper|serve-mixed> --seed <u64>
//!           --seconds <secs> --trace <0|1> --out-dir <dir>
//! ```
//!
//! Every argument is required: the seed makes the inputs, `--seconds`
//! bounds the measured time, `--trace 1` selects the traced run, and the
//! full report goes only to `--out-dir`.

use std::path::PathBuf;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The MS toolflow: campaigns → Tool 2 → Tools 1+3 → Tool 4 → evaluation.
    MsPaper,
    /// The NMR toolflow: acquisition → augmentation → CNN → IHM baseline.
    NmrPaper,
    /// Mixed MS/NMR traffic through the serving tier.
    ServeMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::MsPaper, Workload::NmrPaper, Workload::ServeMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MsPaper => "ms-paper",
            Workload::NmrPaper => "nmr-paper",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// Measured time budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory the full JSON report is written to.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A usage message naming the missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    });
                }
                "--out-dir" => out_dir = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir: out_dir.ok_or("--out-dir is required")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let args = Args::parse(&strings(&[
            "--out-dir",
            "o",
            "--workload",
            "nmr-paper",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::NmrPaper);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert_eq!(args.out_dir, PathBuf::from("o"));
    }

    #[test]
    fn rejects_missing_and_malformed_arguments() {
        assert!(Args::parse(&strings(&["--workload", "ms-paper"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "nope"])).is_err());
        assert!(Args::parse(&strings(&["--trace", "2"])).is_err());
        assert!(Args::parse(&strings(&["--seconds", "-1"])).is_err());
        assert!(Args::parse(&strings(&["--seed"])).is_err());
    }
}
