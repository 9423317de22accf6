//! Host fingerprint recorded with every result.

use std::process::Command;

use serde_json::Value;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo` (`"unknown"` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on `PATH` (the one that built this
/// binary when run through `cargo run`).
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Vector features this binary was compiled for (the effective
/// `target-cpu` level).
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        features.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        features.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        features.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        features.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        features.push("avx512f");
    }
    features
}

/// The fingerprint: CPU model, `nproc`, toolchain and target features.
/// Workloads add their own sizes, worker counts and rates next to it.
pub fn fingerprint() -> Value {
    serde_json::json!({
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "rustc": rustc_version(),
        "target_arch": std::env::consts::ARCH,
        "target_features": target_features(),
    })
}
