//! Host description, window-scoped peak RSS, and the calibration loop.

use crate::json::Value;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// The host block printed with every result, so a noisy verdict can be
/// traced to the machine it ran on.
pub fn host_block(sp_backend: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::obj()
        .with("nproc", nproc)
        .with("kernel", kernel)
        .with("cpu_model", cpu)
        .with("simd_kernel", lhmm_neural::kernel::active().name())
        .with("sp_backend", sp_backend)
}

/// Resets the kernel's peak-RSS watermark for this process (`5` written
/// to `/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers only
/// what happened after the call. Returns false when the reset is not
/// available; the peak then includes set-up.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer-and-float loop, timed in milliseconds. It depends on
/// nothing in the workspace, so comparing it before and after a run
/// separates a slow host from a slow program.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999_999 + (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    black_box((x, acc));
    t.elapsed().as_secs_f64() * 1e3
}
