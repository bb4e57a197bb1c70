//! Host facts recorded with every run: core count, a calibration loop,
//! and peak resident memory.

use std::time::Instant;

use hap_tensor::Tensor;

use crate::report::Sample;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host calibration: the 64x64 `hap_tensor` matmul behind the
/// `tensor/matmul_64` micro-benchmark (reference ~30 us). Returns the
/// per-call sample in microseconds, one value per batch of 16 calls.
pub fn calibrate_matmul64() -> Sample {
    let a = Tensor::randn(vec![64, 64], 1);
    let b = Tensor::randn(vec![64, 64], 2);
    let mut sample = Sample::new();
    for _ in 0..4 {
        std::hint::black_box(a.matmul(&b).expect("64x64 matmul"));
    }
    for _ in 0..40 {
        let t = Instant::now();
        for _ in 0..16 {
            std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)))
                .expect("64x64 matmul");
        }
        sample.push(t.elapsed().as_secs_f64() * 1e6 / 16.0);
    }
    sample
}

/// Peak resident set size (`VmHWM`) of a process, in MB. `pid` `None`
/// reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
