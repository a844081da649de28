//! Host-speed calibration: every timed interval is reported in seconds
//! at a fixed reference speed.
//!
//! The reference host is a shared virtual machine whose vCPUs change
//! speed from one second to the next as other tenants load the
//! physical cores, each vCPU on its own schedule: identical
//! `hier_n500` requests took 2.2 s in one run and 3.6 s in another,
//! and a fixed kernel took between 2.0 and 3.6 ms per call within a
//! minute. So while a workload runs, a sampler thread per vCPU times a
//! small fixed kernel every [`SAMPLE_EVERY`], and each wall interval is
//! converted into reference seconds by integrating the kernel's speed
//! factor (`REFERENCE_CALL_S` over the measured call time) over it. The
//! kernel is written here and shares no code with the program, so no
//! change to the program moves it. On a host running at reference
//! speed a reference second is a wall second.
//!
//! The samples must come often and from the vCPU the work runs on: a
//! single call before and after each request, or a sampler left free
//! to run on the idle vCPU beside a single-threaded workload, tracked
//! the work's speed too loosely to help (README.md, Host speed).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// Seconds one kernel call takes at reference speed: its typical time
/// on the host described in README.md when that host ran fast.
const REFERENCE_CALL_S: f64 = 0.7e-3;
/// Interval between the sampler's kernel calls. One call takes about
/// 1 ms, so the sampler takes about 2.5% of the vCPU it shares.
const SAMPLE_EVERY: Duration = Duration::from_millis(40);

/// Dimension of the kernel's dense product.
const DENSE_N: usize = 64;
/// Length and nonzeros per row of the kernel's sparse product.
const SPARSE_N: usize = 16_384;
const SPARSE_NNZ: usize = 8;
/// Dimension of the kernel's Jacobi eigenvalue sweeps.
const JACOBI_N: usize = 24;
/// Keys the kernel sorts.
const SORT_N: usize = 8_192;

/// The kernel's fixed inputs.
struct Kernel {
    dense: Vec<f64>,
    product: Vec<f64>,
    cols: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    symmetric: Vec<f64>,
    keys: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut z = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        let mut unit = || (next() % 1000) as f64 / 1000.0 - 0.5;
        let dense = (0..DENSE_N * DENSE_N).map(|_| unit()).collect();
        let mut symmetric = vec![0.0; JACOBI_N * JACOBI_N];
        for i in 0..JACOBI_N {
            for j in 0..=i {
                let v = unit();
                symmetric[i * JACOBI_N + j] = v;
                symmetric[j * JACOBI_N + i] = v;
            }
        }
        Kernel {
            dense,
            product: vec![0.0; DENSE_N * DENSE_N],
            cols: (0..SPARSE_N * SPARSE_NNZ)
                .map(|_| (next() % SPARSE_N as u64) as u32)
                .collect(),
            x: (0..SPARSE_N).map(|i| 1.0 / (1.0 + i as f64)).collect(),
            y: vec![0.0; SPARSE_N],
            symmetric,
            keys: (0..SORT_N).map(|_| next()).collect(),
        }
    }

    /// One call, a mix of the program's kinds of work on data that
    /// fits the second-level cache: a dense product (floating-point
    /// throughput), a gathered sparse product (memory access, as in
    /// conjugate gradients), Jacobi rotations (dependent scalar
    /// arithmetic with square roots, as in small eigendecompositions)
    /// and a sort (branches).
    fn call(&mut self) {
        let n = DENSE_N;
        let a = black_box(&self.dense);
        self.product.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    self.product[i * n + j] += aik * a[k * n + j];
                }
            }
        }
        black_box(&self.product);

        let x = black_box(&self.x);
        for (row, y) in self.y.iter_mut().enumerate() {
            let cols = &self.cols[row * SPARSE_NNZ..(row + 1) * SPARSE_NNZ];
            *y = cols.iter().map(|&j| x[j as usize]).sum();
        }
        black_box(&self.y);

        black_box(jacobi_sweeps(black_box(&self.symmetric), 6));

        let mut keys = black_box(&self.keys).clone();
        keys.sort_unstable();
        black_box(&keys);
    }

    /// Seconds of one call.
    fn time_call(&mut self) -> f64 {
        let t = Instant::now();
        self.call();
        t.elapsed().as_secs_f64()
    }
}

/// `sweeps` cyclic Jacobi sweeps over a copy of the symmetric matrix
/// `m` (`JACOBI_N` square); returns the rotated matrix.
fn jacobi_sweeps(m: &[f64], sweeps: usize) -> Vec<f64> {
    let n = JACOBI_N;
    let mut a = m.to_vec();
    for _ in 0..sweeps {
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a[k * n + p], a[k * n + q]);
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[p * n + k], a[q * n + k]);
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    a
}

/// The speed samples of one run, one track per vCPU sampled: `(seconds
/// since the run's epoch, speed factor)` in time order, the factor
/// being reference call time over measured call time (above 1 on a
/// host faster than the reference).
pub struct SpeedTrack {
    tracks: Vec<Vec<(f64, f64)>>,
}

impl SpeedTrack {
    /// Reference seconds of the wall interval `[a, b]` (seconds since
    /// the epoch) at the mean speed of the sampled vCPUs.
    pub fn reference_s(&self, a: f64, b: f64) -> f64 {
        let each: Vec<f64> = self
            .tracks
            .iter()
            .map(|t| stats::integrate(t, a, b))
            .collect();
        each.iter().sum::<f64>() / each.len() as f64
    }

    /// Median speed factor over the run's samples.
    pub fn median_factor(&self) -> f64 {
        let all: Vec<f64> = self.tracks.iter().flatten().map(|p| p.1).collect();
        stats::median(&all)
    }
}

/// The vCPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, such as `0-1` or `0,2-3`); empty when it
/// cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(Vec::new, cpu_list)
}

/// The vCPUs of a kernel CPU list such as `0-1` or `0,2-3`; empty when
/// it does not parse.
fn cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Pins the calling thread to `cpu` with `taskset`. When that fails
/// (no `taskset`, or no such vCPU) the thread runs wherever the
/// scheduler puts it.
fn pin_this_thread(cpu: usize) {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-pc", &cpu.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Runs `f` on this thread while one sampler thread per vCPU this
/// process may use, each pinned to its vCPU, times the kernel every
/// [`SAMPLE_EVERY`] from before `f` starts until after it returns.
/// Returns `f`'s result with the samples (times counted from `epoch`).
/// A process pinned to one vCPU gets one sampler sharing it with the
/// work; a process on two gets one per vCPU, whose mean speed is what
/// work spread over both runs at.
pub fn sample_during<R>(epoch: Instant, f: impl FnOnce() -> R) -> (R, SpeedTrack) {
    // A process held to one vCPU (or whose vCPUs are unknown) needs one
    // sampler, left where the scheduler puts it.
    let pins: Vec<Option<usize>> = match allowed_cpus() {
        cpus if cpus.len() > 1 => cpus.into_iter().map(Some).collect(),
        _ => vec![None],
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let samplers: Vec<_> = pins
            .into_iter()
            .map(|cpu| {
                let stop = &stop;
                s.spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_this_thread(cpu);
                    }
                    let mut kernel = Kernel::new();
                    let mut points = Vec::new();
                    loop {
                        let start = epoch.elapsed().as_secs_f64();
                        let call_s = kernel.time_call();
                        points.push((start + call_s / 2.0, REFERENCE_CALL_S / call_s));
                        if stop.load(Ordering::SeqCst) {
                            return points;
                        }
                        std::thread::sleep(SAMPLE_EVERY);
                    }
                })
            })
            .collect();
        let out = f();
        stop.store(true, Ordering::SeqCst);
        let tracks = samplers
            .into_iter()
            .map(|h| h.join().expect("speed sampler thread panicked"))
            .collect();
        (out, SpeedTrack { tracks })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_like_the_kernel_writes_them() {
        assert_eq!(cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(cpu_list(" 0,2-3"), vec![0, 2, 3]);
        assert_eq!(cpu_list("5"), vec![5]);
        assert!(cpu_list("").is_empty());
        assert!(cpu_list("0-x").is_empty());
    }

    #[test]
    fn reference_seconds_average_the_vcpu_tracks() {
        // One vCPU at reference speed, the other at half of it.
        let speed = SpeedTrack {
            tracks: vec![vec![(0.0, 1.0), (4.0, 1.0)], vec![(1.0, 0.5)]],
        };
        assert_eq!(speed.reference_s(0.0, 2.0), 1.5);
        assert_eq!(speed.median_factor(), 1.0);
    }
}
