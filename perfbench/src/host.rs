//! Host speed. The benchmark runs on shared hosts whose speed drifts by
//! up to half between stretches of seconds to minutes (other tenants,
//! clock boost), and whose hypervisor takes the CPU away in bursts, so a
//! wall-clock figure of one 30-second run mostly measures which stretch
//! it fell in. Two corrections take the host out of the end-to-end
//! figures:
//!
//! - Operations are timed in process CPU time, which the guest kernel
//!   accounts without the time the hypervisor stole
//!   (`CONFIG_PARAVIRT_TIME_ACCOUNTING`). The solvers run on the calling
//!   thread only (`DGFLOW_THREADS=1`), so their CPU time is their whole
//!   running time.
//! - A fixed kernel of the benchmark's own, independent of every dgflow
//!   crate, is timed (also in CPU time) in short samples interleaved with
//!   the work: between time steps, between CG iterations. Each operation,
//!   less the samples taken inside it, is scaled by the mean of
//!   `REFERENCE_S / sample` over the samples taken around it.
//!
//! The result is the operation's time on a reference host on which one
//! sample takes `REFERENCE_S`: a slower dgflow kernel still reads slower,
//! a slower host does not. On a 2-vCPU VM the host switched between a
//! fast and a slow state lasting seconds to minutes, in which ventilation
//! steps took 0.15 s and 0.22 s of CPU time, while the ratio of step to
//! sample stayed within a few percent. The raw wall figures go to
//! standard error, and a traced run reports the median sample as
//! `host.calibration_s`.

use crate::stats::median;
use std::os::raw::{c_int, c_long};
use std::sync::Mutex;
use std::time::Instant;

/// CPU seconds of one calibration sample on the reference host, about
/// what it takes on a 2-vCPU Xeon VM (AVX-512) whose speed drifts
/// between 0.9 and 1.25 of it.
pub const REFERENCE_S: f64 = 1.0e-2;
/// Samples within this many wall seconds of an operation scale it: a
/// sample before and after a time step, every sample inside a solve.
const WINDOW_S: f64 = 0.5;
/// Cells of the calibration kernel: 4096 cells × 64 points × 8 lanes of
/// f64 is 16 MiB, past the 2 MiB second-level cache and inside the shared
/// third-level one, like the working sets of both solvers. Of sweeps over
/// 256 KiB, 2 MiB, 16 MiB and 64 MiB timed side by side on a 2-vCPU VM,
/// the 16 MiB one tracked the solvers best: step and solve CPU times
/// scaled with its sample time with an exponent of 0.9–1.1, and when the
/// host sped up by half, ventilation steps scaled by it moved 7 % across
/// six runs against 49 % unscaled. The cache-resident sweeps (exponent
/// 0.7–0.75) overcorrected by about 10 %.
const CELLS: usize = 4096;
const POINTS: usize = 64;
const LANES: usize = 8;
/// Passes over the cells per sample.
const PASSES: usize = 1;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has run, without stolen time.
fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // 64-bit Linux) and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A point in time on both clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stamp {
    /// Wall seconds since the `HostSpeed` was created.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
}

/// One timed run of the calibration kernel.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// Wall time of its middle, on the `Stamp` clock.
    mid: f64,
    wall: f64,
    cpu: f64,
}

/// The calibration kernel and the samples it took. Shared by reference,
/// so a preconditioner can sample from inside a solve.
pub struct HostSpeed {
    data: Mutex<Vec<[f64; LANES]>>,
    t0: Instant,
    samples: Mutex<Vec<Sample>>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> Self {
        Self {
            data: Mutex::new(
                (0..CELLS * POINTS)
                    .map(|i| std::array::from_fn(|l| 1.0 + ((i * LANES + l) % 7) as f64 * 0.125))
                    .collect(),
            ),
            t0: Instant::now(),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn samples(&self) -> Vec<Sample> {
        self.samples.lock().expect("samples").clone()
    }

    /// The current time on both clocks.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            wall: self.t0.elapsed().as_secs_f64(),
            cpu: process_cpu_seconds(),
        }
    }

    /// Time `n` samples of the kernel.
    pub fn sample(&self, n: usize) {
        let mut data = self.data.lock().expect("kernel data");
        for _ in 0..n {
            let start = self.stamp();
            for _ in 0..PASSES {
                for cell in data.chunks_exact_mut(POINTS) {
                    smooth_cell(cell);
                }
            }
            std::hint::black_box(&*data);
            let end = self.stamp();
            self.samples.lock().expect("samples").push(Sample {
                mid: (start.wall + end.wall) / 2.0,
                wall: end.wall - start.wall,
                cpu: end.cpu - start.cpu,
            });
        }
    }

    /// Median CPU seconds of every sample.
    pub fn median_sample(&self) -> Option<f64> {
        median(&self.samples().iter().map(|s| s.cpu).collect::<Vec<_>>())
    }

    /// Mean of `REFERENCE_S / sample` over the samples taken within
    /// `WINDOW_S` of `[start, end]` (over every sample if none was): below
    /// 1 on a host slower than the reference.
    pub fn speed(&self, start: Stamp, end: Stamp) -> f64 {
        let all = self.samples();
        let near: Vec<f64> = all
            .iter()
            .filter(|s| s.mid >= start.wall - WINDOW_S && s.mid <= end.wall + WINDOW_S)
            .map(|s| REFERENCE_S / s.cpu)
            .collect();
        let speeds = if near.is_empty() {
            all.iter().map(|s| REFERENCE_S / s.cpu).collect()
        } else {
            near
        };
        assert!(!speeds.is_empty(), "the host was sampled");
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }

    /// The samples taken between `start` and `end`.
    fn inside(&self, start: Stamp, end: Stamp) -> Vec<Sample> {
        self.samples()
            .into_iter()
            .filter(|s| s.mid > start.wall && s.mid < end.wall)
            .collect()
    }

    /// Wall seconds from `start` to `end`, less the samples taken in
    /// between.
    pub fn wall_seconds(&self, start: Stamp, end: Stamp) -> f64 {
        let sampled: f64 = self.inside(start, end).iter().map(|s| s.wall).sum();
        end.wall - start.wall - sampled
    }

    /// CPU seconds from `start` to `end`, less the samples taken in
    /// between.
    pub fn cpu_seconds(&self, start: Stamp, end: Stamp) -> f64 {
        let sampled: f64 = self.inside(start, end).iter().map(|s| s.cpu).sum();
        end.cpu - start.cpu - sampled
    }

    /// Reference-host seconds of an operation that ran from `start` to
    /// `end`: its `cpu_seconds` times the host's `speed` around it.
    pub fn reference_seconds(&self, start: Stamp, end: Stamp) -> f64 {
        self.cpu_seconds(start, end) * self.speed(start, end)
    }
}

/// One sum-factorization sweep over a 4×4×4 cell of `LANES` lanes: a
/// row-stochastic 1-D matrix applied along each direction in turn, the
/// access pattern of a matrix-free DG cell kernel. Row sums of 1 keep the
/// values bounded however often it runs.
fn smooth_cell(cell: &mut [[f64; LANES]]) {
    const A: [[f64; 4]; 4] = [
        [0.5, 0.25, 0.125, 0.125],
        [0.25, 0.5, 0.125, 0.125],
        [0.125, 0.125, 0.5, 0.25],
        [0.125, 0.125, 0.25, 0.5],
    ];
    let mut tmp = [[0.0; LANES]; POINTS];
    for stride in [1, 4, 16] {
        for (i, out) in tmp.iter_mut().enumerate() {
            let pos = (i / stride) % 4;
            let base = i - pos * stride;
            let mut acc = [0.0; LANES];
            for (m, a) in A[pos].iter().enumerate() {
                let src = &cell[base + m * stride];
                for l in 0..LANES {
                    acc[l] += a * src[l];
                }
            }
            *out = acc;
        }
        cell.copy_from_slice(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with samples of `(mid, seconds)`, where the CPU time of
    /// each sample is its wall time.
    fn with_samples(samples: &[(f64, f64)]) -> HostSpeed {
        let h = HostSpeed::new();
        *h.samples.lock().unwrap() = samples
            .iter()
            .map(|&(mid, t)| Sample {
                mid,
                wall: t,
                cpu: t,
            })
            .collect();
        h
    }

    /// An operation's stamp at `wall` seconds, with `cpu` seconds run.
    fn at(wall: f64, cpu: f64) -> Stamp {
        Stamp { wall, cpu }
    }

    #[test]
    fn a_slower_host_scales_to_the_same_reference_time() {
        let fast = with_samples(&[(9.8, REFERENCE_S), (11.2, REFERENCE_S)]);
        let slow = with_samples(&[(9.8, 2.0 * REFERENCE_S), (12.2, 2.0 * REFERENCE_S)]);
        // an operation from 10 s; the slow host takes twice as long for
        // the kernel and for the operation
        let fast_op = fast.reference_seconds(at(10.0, 0.0), at(11.0, 1.0));
        let slow_op = slow.reference_seconds(at(10.0, 0.0), at(12.0, 2.0));
        assert!((fast_op - 1.0).abs() < 1e-12);
        assert!((slow_op - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stolen_time_is_not_operation_time() {
        // the operation took 1.5 wall seconds, of which the hypervisor
        // stole 0.5: only its CPU second counts
        let h = with_samples(&[(9.8, REFERENCE_S)]);
        let (start, end) = (at(10.0, 3.0), at(11.5, 4.0));
        assert!((h.wall_seconds(start, end) - 1.5).abs() < 1e-12);
        assert!((h.reference_seconds(start, end) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let h = HostSpeed::new();
        let start = h.stamp();
        h.sample(2);
        let end = h.stamp();
        assert!(end.cpu > start.cpu && end.wall > start.wall);
        assert!(h.median_sample().unwrap() > 0.0);
    }

    #[test]
    fn samples_inside_an_operation_are_not_its_time() {
        // a solve from 0 s to 1.1 s with two 0.05 s samples inside it,
        // on a host at half the reference speed
        let h = with_samples(&[(0.3, 0.05), (0.8, 0.05)]);
        let slow = 0.05 / REFERENCE_S;
        let (start, end) = (at(0.0, 0.0), at(1.1, 1.1));
        assert!((h.wall_seconds(start, end) - 1.0).abs() < 1e-12);
        assert!((h.cpu_seconds(start, end) - 1.0).abs() < 1e-12);
        assert!((h.reference_seconds(start, end) - 1.0 / slow).abs() < 1e-12);
    }

    #[test]
    fn speed_is_the_mean_over_samples_near_the_operation() {
        // a slow stretch long before the operation; around it, a fast
        // and a reference-speed sample
        let h = with_samples(&[
            (0.0, 4.0 * REFERENCE_S),
            (49.8, 0.5 * REFERENCE_S),
            (51.2, REFERENCE_S),
        ]);
        assert!((h.speed(at(50.0, 0.0), at(51.0, 1.0)) - 1.5).abs() < 1e-12);
        // with no sample nearby, the mean over all of them
        let far = h.speed(at(20.0, 0.0), at(21.0, 1.0));
        assert!((far - (0.25 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
        assert_eq!(h.median_sample(), Some(REFERENCE_S));
    }

    #[test]
    fn the_kernel_keeps_values_bounded() {
        let h = HostSpeed::new();
        h.sample(3);
        assert_eq!(h.samples().len(), 3);
        assert!(h
            .data
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .all(|v| v.is_finite() && (1.0..=1.75).contains(v)));
        assert!(h.median_sample().unwrap() > 0.0);
    }
}
