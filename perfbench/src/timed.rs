//! The timed phase: slices, steal gating, and the medians a run reports.
//!
//! A timed phase is cut into slices of about a second. Hypervisor steal
//! comes in episodes, so a slice that lost more than [`STEAL_SHARE`] of the
//! machine's CPU time to steal is repeated, within a budget as long as the
//! phase itself; the least-stolen slices are then kept. Every attempt is
//! printed with its steal, and every slice set aside is named, so none is
//! dropped silently. End-to-end figures are medians over the kept slices.

use std::time::{Duration, Instant};

use crate::host;

/// Share of the machine's CPU time that a slice may lose to steal before it
/// is repeated.
pub const STEAL_SHARE: f64 = 0.02;

/// What one slice measured.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Wall time of the slice.
    pub wall: Duration,
    /// Operations completed (requests, calls or balls).
    pub ops: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// CPU time of the measured process over the slice.
    pub cpu_ns: u64,
    /// Latency samples in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Gap samples: number of batch boundaries and the sum of their gaps.
    pub gap_count: u64,
    pub gap_sum: f64,
    /// Machine-wide stolen ticks over the slice, and the calibration loop
    /// time before it (both filled in by [`run`]).
    pub steal_ticks: u64,
    pub calib_ns: u64,
}

impl Slice {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops.max(1) as f64
    }
}

/// All slices of a timed phase: the kept ones and those set aside for steal.
#[derive(Debug, Default)]
pub struct Timed {
    pub kept: Vec<Slice>,
    pub repeated: Vec<Slice>,
}

impl Timed {
    pub fn attempted(&self) -> u64 {
        self.kept.iter().chain(&self.repeated).map(|s| s.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kept
            .iter()
            .chain(&self.repeated)
            .map(|s| s.failed)
            .sum()
    }

    pub fn steal_ticks(&self) -> u64 {
        self.kept
            .iter()
            .chain(&self.repeated)
            .map(|s| s.steal_ticks)
            .sum()
    }

    /// Median calibration loop time of the kept slices.
    pub fn calib_ns(&self) -> f64 {
        median(self.kept.iter().map(|s| s.calib_ns as f64).collect())
    }

    pub fn throughput(&self) -> f64 {
        median(self.kept.iter().map(Slice::ops_per_s).collect())
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        median(self.kept.iter().map(Slice::cpu_us_per_op).collect())
    }

    /// Median over kept slices of each slice's latency quantile `q`, in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let per_slice = self
            .kept
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| {
                let mut samples = s.latencies_ns.clone();
                samples.sort_unstable();
                quantile_sorted(&samples, q) as f64 / 1e3
            })
            .collect();
        median(per_slice)
    }

    pub fn latency_samples(&self) -> usize {
        self.kept.iter().map(|s| s.latencies_ns.len()).sum()
    }

    /// Mean gap over the kept slices' batch boundaries.
    pub fn gap_mean(&self) -> f64 {
        let count: u64 = self.kept.iter().map(|s| s.gap_count).sum();
        let sum: f64 = self.kept.iter().map(|s| s.gap_sum).sum();
        sum / count.max(1) as f64
    }
}

/// Runs slices until clean ones (steal within [`STEAL_SHARE`]) cover
/// `seconds` of wall time, or until all attempts cover twice that. The
/// least-stolen slices covering `seconds` are kept; the rest are set aside
/// as repeated. `one` runs a single slice; steal is measured around it here.
pub fn run<E>(
    label: &str,
    seconds: f64,
    mut one: impl FnMut() -> Result<Slice, E>,
) -> Result<Timed, E> {
    let target = Duration::from_secs_f64(seconds);
    let mut attempts: Vec<(Slice, Duration)> = Vec::new();
    let (mut clean_wall, mut total_wall) = (Duration::ZERO, Duration::ZERO);
    while clean_wall < target && total_wall < 2 * target {
        let calib_ns = host::calibrate_ns();
        let steal_before = host::steal_ticks();
        let started = Instant::now();
        let mut slice = one()?;
        let wall = started.elapsed();
        slice.steal_ticks = host::steal_ticks().saturating_sub(steal_before);
        slice.calib_ns = calib_ns;
        let stolen = host::steal_exceeds(slice.steal_ticks, wall, STEAL_SHARE);
        let mut latencies = slice.latencies_ns.clone();
        latencies.sort_unstable();
        println!(
            "# {label} slice {} wall_s {:.3} ops {} ops_per_s {:.0} p50_us {:.2} p99_us {:.2} steal_ms {:.0} calib_us {:.1} {}",
            attempts.len(),
            slice.wall.as_secs_f64(),
            slice.ops,
            slice.ops_per_s(),
            quantile_sorted(&latencies, 0.5) as f64 / 1e3,
            quantile_sorted(&latencies, 0.99) as f64 / 1e3,
            host::ticks_to_ms(slice.steal_ticks),
            calib_ns as f64 / 1e3,
            if stolen { "stolen" } else { "clean" }
        );
        total_wall += wall;
        if !stolen {
            clean_wall += wall;
        }
        attempts.push((slice, wall));
    }
    let steal_rate =
        |(slice, wall): &(Slice, Duration)| slice.steal_ticks as f64 / wall.as_secs_f64();
    let mut order: Vec<usize> = (0..attempts.len()).collect();
    order.sort_by(|&a, &b| steal_rate(&attempts[a]).total_cmp(&steal_rate(&attempts[b])));
    let mut keep = vec![false; attempts.len()];
    let mut kept_wall = Duration::ZERO;
    for i in order {
        if kept_wall >= target {
            break;
        }
        keep[i] = true;
        kept_wall += attempts[i].1;
    }
    let mut timed = Timed::default();
    for (i, (slice, _)) in attempts.into_iter().enumerate() {
        if keep[i] {
            timed.kept.push(slice);
        } else {
            println!("# {label} slice {i} set aside for steal");
            timed.repeated.push(slice);
        }
    }
    Ok(timed)
}

/// Median of `values` (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples (0 for none).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
