//! The host-speed probe: a fixed piece of work, timed every
//! [`PROBE_EVERY_S`] of the measured window on the benchmark's one CPU, so
//! that the gated timings can be stated at one reference speed of the host.
//!
//! The shared hosts this runs on switch between a fast and a slow mode,
//! whatever the program does, sometimes for minutes and sometimes several
//! times a second. The slow mode barely moves a chain of integer
//! multiplies (~3%) or a pointer chase (~20%), so it is not the clock; it
//! does move generic high-throughput code, and tuning the allocator does
//! not change it. The probe is such code — fill a hash map of vectors,
//! flatten, sort, format — and reads ~210 µs in the fast mode and ~310 µs
//! in the slow one. Each slice's timings are scaled by [`slowness_of`]
//! the mean of the slice's readings. One reading per 0.5 s slice caught a
//! single instant of a host that flips within the slice, which made the
//! scaling add noise; a reading every 50 ms tracks the slice. The program
//! slows more than the probe, as the probe's slowdown to the power
//! [`SENSITIVITY`]: scaled by the plain ratio, runs wholly in the slow
//! mode still read 10–15% slow. The probe runs none of
//! the program's code, so a change to the program moves the scaled
//! timings as it moves the raw ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::SLICE_S;

/// The probe reading, µs, at whose host speed timings are stated: about
/// the fast mode's when the benchmark was first calibrated (the probe
/// reads ~210 µs fast and ~310 µs slow on the hosts it was tuned on).
pub const REFERENCE_US: f64 = 250.0;

/// How much more the program slows than the probe, as the power of the
/// probe's slowdown that the program's matches. Over six runs of each
/// workload spread across both modes, the log of the run's throughput
/// followed the log of its harmonic-mean probe reading with correlation
/// 0.98 to 0.999 and slopes of 1.29 (`predict_miss`), 1.37
/// (`predict_hot`), 1.39 (`mixed_rw`) and 1.41 to 1.56 (`cluster_sim`).
pub const SENSITIVITY: f64 = 1.4;

/// Window time between two probe readings, s.
pub const PROBE_EVERY_S: f64 = 0.05;

/// Values the probe files, and the keys they fall under.
const VALUES: u64 = 3000;
const KEYS: u64 = 500;

/// How much slower than the reference the program runs while the probe
/// reads `us`.
pub fn slowness_of(us: f64) -> f64 {
    (us / REFERENCE_US).powf(SENSITIVITY)
}

/// Times the probe three times and returns the fastest, µs: a round cut
/// short by a context switch reads slow.
pub fn probe_us() -> f64 {
    (0..3)
        .map(|round| {
            let started = Instant::now();
            let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> =
                HashMap::default();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64 ^ round);
            for i in 0..VALUES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                map.entry(x % KEYS).or_default().push(i ^ x);
            }
            let mut all: Vec<u64> = map.into_values().flatten().collect();
            all.sort_unstable();
            black_box(format!("{:?}", &all[..200]));
            started.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Probe readings over one window: `(s since the window opened, probe µs)`.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    readings: Vec<(f64, f64)>,
    next_s: f64,
}

impl Probes {
    /// Reads the probe when `at_s` (s since the window opened) lies in a
    /// [`PROBE_EVERY_S`] step this recorder has not probed yet.
    pub fn tick(&mut self, at_s: f64) {
        if at_s >= self.next_s {
            self.readings.push((at_s, probe_us()));
            self.next_s = ((at_s / PROBE_EVERY_S).floor() + 1.0) * PROBE_EVERY_S;
        }
    }

    /// Adds another recorder's readings (a second connection's).
    pub fn merge(&mut self, other: &Probes) {
        self.readings.extend_from_slice(&other.readings);
    }

    /// How much slower than the reference the program ran in each of the
    /// first `slices` slices: [`slowness_of`] the mean of the slice's
    /// readings. A slice without a reading takes the last earlier slice's;
    /// before the first reading, 1.
    pub fn slowness(&self, slices: usize) -> Vec<f64> {
        let mut sums = vec![(0.0, 0usize); slices];
        for &(at_s, us) in &self.readings {
            if let Some(slot) = sums.get_mut((at_s / SLICE_S) as usize) {
                slot.0 += us;
                slot.1 += 1;
            }
        }
        let mut last = REFERENCE_US;
        sums.into_iter()
            .map(|(sum, n)| {
                if n > 0 {
                    last = sum / n as f64;
                }
                slowness_of(last)
            })
            .collect()
    }

    /// The median reading, µs (0 for none).
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.readings.iter().map(|r| r.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_reading_per_step_and_gaps_take_the_last() {
        let mut probes = Probes::default();
        for at_s in [0.0, 0.01, 0.04, 0.06, 0.17, 0.18] {
            probes.tick(at_s);
        }
        assert_eq!(probes.readings.len(), 3, "steps 0, 1 and 3");
        probes.readings = vec![(0.0, 250.0), (0.6, 500.0), (1.7, 375.0)];
        let mut other = Probes::default();
        other.readings = vec![(0.7, 250.0), (0.1, 500.0)];
        probes.merge(&other);
        // Slices 0 and 1 take the mean of their two readings; slice 2 has
        // none and takes slice 1's.
        assert_eq!(probes.slowness(5), vec![slowness_of(375.0); 5]);
        probes.readings[1].1 = 750.0;
        let (a, b) = (slowness_of(375.0), slowness_of(500.0));
        assert_eq!(probes.slowness(4), vec![a, b, b, a]);
        assert_eq!(Probes::default().slowness(2), vec![1.0, 1.0]);
    }

    #[test]
    fn slowness_is_a_power_of_the_reading() {
        assert_eq!(slowness_of(REFERENCE_US), 1.0);
        assert!((slowness_of(2.0 * REFERENCE_US) - 2f64.powf(SENSITIVITY)).abs() < 1e-12);
        assert!(slowness_of(0.5 * REFERENCE_US) < 0.5);
    }

    #[test]
    fn the_probe_takes_measurable_time() {
        let us = probe_us();
        assert!(us > 0.0 && us.is_finite(), "{us}");
    }
}
