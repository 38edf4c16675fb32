//! Host-speed calibration.
//!
//! The benchmark host is a shared virtual machine whose speed drifts by
//! up to 1.5x for seconds to minutes at a time, with no steal time
//! reported to the guest. Raw host timings therefore move with the
//! neighbours as much as with the program. After every timed segment
//! (a round, a pass's set-up or tear-down) the benchmark runs a fixed
//! reference computation and scales the segment by `nominal / t_ref`,
//! where `t_ref` is the median of the five nearest reference samples.
//!
//! Neighbours slow compute-bound and memory-bound code by different
//! factors, so each workload's reference [`Mix`] mirrors the host work
//! that dominates it. Scaled timings read as milliseconds at the
//! reference speed. The reference code lives in the benchmark and does
//! not change with the program, so a faster program still reads faster.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One reference sample's work.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Rounds of four interleaved SHA-1-style chains (ALU throughput).
    pub hash_rounds: u32,
    /// Steps of eight independent 128-bit multiply chains (bignum).
    pub multiplies: u64,
    /// Bytes of a resident buffer overwritten (memset bandwidth).
    pub set_bytes: usize,
    /// Bytes copied between two resident buffers (memcpy bandwidth).
    pub copy_bytes: usize,
    /// The sample's duration on a quiet host (2-core Xeon VM, release
    /// build): the scale of the calibrated clock.
    pub nominal_ms: f64,
}

fn hash_rounds(n: u32) -> u32 {
    let mut chains = [[
        0x6745_2301u32,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ]; 4];
    for i in 0..n {
        for (j, s) in chains.iter_mut().enumerate() {
            let [a, b, c, d, e] = *s;
            let f = (b & c) | (!b & d);
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(0x5A82_7999)
                .wrapping_add(i ^ j as u32);
            *s = [t, a, b.rotate_left(30), c, d];
        }
    }
    chains.iter().flatten().fold(0, |x, y| x ^ y)
}

fn multiplies(n: u64) -> u64 {
    let mut acc = [1u64; 8];
    for i in 0..n {
        for x in &mut acc {
            let p = u128::from(*x) * (0x9E37_79B9_7F4A_7C15u128 + u128::from(i));
            *x = (p as u64) ^ ((p >> 64) as u64);
        }
    }
    acc.iter().fold(0, |x, y| x ^ y)
}

/// Runs a workload's reference samples, owning the buffers they touch.
pub struct Calibrator {
    mix: Mix,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Calibrator {
    /// A calibrator for `mix`, with its buffers resident.
    pub fn new(mix: Mix) -> Self {
        Calibrator {
            mix,
            src: vec![0x5A; mix.copy_bytes],
            dst: vec![0xA5; mix.set_bytes.max(mix.copy_bytes)],
        }
    }

    /// Runs one reference sample and returns its duration.
    pub fn sample(&mut self) -> Duration {
        let m = self.mix;
        let t = Instant::now();
        black_box(hash_rounds(black_box(m.hash_rounds)));
        black_box(multiplies(black_box(m.multiplies)));
        black_box(&mut self.dst[..m.set_bytes]).fill(0x3C);
        black_box(&mut self.dst[..m.copy_bytes])
            .copy_from_slice(black_box(&self.src[..m.copy_bytes]));
        t.elapsed()
    }

    /// The host's speed relative to the nominal one: `nominal_ms` over
    /// the median of `samples`.
    pub fn speed(&self, samples: &mut [Duration]) -> f64 {
        samples.sort();
        self.mix.nominal_ms / (samples[samples.len() / 2].as_secs_f64() * 1e3)
    }

    /// Scales each segment by the reference speed around it: segment
    /// `k` ran just before reference sample `refs[k]`, and its speed is
    /// that of the five nearest samples.
    pub fn scaled_ms(&self, segments: &[Duration], refs: &[Duration]) -> Vec<f64> {
        assert_eq!(segments.len(), refs.len(), "one reference per segment");
        segments
            .iter()
            .enumerate()
            .map(|(k, seg)| {
                let mut near = refs[k.saturating_sub(2)..(k + 3).min(refs.len())].to_vec();
                seg.as_secs_f64() * 1e3 * self.speed(&mut near)
            })
            .collect()
    }
}
