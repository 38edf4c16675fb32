//! Deterministic random bit generator (HMAC-DRBG, after NIST SP 800-90A).
//!
//! The simulated TPM's `TPM_GetRandom` command and its key-generation paths
//! draw from this generator. Determinism is a feature: every experiment in
//! the reproduction is replayable from a seed.

use crate::hmac::Hmac;
use crate::sha256::Sha256;

/// A deterministic HMAC-SHA-256 DRBG.
///
/// # Example
///
/// ```
/// use sea_crypto::Drbg;
///
/// let mut a = Drbg::new(b"seed");
/// let mut b = Drbg::new(b"seed");
/// assert_eq!(a.fill(16), b.fill(16));
/// let mut c = Drbg::new(b"other seed");
/// assert_ne!(a.fill(16), c.fill(16));
/// ```
#[derive(Debug, Clone)]
pub struct Drbg {
    /// HMAC keyed with the current key `K`, cloned for every MAC under it.
    key: Hmac<Sha256>,
    value: Vec<u8>,
}

impl Drbg {
    /// Instantiates the DRBG from arbitrary seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = Drbg {
            key: Hmac::new(&[0u8; 32]),
            value: vec![1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Mixes additional entropy/material into the generator state.
    pub fn reseed(&mut self, material: &[u8]) {
        self.update(Some(material));
    }

    /// `HMAC(K, parts[0] || parts[1] || ...)` under the current key.
    fn mac(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut h = self.key.clone();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let p = provided.unwrap_or_default();
        self.key = Hmac::new(&self.mac(&[&self.value, &[0x00], p]));
        self.value = self.mac(&[&self.value]);

        if provided.is_some() {
            self.key = Hmac::new(&self.mac(&[&self.value, &[0x01], p]));
            self.value = self.mac(&[&self.value]);
        }
    }

    /// Fills `out` with the next pseudo-random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            self.value = self.mac(&[&self.value]);
            let take = (out.len() - written).min(self.value.len());
            out[written..written + take].copy_from_slice(&self.value[..take]);
            written += take;
        }
        self.update(None);
    }

    /// Returns the next `n` pseudo-random bytes as a vector.
    pub fn fill(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// Returns a uniformly pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Returns a pseudo-random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Drbg::new(b"tpm seed");
        let mut b = Drbg::new(b"tpm seed");
        assert_eq!(a.fill(100), b.fill(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Drbg::new(b"seed-a");
        let mut b = Drbg::new(b"seed-b");
        assert_ne!(a.fill(32), b.fill(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = Drbg::new(b"seed");
        let mut b = Drbg::new(b"seed");
        b.reseed(b"extra");
        assert_ne!(a.fill(32), b.fill(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut a = Drbg::new(b"seed");
        let x = a.fill(32);
        let y = a.fill(32);
        assert_ne!(x, y);
    }

    #[test]
    fn fill_spans_multiple_hmac_blocks() {
        let mut a = Drbg::new(b"seed");
        let long = a.fill(100);
        assert_eq!(long.len(), 100);
        // Not all identical bytes (sanity of generator output).
        assert!(long.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn next_below_is_in_range() {
        let mut a = Drbg::new(b"seed");
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..20 {
                assert!(a.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Drbg::new(b"s").next_below(0);
    }
}
