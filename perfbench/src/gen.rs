//! The seeded input generator. Every input a workload hands the program
//! derives from the `--seed` argument through one named stream, so the
//! same seed gives the same inputs and streams never share draws.

use sea_crypto::Drbg;

/// A deterministic draw stream.
pub struct Gen(Drbg);

impl Gen {
    /// Stream `name` of seed `seed`.
    pub fn new(seed: u64, name: &str) -> Self {
        Gen(Drbg::new(
            &[
                b"perfbench/".as_slice(),
                &seed.to_le_bytes(),
                name.as_bytes(),
            ]
            .concat(),
        ))
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.0.next_u64() % (hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.0.next_u64() % den < num
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        self.0.fill(n)
    }

    /// A prime drawn from `lo..=hi`: the first prime at or after a
    /// uniform start, wrapping to `lo`.
    pub fn prime(&mut self, lo: u64, hi: u64) -> u64 {
        let start = self.range(lo, hi);
        (start..=hi)
            .chain(lo..start)
            .find(|&c| is_prime(c))
            .expect("the range holds a prime")
    }
}

fn is_prime(n: u64) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_names() {
        let draw = |seed, name| Gen::new(seed, name).bytes(16);
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
    }

    #[test]
    fn primes_are_prime_and_in_range() {
        let mut g = Gen::new(3, "p");
        for _ in 0..50 {
            let p = g.prime(60_000, 65_521);
            assert!(is_prime(p) && (60_000..=65_521).contains(&p));
        }
    }
}
