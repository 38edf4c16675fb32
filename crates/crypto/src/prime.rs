//! Probabilistic prime generation (Miller–Rabin) for RSA key generation.

use crate::bignum::{BigUint, Montgomery};
use crate::drbg::Drbg;
use crate::error::CryptoError;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds. 40 rounds gives a failure probability
/// below 2^-80 for random candidates, far beyond simulation needs.
const MR_ROUNDS: usize = 40;

/// Tests whether `n` is probably prime using trial division plus
/// Miller–Rabin with witnesses drawn from `rng`.
///
/// # Example
///
/// ```
/// use sea_crypto::{is_probably_prime, BigUint, Drbg};
///
/// let mut rng = Drbg::new(b"witnesses");
/// assert!(is_probably_prime(&BigUint::from_u64(65_537), &mut rng));
/// assert!(!is_probably_prime(&BigUint::from_u64(65_539 * 3), &mut rng));
/// ```
pub fn is_probably_prime(n: &BigUint, rng: &mut Drbg) -> bool {
    if n.bit_len() <= 64 {
        match n.low_u64() {
            0 | 1 => return false,
            2 => return true,
            v if SMALL_PRIMES.contains(&v) => return true,
            _ => {}
        }
    }
    if n.is_even() || has_small_factor(n) {
        return false;
    }

    // n - 1 = d * 2^s with d odd
    let one = BigUint::one();
    let n_minus_1 = n.checked_sub(&one).expect("n >= 2");
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    // One Montgomery context serves every witness; x stays in Montgomery
    // form throughout and is compared against the forms of 1 and n - 1.
    let mont = Montgomery::new(n);
    let plus_one = mont.one();
    let minus_one = mont.encode(&n_minus_1);
    let two = BigUint::from_u64(2);
    'witness: for _ in 0..MR_ROUNDS {
        // Witness a in [2, n-2]
        let a = random_below(&n_minus_1, rng);
        let a = if a < two { two.clone() } else { a };
        let mut x = mont.pow(&mont.encode(&a), &d);
        if x == plus_one || x == minus_one {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            mont.square(&mut x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Whether a prime in [`SMALL_PRIMES`] divides `n`. The primes are taken
/// in runs whose product fits in a `u64`, so each run costs one
/// single-limb remainder pass over `n`: `n mod p = (n mod P) mod p` when
/// `p` divides `P`.
fn has_small_factor(n: &BigUint) -> bool {
    let mut start = 0;
    while start < SMALL_PRIMES.len() {
        let mut product = 1u64;
        let mut end = start;
        while let Some(p) = SMALL_PRIMES.get(end).and_then(|&p| product.checked_mul(p)) {
            product = p;
            end += 1;
        }
        let r = n.rem_u64(product);
        if SMALL_PRIMES[start..end]
            .iter()
            .any(|&p| r.is_multiple_of(p))
        {
            return true;
        }
        start = end;
    }
    false
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The two most-significant bits are forced to 1 (guaranteeing that the
/// product of two such primes has exactly `2*bits` bits, as RSA key
/// generation requires), and the low bit is forced to 1.
///
/// # Errors
///
/// Returns [`CryptoError::PrimeGenerationFailed`] if no prime is found
/// within the iteration budget, and [`CryptoError::InvalidKeySize`] if
/// `bits < 8`.
pub fn generate_prime(bits: usize, rng: &mut Drbg) -> Result<BigUint, CryptoError> {
    if bits < 8 {
        return Err(CryptoError::InvalidKeySize { bits });
    }
    // Expected gap between primes near 2^bits is ~ bits * ln(2); a budget of
    // 40 * bits candidates makes failure astronomically unlikely.
    let budget = 40 * bits;
    for _ in 0..budget {
        let mut candidate = random_bits(bits, rng);
        // Force top two bits and the low bit.
        candidate = force_bit(candidate, bits - 1);
        candidate = force_bit(candidate, bits - 2);
        candidate = force_bit(candidate, 0);
        if is_probably_prime(&candidate, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

/// Returns a uniformly random value with at most `bits` bits.
pub(crate) fn random_bits(bits: usize, rng: &mut Drbg) -> BigUint {
    let nbytes = bits.div_ceil(8);
    let mut bytes = rng.fill(nbytes);
    let excess = nbytes * 8 - bits;
    if excess > 0 {
        bytes[0] &= 0xFF >> excess;
    }
    BigUint::from_bytes_be(&bytes)
}

/// Returns a uniformly random value in `[0, bound)` by rejection sampling.
pub(crate) fn random_below(bound: &BigUint, rng: &mut Drbg) -> BigUint {
    assert!(!bound.is_zero(), "random_below bound must be positive");
    let bits = bound.bit_len();
    loop {
        let candidate = random_bits(bits, rng);
        if &candidate < bound {
            return candidate;
        }
    }
}

fn force_bit(v: BigUint, bit: usize) -> BigUint {
    if v.bit(bit) {
        v
    } else {
        v.add_ref(&BigUint::one().shl_bits(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognized() {
        let mut rng = Drbg::new(b"t");
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 211, 65_537] {
            assert!(
                is_probably_prime(&BigUint::from_u64(p), &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = Drbg::new(b"t");
        for c in [0u64, 1, 4, 6, 9, 15, 91, 221, 65_539 * 3] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn single_limb_small_primes_and_their_multiples() {
        let mut rng = Drbg::new(b"t");
        for &p in &SMALL_PRIMES {
            let n = BigUint::from_u64(p);
            assert!(is_probably_prime(&n, &mut rng), "{p} is prime");
            for q in [3u64, p, 1 << 61] {
                let c = BigUint::from_u64(p).mul_ref(&BigUint::from_u64(q));
                assert!(!is_probably_prime(&c, &mut rng), "{p} * {q}");
            }
        }
        // The largest trial divisor's neighbours go to Miller–Rabin.
        assert!(is_probably_prime(&BigUint::from_u64(223), &mut rng));
        assert!(!is_probably_prime(&BigUint::from_u64(223 * 227), &mut rng));
    }

    #[test]
    fn trial_division_draws_nothing() {
        // A composite caught by a small prime consumes no witnesses, so
        // the DRBG stream continues exactly where it was.
        let mut a = Drbg::new(b"stream");
        let mut b = Drbg::new(b"stream");
        let c =
            BigUint::from_u64(211).mul_ref(&BigUint::one().shl_bits(200).add_ref(&BigUint::one()));
        assert!(!is_probably_prime(&c, &mut a));
        assert_eq!(a.fill(16), b.fill(16));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut rng = Drbg::new(b"t");
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), &mut rng),
                "Carmichael {c} should be composite"
            );
        }
    }

    #[test]
    fn generated_primes_have_exact_bit_length() {
        let mut rng = Drbg::new(b"gen");
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(bits, &mut rng).unwrap();
            assert_eq!(p.bit_len(), bits, "bits={bits}");
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit forced");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p1 = generate_prime(64, &mut Drbg::new(b"same")).unwrap();
        let p2 = generate_prime(64, &mut Drbg::new(b"same")).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn tiny_bit_count_is_error() {
        let mut rng = Drbg::new(b"t");
        assert_eq!(
            generate_prime(4, &mut rng),
            Err(CryptoError::InvalidKeySize { bits: 4 })
        );
    }

    #[test]
    fn random_below_stays_below() {
        let mut rng = Drbg::new(b"t");
        let bound = BigUint::from_u64(1000);
        for _ in 0..50 {
            assert!(random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn random_bits_respects_width() {
        let mut rng = Drbg::new(b"t");
        for bits in [1usize, 7, 8, 9, 63, 64, 65] {
            for _ in 0..10 {
                assert!(random_bits(bits, &mut rng).bit_len() <= bits);
            }
        }
    }
}
