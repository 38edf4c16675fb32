//! Known-answer tests for key generation: the prime search must keep
//! drawing the same DRBG bytes and making the same accept/reject
//! decisions, so every derived key (AIKs, sealed CA keys, quotes over
//! them) stays byte-identical when the search is optimised.

use sea_crypto::{generate_prime, to_hex, Drbg, RsaPrivateKey, Sha1};

#[test]
fn forty_512_bit_keys_hash_to_the_pinned_digest() {
    let mut h = Sha1::new();
    for i in 0u64..40 {
        let mut seed = b"probe/".to_vec();
        seed.extend_from_slice(&i.to_le_bytes());
        let key = RsaPrivateKey::generate(512, &mut Drbg::new(&seed)).unwrap();
        h.update_bytes(&key.to_bytes());
    }
    assert_eq!(
        to_hex(&h.finalize_fixed()),
        "00ca0b94f6855811eaf0be4fcd3378de70ed9ba5"
    );
}

#[test]
fn a_256_bit_prime_is_pinned() {
    let p = generate_prime(256, &mut Drbg::new(b"probe/prime")).unwrap();
    assert_eq!(
        format!("{p:x}"),
        "fdc3f83ac77a15afb4be071834ab3036d059ec7586310f3322d271518c7275fb"
    );
}
