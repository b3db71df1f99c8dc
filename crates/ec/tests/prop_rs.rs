//! Property-based tests for the Reed-Solomon codec: for arbitrary data
//! and any erasure pattern of at most `m` shards, reconstruction must be
//! exact.

use deliba_ec::ReedSolomon;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rs_round_trip_any_data_any_erasures(
        data in proptest::collection::vec(any::<u8>(), 1..8192),
        k in 2usize..8,
        m in 1usize..4,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m);
        let shards = rs.encode(&data);
        prop_assert_eq!(shards.len(), k + m);

        // Pick up to m distinct erasures pseudo-randomly from the seed.
        let mut erase: Vec<usize> = (0..k + m).collect();
        let mut s = seed;
        for i in (1..erase.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            erase.swap(i, j);
        }
        let n_erase = (seed as usize) % (m + 1);
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for &e in erase.iter().take(n_erase) {
            opt[e] = None;
        }

        rs.reconstruct(&mut opt).expect("≤ m erasures must be recoverable");
        let mut out = vec![0xAA; 7];
        rs.join(&opt, data.len(), &mut out);
        prop_assert_eq!(out, data);
    }

    #[test]
    fn parity_deterministic(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        let rs = ReedSolomon::new(4, 2);
        let a = rs.encode(&data);
        let b = rs.encode(&data);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parity_is_linear(
        a in proptest::collection::vec(any::<u8>(), 256..257),
        b in proptest::collection::vec(any::<u8>(), 256..257),
    ) {
        // GF(2) linearity: encode(a ⊕ b) = encode(a) ⊕ encode(b) —
        // the invariant the RTL encoder's XOR datapath relies on.
        let rs = ReedSolomon::new(4, 2);
        let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ea = rs.encode(&a);
        let eb = rs.encode(&b);
        let ex = rs.encode(&xored);
        for i in 0..6 {
            let manual: Vec<u8> = ea[i].iter().zip(&eb[i]).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(&manual, &ex[i], "shard {}", i);
        }
    }
}
