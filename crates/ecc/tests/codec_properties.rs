//! Properties of the parity and SECDED codecs, checked over every flip
//! position (and pair) where the domain is small and over fixed seeded
//! cases otherwise.

use margins_ecc::parity::ParityWord;
use margins_ecc::secded::{Codeword, Decoded, CODEWORD_BITS, DATA_BITS};
use margins_ecc::secded32::InterleavedWord;
use margins_ecc::CheckOutcome;
use margins_rng::splitmix64 as mix;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `case` for every seed in `0..cases`. A failing case panics again
/// with its seed in front of the original message.
fn for_each_seed(cases: u64, mut case: impl FnMut(u64)) {
    for seed in 0..cases {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("seed {seed}: {message}");
        }
    }
}

#[test]
fn secded_roundtrip() {
    for_each_seed(256, |mut state| {
        let data = mix(&mut state);
        let cw = Codeword::encode(data);
        assert_eq!(cw.decode(), Decoded::Clean(data));
        assert_eq!(cw.data_unchecked(), data);
    });
}

#[test]
fn secded_corrects_any_single_flip() {
    for_each_seed(8, |mut state| {
        let data = mix(&mut state);
        for pos in 0..CODEWORD_BITS {
            let decoded = Codeword::encode(data).with_flipped_position(pos).decode();
            assert_eq!(
                decoded,
                Decoded::Corrected {
                    data,
                    position: pos
                },
                "flip at {pos}"
            );
        }
    });
}

#[test]
fn secded_detects_any_double_flip() {
    for_each_seed(4, |mut state| {
        let data = mix(&mut state);
        for p1 in 0..CODEWORD_BITS {
            for p2 in p1 + 1..CODEWORD_BITS {
                let bad = Codeword::encode(data)
                    .with_flipped_position(p1)
                    .with_flipped_position(p2);
                assert_eq!(bad.decode(), Decoded::DoubleError, "flips at {p1} and {p2}");
            }
        }
    });
}

#[test]
fn secded_check_against_is_consistent_with_decode() {
    for_each_seed(256, |mut state| {
        let data = mix(&mut state);
        let mut cw = Codeword::encode(data);
        // Flipping a position twice restores it: track the net flips.
        let mut flipped = 0u128;
        for _ in 0..mix(&mut state) % 4 {
            let f = (mix(&mut state) % u64::from(CODEWORD_BITS)) as u32;
            cw = cw.with_flipped_position(f);
            flipped ^= 1 << f;
        }
        let outcome = cw.check_against(data);
        match flipped.count_ones() {
            0 => assert_eq!(outcome, CheckOutcome::Clean),
            1 => assert_eq!(outcome, CheckOutcome::Corrected),
            2 => assert_eq!(outcome, CheckOutcome::Uncorrected),
            // ≥3 flips: anything except Clean-with-right-data is acceptable,
            // but "Clean" must imply wrong data was labelled Undetected.
            _ => assert_ne!(outcome, CheckOutcome::Clean),
        }
    });
}

#[test]
fn parity_detects_odd_flip_counts() {
    for_each_seed(256, |mut state| {
        let data = mix(&mut state);
        let mut w = ParityWord::store(data);
        let mut flipped = 0u64;
        for _ in 0..1 + mix(&mut state) % 5 {
            let f = (mix(&mut state) % u64::from(DATA_BITS)) as u32;
            w.flip_data_bit(f);
            flipped ^= 1 << f;
        }
        let expected = if flipped == 0 {
            CheckOutcome::Clean
        } else if flipped.count_ones() % 2 == 1 {
            CheckOutcome::Uncorrected
        } else {
            CheckOutcome::Undetected
        };
        assert_eq!(w.check_against(data), expected);
    });
}

/// Every weight-3 data-flip pattern (41 664 of them), counted by the
/// outcome each codec reports: `[clean, corrected, uncorrected,
/// undetected]`. A linear code decodes a flip pattern the same way on any
/// data word, so one word covers them all; the simulated caches classify
/// a faulty word the same way, on the zero word. Weight 3 is where a
/// change to the construction (check positions, syndrome, correction)
/// shows first.
#[test]
fn weight_three_outcome_counts_are_pinned() {
    let data = 0x0123_4567_89AB_CDEF;
    let secded = Codeword::encode(data);
    let interleaved = InterleavedWord::encode(data);
    let slot = |outcome| match outcome {
        CheckOutcome::Clean => 0,
        CheckOutcome::Corrected => 1,
        CheckOutcome::Uncorrected => 2,
        CheckOutcome::Undetected => 3,
    };
    let (mut secded_counts, mut interleaved_counts) = ([0u32; 4], [0u32; 4]);
    for a in 0..DATA_BITS {
        for b in a + 1..DATA_BITS {
            for c in b + 1..DATA_BITS {
                let bad = secded
                    .with_flipped_data_bit(a)
                    .with_flipped_data_bit(b)
                    .with_flipped_data_bit(c);
                secded_counts[slot(bad.check_against(data))] += 1;
                let bad = interleaved
                    .with_flipped_data_bit(a)
                    .with_flipped_data_bit(b)
                    .with_flipped_data_bit(c);
                interleaved_counts[slot(bad.check_against(data))] += 1;
            }
        }
    }
    assert_eq!(secded_counts, [0, 0, 9_905, 31_759], "SECDED(72,64)");
    assert_eq!(
        interleaved_counts,
        [0, 0, 34_872, 6_792],
        "interleaved SECDED(39,32)"
    );
}
