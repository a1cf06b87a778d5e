//! Link-level fault modelling hooks.
//!
//! The fault-injection layer in `dles-core` decides *whether* a serial
//! transfer is hit by bit errors; this module decides what those errors
//! *do* to a PPP frame ([`crate::ppp`]) carrying a representative payload
//! with random wire bits flipped. A flip that lands on a flag, an escape,
//! the checksum or the payload must be detected, and the transfer treated
//! as lost, while flips the framing provably survives leave the transfer
//! intact.
//!
//! The verdict does not run the codec. It follows from the rule the codec
//! obeys, which `ppp`'s tests check exhaustively: a frame built by
//! `encode_frame` with a multiset S of its wire bits flipped decodes to
//! exactly `[Ok(payload)]` **if and only if every bit in S is flipped an
//! even number of times**, that is, if the flips undo each other.
//!
//! *Why the rule holds.* Flips do not change the wire's length. To decode
//! to one frame holding `payload ‖ FCS`, a wire needs an opening flag, a
//! closing flag, and at least one byte per frame byte, two for each frame
//! byte that is a flag or an escape (a decoded `0x7E` or `0x7D` can only
//! come from an escape sequence). `encode_frame`'s output is exactly that
//! and no more, so it is the unique shortest such wire: any garbage
//! before the frame, extra flag, trailing byte or unneeded escape makes a
//! wire longer, and a wire the decoder aborts yields an `Err`. So a wire
//! of the same length that decodes to `[Ok(payload)]` is the original
//! wire, bit for bit.
//!
//! With one or three flips some bit is flipped an odd number of times, so
//! the frame is always corrupted; with two it survives only if both flips
//! hit the same bit. Deciding that needs the flipped positions, which the
//! RNG draws against the frame's exact wire length; see
//! [`frame_corrupted_by_flips`] for how the draws stay exact without
//! building the frame.

use crate::ppp::{fcs16_update, is_stuffed, FCS16_INIT};
use dles_sim::SimRng;

/// The bytes of the deterministic stand-in payload for a transfer of
/// `len` bytes: the frame number seeds a byte pattern so different frames
/// exercise different escape densities (0x7D/0x7E bytes included).
fn synthetic_bytes(len: u64, frame: u64) -> impl Iterator<Item = u8> {
    let mut x = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len);
    (0..len).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 24) as u8
    })
}

/// Length in bits of `encode_frame` of the stand-in payload, in one pass
/// over [`synthetic_bytes`] that builds neither the payload nor the frame.
fn synthetic_wire_bits(bytes: u64, frame: u64) -> u64 {
    let (crc, stuffed) = synthetic_bytes(bytes, frame).fold((FCS16_INIT, 0), |(crc, n), b| {
        (fcs16_update(crc, b), n + u64::from(is_stuffed(b)))
    });
    let fcs_stuffed = (!crc).to_le_bytes().map(|b| u64::from(is_stuffed(b)));
    // Two flags, the payload, the two FCS bytes, and one escape byte per
    // stuffed byte.
    8 * (bytes + 4 + stuffed + fcs_stuffed[0] + fcs_stuffed[1])
}

/// Whether `flips` random wire bits (at most 3) flipped in the PPP frame
/// of `bytes` payload bytes for `frame` corrupt it: `true` when the
/// receiver would see a framing or FCS error instead of the payload, so
/// the transfer must be treated as lost.
///
/// Each flip position is drawn as `uniform_u64(0, wire_bits − 1)`, so
/// the RNG advances exactly as if the frame were built and flipped. The
/// exact `wire_bits` is needed only when a draw's first word falls in the
/// rejection tail of some possible wire length (see
/// [`SimRng::uniform_below_deferred`]), or when two flips agree modulo 8,
/// since `wire_bits` is a multiple of 8. Only then is it computed, in
/// one pass over the payload generator. The verdict is the flip-parity
/// rule of the module doc.
pub fn frame_corrupted_by_flips(bytes: u64, frame: u64, flips: u32, rng: &mut SimRng) -> bool {
    assert!(flips <= 3, "at most 3 flips, got {flips}");
    // The wire length if every payload and FCS byte were escaped.
    let max_bits = 8 * (2 * bytes + 6);
    let mut exact = None;
    let mut wire_bits = || *exact.get_or_insert_with(|| synthetic_wire_bits(bytes, frame));
    let mut words = [0; 3];
    for word in &mut words[..flips as usize] {
        *word = rng.uniform_below_deferred(max_bits, &mut wire_bits);
    }
    match flips {
        0 => false,
        2 => words[0] % 8 != words[1] % 8 || words[0] % wire_bits() != words[1] % wire_bits(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppp::{decode_frames, encode_frame};

    fn synthetic_payload(len: u64, frame: u64) -> Vec<u8> {
        synthetic_bytes(len, frame).collect()
    }

    /// The verdict by running the codec: encode the stand-in payload,
    /// flip `flips` random wire bits, and decode. The oracle for
    /// [`frame_corrupted_by_flips`].
    fn frame_corrupted_by_codec(bytes: u64, frame: u64, flips: u32, rng: &mut SimRng) -> bool {
        let payload = synthetic_payload(bytes, frame);
        let mut wire = encode_frame(&payload);
        let wire_bits = wire.len() as u64 * 8;
        for _ in 0..flips {
            let bit = rng.uniform_u64(0, wire_bits - 1);
            wire[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        let decoded = decode_frames(&wire);
        !(decoded.len() == 1 && decoded[0].as_deref() == Ok(payload.as_slice()))
    }

    #[test]
    fn synthetic_payload_is_deterministic_and_sized() {
        let a = synthetic_payload(512, 7);
        let b = synthetic_payload(512, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 512);
        assert_ne!(a, synthetic_payload(512, 8), "frames differ");
    }

    #[test]
    fn zero_flips_always_survive() {
        let mut rng = SimRng::seed_from_u64(1);
        for frame in 0..8 {
            assert!(!frame_corrupted_by_flips(256, frame, 0, &mut rng));
        }
    }

    #[test]
    fn streaming_wire_length_matches_the_encoder() {
        let mut stuffed_fcs = 0;
        let lens = (1..=300).chain([1000, 4096, 7680, 10_341, 10_342]);
        for bytes in lens {
            for frame in 0..12 {
                let payload = synthetic_payload(bytes, frame);
                let wire = encode_frame(&payload);
                assert_eq!(
                    synthetic_wire_bits(bytes, frame),
                    8 * wire.len() as u64,
                    "bytes {bytes} frame {frame}"
                );
                let stuffed = payload.iter().filter(|&&b| is_stuffed(b)).count();
                if wire.len() > payload.len() + stuffed + 4 {
                    stuffed_fcs += 1;
                }
            }
        }
        assert!(stuffed_fcs > 0, "no frame had a stuffed FCS byte");
    }

    #[test]
    fn parity_rule_matches_the_codec() {
        let lens = (1..=48).chain([100, 1000, 4096, 10_342]);
        let (mut corrupted, mut intact) = (0, 0);
        for bytes in lens {
            let frames = if bytes > 1000 { 12 } else { 120 };
            for frame in 0..frames {
                for flips in 1..=3 {
                    let seed = bytes * 1_000_003 + frame * 7 + u64::from(flips);
                    let mut fast = SimRng::seed_from_u64(seed);
                    let mut codec = SimRng::seed_from_u64(seed);
                    let verdict = frame_corrupted_by_flips(bytes, frame, flips, &mut fast);
                    assert_eq!(
                        verdict,
                        frame_corrupted_by_codec(bytes, frame, flips, &mut codec),
                        "bytes {bytes} frame {frame} flips {flips}"
                    );
                    assert_eq!(fast.next_u64(), codec.next_u64(), "RNG state diverged");
                    if verdict {
                        corrupted += 1;
                    } else {
                        intact += 1;
                    }
                }
            }
        }
        // Two flips on one bit of a short frame happen often enough here
        // to exercise the surviving verdict too.
        assert!(
            intact > 10 && corrupted > intact,
            "{intact} intact, {corrupted} corrupted"
        );
    }
}
