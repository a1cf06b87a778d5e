//! Link-level fault modelling hooks.
//!
//! The fault-injection layer in `dles-core` decides *whether* a serial
//! transfer is hit by bit errors; this module decides what those errors
//! *do*, by pushing a representative payload through the real PPP codec
//! ([`crate::ppp`]) with random wire bits flipped. The FCS and
//! byte-stuffing logic are therefore load-bearing: a flip that lands on a
//! flag, an escape, the checksum, or the payload must be detected (and the
//! transfer treated as lost), while a flip the framing provably survives
//! leaves the transfer intact.

use crate::ppp::{decode_frames, encode_frame};
use dles_sim::SimRng;

/// Deterministic stand-in payload for a transfer of `len` bytes: the frame
/// number seeds a byte pattern so different frames exercise different
/// escape densities (0x7D/0x7E bytes included).
pub(crate) fn synthetic_payload(len: u64, frame: u64) -> Vec<u8> {
    let len = len as usize;
    let mut out = Vec::with_capacity(len);
    let mut x = frame
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(len as u64);
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((x >> 24) as u8);
    }
    out
}

/// Encode `bytes` worth of payload for `frame`, flip `flips` random wire
/// bits, and decode with the streaming `FrameDecoder`.
/// Returns `true` when the payload does *not* survive intact — i.e. the
/// receiver either sees a framing/FCS error or garbage, so the transfer
/// must be treated as corrupted.
pub fn frame_corrupted_by_flips(bytes: u64, frame: u64, flips: u32, rng: &mut SimRng) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn flips_are_detected_by_the_codec() {
        // A single bit flip anywhere in an HDLC/FCS-16 frame must never be
        // silently accepted as the original payload: either the checksum
        // or the framing catches it.
        let mut rng = SimRng::seed_from_u64(42);
        let mut corrupted = 0;
        for frame in 0..200u64 {
            if frame_corrupted_by_flips(100, frame, 1, &mut rng) {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 200, "every single-bit flip must be detected");
    }
}
