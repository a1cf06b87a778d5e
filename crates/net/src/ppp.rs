//! PPP/HDLC-style framing: the byte-level encoding on the serial lines.
//!
//! Implements the framing PPP uses in asynchronous (RFC 1662) style:
//!
//! * frames delimited by the flag byte `0x7E`;
//! * payload bytes `0x7E` and `0x7D` escaped as `0x7D, byte ^ 0x20`;
//! * a 16-bit FCS (CRC-16/X.25, the PPP polynomial) appended before
//!   escaping, verified on decode.
//!
//! The codec is exercised both directly (unit + property tests) and by the
//! overhead accounting that justifies the measured-vs-line rate gap of
//! §4.3.

/// Frame delimiter.
pub(crate) const FLAG: u8 = 0x7E;
/// Escape byte.
pub(crate) const ESCAPE: u8 = 0x7D;
/// XOR applied to escaped bytes.
const ESCAPE_XOR: u8 = 0x20;

/// Initial register of the FCS-16.
pub(crate) const FCS16_INIT: u16 = 0xFFFF;

/// CRC-16/X.25 (the PPP FCS) one byte at a time: entry `i` is `i` shifted
/// through the reflected polynomial 0x8408 eight times (RFC 1662
/// Appendix C's `fcstab`).
const FCS16_TABLE: [u16; 256] = {
    let mut table = [0; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u16;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x8408
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// One byte of the FCS-16 register update.
pub(crate) fn fcs16_update(crc: u16, b: u8) -> u16 {
    (crc >> 8) ^ FCS16_TABLE[usize::from((crc as u8) ^ b)]
}

/// CRC-16/X.25 over `data`: init [`FCS16_INIT`], final XOR 0xFFFF.
pub(crate) fn fcs16(data: &[u8]) -> u16 {
    !data.iter().fold(FCS16_INIT, |crc, &b| fcs16_update(crc, b))
}

/// Whether `b` is sent as the two-byte escape `ESCAPE, b ^ 0x20`.
pub(crate) fn is_stuffed(b: u8) -> bool {
    b == FLAG || b == ESCAPE
}

/// Encode one payload into a flagged, stuffed, checksummed frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + payload.len() / 8 + 6);
    out.push(FLAG);
    let crc = fcs16(payload);
    let put_escaped = |b: u8, out: &mut Vec<u8>| {
        if is_stuffed(b) {
            out.push(ESCAPE);
            out.push(b ^ ESCAPE_XOR);
        } else {
            out.push(b);
        }
    };
    for &b in payload {
        put_escaped(b, &mut out);
    }
    // FCS transmitted LSB first, also subject to stuffing.
    put_escaped((crc & 0xFF) as u8, &mut out);
    put_escaped((crc >> 8) as u8, &mut out);
    out.push(FLAG);
    out
}

/// Errors surfaced by the streaming decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// FCS mismatch — the frame was corrupted on the wire.
    BadChecksum,
    /// A frame shorter than the 2-byte FCS.
    Truncated,
    /// An escape byte immediately followed by a flag (protocol violation).
    DanglingEscape,
    /// An escape byte immediately followed by another escape byte — a
    /// conforming encoder emits `0x7D 0x5D` for a literal `0x7D`, never
    /// `0x7D 0x7D`, so the frame is aborted rather than decoded to a
    /// silently wrong payload.
    InvalidEscape,
}

/// Incremental frame decoder: feed wire bytes in arbitrary chunks, collect
/// completed frames.
#[derive(Debug, Default)]
pub(crate) struct FrameDecoder {
    buf: Vec<u8>,
    in_frame: bool,
    escaping: bool,
}

impl FrameDecoder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feed wire bytes; returns the payloads of every frame completed by
    /// this chunk (each `Ok(payload)` or a framing error).
    ///
    /// Malformed escape sequences abort the current frame cleanly: the
    /// decoder reports the error, discards buffered bytes, and resyncs at
    /// the next flag.
    pub(crate) fn feed(&mut self, wire: &[u8]) -> Vec<Result<Vec<u8>, FrameError>> {
        let mut out = Vec::new();
        for &b in wire {
            if b == FLAG {
                if self.escaping {
                    out.push(Err(FrameError::DanglingEscape));
                    self.escaping = false;
                    self.buf.clear();
                    self.in_frame = true; // this flag also opens a new frame
                    continue;
                }
                if self.in_frame && !self.buf.is_empty() {
                    out.push(Self::close_frame(&self.buf));
                }
                self.buf.clear();
                self.in_frame = true;
                continue;
            }
            if !self.in_frame {
                continue; // garbage between frames
            }
            if self.escaping {
                if b == ESCAPE {
                    // Doubled escape: abort the frame and skip to the next
                    // flag instead of unstuffing to a corrupt payload.
                    out.push(Err(FrameError::InvalidEscape));
                    self.escaping = false;
                    self.buf.clear();
                    self.in_frame = false;
                    continue;
                }
                self.buf.push(b ^ ESCAPE_XOR);
                self.escaping = false;
            } else if b == ESCAPE {
                self.escaping = true;
            } else {
                self.buf.push(b);
            }
        }
        out
    }

    fn close_frame(buf: &[u8]) -> Result<Vec<u8>, FrameError> {
        if buf.len() < 2 {
            return Err(FrameError::Truncated);
        }
        let payload_len = buf.len() - 2;
        let received = u16::from_le_bytes([buf[payload_len], buf[payload_len + 1]]);
        let computed = fcs16(&buf[..payload_len]);
        if received != computed {
            return Err(FrameError::BadChecksum);
        }
        Ok(buf[..payload_len].to_vec())
    }
}

/// Decode a complete wire buffer into frames (convenience wrapper).
pub fn decode_frames(wire: &[u8]) -> Vec<Result<Vec<u8>, FrameError>> {
    FrameDecoder::new().feed(wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roundtrip() {
        let payload = b"hello itsy".to_vec();
        let wire = encode_frame(&payload);
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Ok(payload)]);
    }

    #[test]
    fn escapes_flag_and_escape_bytes() {
        let payload = vec![0x7E, 0x7D, 0x00, 0x7E];
        let wire = encode_frame(&payload);
        // No raw flag/escape inside the body.
        let body = &wire[1..wire.len() - 1];
        assert!(!body.contains(&FLAG));
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Ok(payload)]);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let payload = b"data".to_vec();
        let mut wire = encode_frame(&payload);
        wire[2] ^= 0x01; // flip a payload bit
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Err(FrameError::BadChecksum)]);
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(b"one"));
        wire.extend_from_slice(&encode_frame(b"two"));
        wire.extend_from_slice(&encode_frame(b"three"));
        let frames = decode_frames(&wire);
        assert_eq!(
            frames,
            vec![
                Ok(b"one".to_vec()),
                Ok(b"two".to_vec()),
                Ok(b"three".to_vec())
            ]
        );
    }

    #[test]
    fn decoder_handles_arbitrary_chunking() {
        let payload: Vec<u8> = (0..=255).collect();
        let wire = encode_frame(&payload);
        for chunk_size in [1usize, 3, 7, 64] {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                frames.extend(dec.feed(chunk));
            }
            assert_eq!(frames, vec![Ok(payload.clone())], "chunk {chunk_size}");
        }
    }

    #[test]
    fn garbage_between_frames_ignored() {
        let mut wire = vec![0xAA, 0xBB];
        wire.extend_from_slice(&encode_frame(b"ok"));
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Ok(b"ok".to_vec())]);
    }

    #[test]
    fn truncated_frame_reported() {
        // FLAG, one byte, FLAG: cannot hold a 2-byte FCS.
        let wire = [FLAG, 0x41, FLAG];
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Err(FrameError::Truncated)]);
    }

    #[test]
    fn dangling_escape_reported() {
        let wire = [FLAG, 0x41, ESCAPE, FLAG];
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Err(FrameError::DanglingEscape)]);
    }

    #[test]
    fn dangling_escape_then_valid_frame_resyncs() {
        let mut wire = vec![FLAG, 0x41, ESCAPE];
        wire.extend_from_slice(&encode_frame(b"after"));
        let frames = decode_frames(&wire);
        assert_eq!(
            frames,
            vec![Err(FrameError::DanglingEscape), Ok(b"after".to_vec())]
        );
    }

    #[test]
    fn doubled_escape_aborts_frame() {
        // 0x7D 0x7D on the wire is a protocol violation the old decoder
        // silently unstuffed to 0x5D; it must abort the frame instead.
        let wire = [FLAG, 0x41, ESCAPE, ESCAPE, 0x42, FLAG];
        let frames = decode_frames(&wire);
        assert_eq!(frames, vec![Err(FrameError::InvalidEscape)]);
    }

    #[test]
    fn doubled_escape_resyncs_on_next_frame() {
        let mut wire = vec![FLAG, 0x41, ESCAPE, ESCAPE, 0x42, 0x43, FLAG];
        wire.extend_from_slice(&encode_frame(b"clean"));
        let frames = decode_frames(&wire);
        // The flag closing the aborted region opens the next frame, which
        // then decodes normally.
        assert_eq!(
            frames,
            vec![Err(FrameError::InvalidEscape), Ok(b"clean".to_vec())]
        );
    }

    #[test]
    fn doubled_escape_split_across_chunks() {
        let wire = [FLAG, ESCAPE];
        let mut dec = FrameDecoder::new();
        assert!(dec.feed(&wire).is_empty());
        let frames = dec.feed(&[ESCAPE, 0x10, FLAG]);
        assert_eq!(frames, vec![Err(FrameError::InvalidEscape)]);
    }

    #[test]
    fn fcs16_known_vector() {
        // The classic PPP check value: FCS over "123456789" is 0x906E.
        assert_eq!(fcs16(b"123456789"), 0x906E);
    }

    /// Framing overhead: encoded size / payload size.
    fn overhead_ratio(payload: &[u8]) -> f64 {
        encode_frame(payload).len() as f64 / payload.len() as f64
    }

    #[test]
    fn overhead_is_small_for_typical_payloads() {
        let payload: Vec<u8> = (0..7_680u32).map(|i| (i % 251) as u8).collect();
        let ratio = overhead_ratio(&payload);
        assert!(ratio > 1.0 && ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn worst_case_overhead_doubles() {
        // All-flag payload: every byte escapes to two.
        let payload = vec![FLAG; 512];
        let ratio = overhead_ratio(&payload);
        assert!(ratio > 1.9 && ratio < 2.1, "ratio {ratio}");
        let frames = decode_frames(&encode_frame(&payload));
        assert_eq!(frames, vec![Ok(payload)]);
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized tests (deterministic: fixed seeds, no external
    //! property-testing framework).

    use super::*;
    use dles_sim::SimRng;

    fn random_bytes(rng: &mut SimRng, len: u64) -> Vec<u8> {
        (0..len).map(|_| rng.uniform_u64(0, 255) as u8).collect()
    }

    fn random_payload(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
        let len = rng.uniform_u64(0, max_len);
        random_bytes(rng, len)
    }

    /// Bytes dense in those the codec treats specially: flag, escape, and
    /// their unstuffed forms.
    fn escape_dense_bytes(rng: &mut SimRng, len: u64) -> Vec<u8> {
        (0..len)
            .map(|_| match rng.uniform_u64(0, 9) {
                0..=2 => FLAG,
                3..=5 => ESCAPE,
                6 => FLAG ^ 0x20,
                7 => ESCAPE ^ 0x20,
                _ => rng.uniform_u64(0, 255) as u8,
            })
            .collect()
    }

    fn escape_dense_payload(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
        let len = rng.uniform_u64(0, max_len);
        escape_dense_bytes(rng, len)
    }

    /// `payload` with its last byte changed so that an FCS byte is sent
    /// stuffed, when some value of that byte does so.
    fn with_stuffed_fcs(mut payload: Vec<u8>) -> Vec<u8> {
        if let Some(last) = payload.len().checked_sub(1) {
            if let Some(b) = (0..=255u8).find(|&b| {
                payload[last] = b;
                fcs16(&payload).to_le_bytes().into_iter().any(is_stuffed)
            }) {
                payload[last] = b;
            }
        }
        payload
    }

    fn flip(wire: &mut [u8], bit: u64) {
        wire[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    fn decodes_to(wire: &[u8], payload: &[u8]) -> bool {
        matches!(decode_frames(wire).as_slice(), [Ok(p)] if p == payload)
    }

    /// encode → decode recovers any payload exactly.
    #[test]
    fn prop_roundtrip() {
        let mut rng = SimRng::seed_from_u64(0x9199);
        for _ in 0..256 {
            let payload = random_payload(&mut rng, 2048);
            let frames = decode_frames(&encode_frame(&payload));
            assert_eq!(frames, vec![Ok(payload)]);
        }
    }

    /// Round-trip over payloads dense in 0x7D/0x7E, including chunked
    /// feeding so escape sequences split across chunk boundaries.
    #[test]
    fn prop_roundtrip_dense_in_escapes() {
        let mut rng = SimRng::seed_from_u64(0xE5C);
        for round in 0..256 {
            let payload = escape_dense_payload(&mut rng, 512);
            let wire = encode_frame(&payload);
            assert_eq!(
                decode_frames(&wire),
                vec![Ok(payload.clone())],
                "round {round}"
            );
            let chunk = 1 + (round % 7) as usize;
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            for c in wire.chunks(chunk) {
                frames.extend(dec.feed(c));
            }
            assert_eq!(frames, vec![Ok(payload)], "round {round} chunk {chunk}");
        }
    }

    /// Concatenated frames decode to the original sequence.
    #[test]
    fn prop_frame_sequence() {
        let mut rng = SimRng::seed_from_u64(0x5E9);
        for _ in 0..64 {
            let n = rng.uniform_u64(1, 7) as usize;
            let payloads: Vec<Vec<u8>> = (0..n)
                .map(|_| escape_dense_payload(&mut rng, 256))
                .collect();
            let mut wire = Vec::new();
            for p in &payloads {
                wire.extend_from_slice(&encode_frame(p));
            }
            let frames = decode_frames(&wire);
            let expect: Vec<_> = payloads.into_iter().map(Ok).collect();
            assert_eq!(frames, expect);
        }
    }

    /// Any single-bit corruption in the body is detected (never returns a
    /// *wrong* payload as Ok).
    #[test]
    fn prop_corruption_detected() {
        let mut rng = SimRng::seed_from_u64(0xC0);
        for _ in 0..256 {
            let mut payload = random_payload(&mut rng, 256);
            payload.resize(payload.len().max(4), 0);
            let mut wire = encode_frame(&payload);
            let body = wire.len() - 2;
            let pos = 1 + rng.uniform_u64(0, (body - 1) as u64) as usize;
            let bit = rng.uniform_u64(0, 7) as u8;
            wire[pos] ^= 1 << bit;
            for frame in decode_frames(&wire).into_iter().flatten() {
                // If a frame still decodes, it must be the original payload
                // surviving intact (e.g. a flip that only creates an extra
                // empty frame); a wrong payload passed off as valid is a
                // codec bug.
                assert_eq!(&frame, &payload);
            }
        }
    }

    /// The flip-parity rule that `fault::frame_corrupted_by_flips` relies
    /// on: a frame with a multiset of wire bits flipped decodes to
    /// `[Ok(payload)]` if and only if every bit is flipped an even number
    /// of times. Checked for every single flip and every pair of flips on
    /// short random, escape-dense and stuffed-FCS payloads, which puts
    /// flips on every flag, escape, payload and FCS bit of those frames.
    #[test]
    fn flipped_frame_decodes_iff_every_flip_is_undone() {
        const MAX_LEN: u64 = 16;
        let mut rng = SimRng::seed_from_u64(0xF11B);
        let mut stuffed_fcs = 0;
        for len in 0..=MAX_LEN {
            let random = random_bytes(&mut rng, len);
            let dense = escape_dense_bytes(&mut rng, len);
            let fcs = with_stuffed_fcs(random_bytes(&mut rng, len));
            stuffed_fcs += usize::from(fcs16(&fcs).to_le_bytes().into_iter().any(is_stuffed));
            for payload in [random, dense, fcs] {
                let mut wire = encode_frame(&payload);
                let bits = wire.len() as u64 * 8;
                for i in 0..bits {
                    flip(&mut wire, i);
                    assert!(!decodes_to(&wire, &payload), "{payload:02x?}: bit {i}");
                    for j in i..bits {
                        flip(&mut wire, j);
                        assert_eq!(
                            decodes_to(&wire, &payload),
                            i == j,
                            "{payload:02x?}: bits {i} and {j}"
                        );
                        flip(&mut wire, j);
                    }
                    flip(&mut wire, i);
                }
            }
        }
        assert!(stuffed_fcs >= MAX_LEN as usize, "{stuffed_fcs} stuffed FCS");
    }

    /// The same rule on frames up to the 10,342-byte data transfer, with
    /// seeded pairs and triples of flips aimed at flags, escapes, the FCS
    /// and anywhere else, repeats included.
    #[test]
    fn flip_parity_decides_long_frames() {
        let mut rng = SimRng::seed_from_u64(0x10_342);
        for round in 0..40 {
            let len = rng.uniform_u64(1, 10_342);
            let payload = if round % 2 == 0 {
                random_bytes(&mut rng, len)
            } else {
                escape_dense_bytes(&mut rng, len)
            };
            let mut wire = encode_frame(&payload);
            let escapes: Vec<u64> = (0..wire.len() as u64)
                .filter(|&i| wire[i as usize] == ESCAPE)
                .collect();
            let last = wire.len() as u64 - 1;
            let pick = |rng: &mut SimRng, earlier: &[u64]| -> u64 {
                let byte = match rng.uniform_u64(0, 5) {
                    0 => [0, last][rng.uniform_u64(0, 1) as usize],
                    1 => last - rng.uniform_u64(1, 4),
                    2 if !escapes.is_empty() => {
                        escapes[rng.uniform_u64(0, escapes.len() as u64 - 1) as usize]
                    }
                    3 if !earlier.is_empty() => {
                        return earlier[rng.uniform_u64(0, earlier.len() as u64 - 1) as usize]
                    }
                    _ => rng.uniform_u64(0, last),
                };
                8 * byte + rng.uniform_u64(0, 7)
            };
            for flips in [2, 3, 2, 3] {
                let mut bits = Vec::new();
                for _ in 0..flips {
                    let bit = pick(&mut rng, &bits);
                    bits.push(bit);
                }
                let undone = bits
                    .iter()
                    .all(|b| bits.iter().filter(|&c| c == b).count() % 2 == 0);
                for &b in &bits {
                    flip(&mut wire, b);
                }
                assert_eq!(
                    decodes_to(&wire, &payload),
                    undone,
                    "len {len}: bits {bits:?}"
                );
                for &b in &bits {
                    flip(&mut wire, b);
                }
            }
        }
    }
}
