//! Tabled rANS (range asymmetric numeral system) entropy coding for
//! pool-index streams.
//!
//! Fixed-width indices spend a whole number of bits on every index,
//! whatever the layer's histogram; a tabled ANS coder spends fractional
//! bits per symbol under that histogram, which reaches the per-layer
//! entropy bound for any histogram shape, below 1 bit per index included.
//! The codec here is the classic byte-renormalized rANS:
//!
//! * Symbol frequencies are normalized so they sum to `1 << ANS_SCALE_BITS`
//!   (every occurring symbol keeps frequency >= 1), and the normalized
//!   table ships with the layer (it doubles as the decode table seed).
//! * The encoder runs over the symbols in reverse with a `u32` state
//!   seeded at [`ANS_LOWER_BOUND`], emitting renormalization bytes; the
//!   stream stores the final state first (4 bytes LE) followed by the
//!   renormalization bytes in decode order, so the decoder reads strictly
//!   forward — which is what lets truncation surface as a typed error the
//!   moment the stream runs dry.
//! * The decoder rebuilds a `slot -> symbol` table of `1 << ANS_SCALE_BITS`
//!   entries (4 KiB) per layer and checks that the state returns to
//!   [`ANS_LOWER_BOUND`] with no bytes left over after the last symbol, so
//!   a corrupted-but-CRC-colliding stream still fails loudly.

use super::codec::CodecError;

/// log2 of the frequency-table denominator (the "precision" of the
/// normalized histogram). 12 bits keeps the decode table at 4 KiB while
/// quantizing probabilities finely enough that the coded size stays
/// within a fraction of a percent of the entropy bound for the stream
/// lengths bundles carry.
pub const ANS_SCALE_BITS: u32 = 12;

/// The frequency-table denominator: normalized frequencies sum to this.
pub const ANS_TOTAL: u32 = 1 << ANS_SCALE_BITS;

/// Lower bound of the encoder/decoder state interval
/// `[ANS_LOWER_BOUND, ANS_LOWER_BOUND << 8)`.
pub const ANS_LOWER_BOUND: u32 = 1 << 23;

/// Normalizes a byte-symbol histogram into frequencies summing to
/// [`ANS_TOTAL`], truncated after the last occurring symbol. Every
/// occurring symbol keeps a frequency of at least 1 (so it stays
/// codable); zero-count symbols get 0. Returns `None` for an empty
/// histogram — there is nothing to code.
pub fn normalize_freqs(hist: &[u64; 256]) -> Option<Vec<u16>> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let last = hist.iter().rposition(|&c| c > 0).expect("total > 0");
    let mut freqs: Vec<u32> = hist[..=last]
        .iter()
        .map(|&c| {
            if c == 0 {
                0
            } else {
                // Round to nearest, clamped to >= 1 so the symbol stays
                // representable even when its true probability rounds to 0.
                (((c as u128 * u128::from(ANS_TOTAL)) + u128::from(total) / 2) / u128::from(total))
                    .max(1) as u32
            }
        })
        .collect();
    // Rounding drift: nudge the sum back to exactly ANS_TOTAL, always
    // adjusting the most frequent symbols (they absorb the error with the
    // least relative distortion) and never pushing a frequency below 1.
    let mut sum: u32 = freqs.iter().sum();
    while sum != ANS_TOTAL {
        if sum < ANS_TOTAL {
            let max = freqs
                .iter()
                .enumerate()
                .max_by_key(|&(_, &f)| f)
                .map(|(i, _)| i)
                .expect("non-empty");
            freqs[max] += ANS_TOTAL - sum;
            sum = ANS_TOTAL;
        } else {
            let over = sum - ANS_TOTAL;
            let victim = freqs
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f > 1)
                .max_by_key(|&(_, &f)| f)
                .map(|(i, _)| i)
                .expect("sum > ANS_TOTAL >= symbol count implies a freq > 1");
            let cut = over.min(freqs[victim] - 1);
            freqs[victim] -= cut;
            sum -= cut;
        }
    }
    Some(freqs.iter().map(|&f| f as u16).collect())
}

/// Validates a frequency table read off the wire: 1..=256 entries,
/// every entry <= [`ANS_TOTAL`], summing to exactly [`ANS_TOTAL`].
pub fn validate_freqs(freqs: &[u16]) -> Result<(), CodecError> {
    if freqs.is_empty() || freqs.len() > 256 {
        return Err(CodecError::Malformed(format!(
            "ans frequency table has {} entries",
            freqs.len()
        )));
    }
    let sum: u64 = freqs.iter().map(|&f| u64::from(f)).sum();
    if sum != u64::from(ANS_TOTAL) {
        return Err(CodecError::Malformed(format!(
            "ans frequency table sums to {sum}, expected {ANS_TOTAL}"
        )));
    }
    Ok(())
}

/// Cumulative-frequency starts: `cum[s]` is the first state slot owned by
/// symbol `s`.
fn cumulative(freqs: &[u16]) -> Vec<u32> {
    let mut cum = Vec::with_capacity(freqs.len());
    let mut acc = 0u32;
    for &f in freqs {
        cum.push(acc);
        acc += u32::from(f);
    }
    cum
}

/// Encodes `symbols` under the normalized table `freqs`.
///
/// # Panics
///
/// Panics (debug) if a symbol falls outside the table or has zero
/// frequency; callers derive `freqs` from the same stream's histogram via
/// [`normalize_freqs`], which makes that impossible.
pub fn encode(symbols: &[u8], freqs: &[u16]) -> Vec<u8> {
    let cum = cumulative(freqs);
    let mut renorm = Vec::with_capacity(symbols.len() / 2 + 8);
    let mut x = ANS_LOWER_BOUND;
    for &s in symbols.iter().rev() {
        let f = u32::from(freqs[s as usize]);
        debug_assert!(f > 0, "symbol {s} has zero frequency");
        // Renormalize so the encode step keeps x inside the interval.
        let x_max = ((ANS_LOWER_BOUND >> ANS_SCALE_BITS) << 8) * f;
        while x >= x_max {
            renorm.push(x as u8);
            x >>= 8;
        }
        x = ((x / f) << ANS_SCALE_BITS) + (x % f) + cum[s as usize];
    }
    // Final state first (the decoder's seed), then the renormalization
    // bytes reversed into forward decode order.
    let mut out = Vec::with_capacity(4 + renorm.len());
    out.extend_from_slice(&x.to_le_bytes());
    out.extend(renorm.iter().rev());
    out
}

/// Decodes `count` symbols from `stream` under the table `freqs`,
/// appending them to `out` (which callers preallocate).
///
/// # Errors
///
/// [`CodecError::Truncated`] when the stream runs dry mid-symbol and
/// [`CodecError::Malformed`] when the final state or stream length is
/// wrong — a partial or corrupted stream never yields symbols silently.
pub fn decode_into(
    stream: &[u8],
    freqs: &[u16],
    count: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let cum = cumulative(freqs);
    // slot -> symbol lookup: 4 KiB, rebuilt per layer (the "tabled" part).
    let mut slot_to_sym = vec![0u8; ANS_TOTAL as usize];
    for (s, &f) in freqs.iter().enumerate() {
        let start = cum[s] as usize;
        slot_to_sym[start..start + f as usize].fill(s as u8);
    }
    let state_bytes = stream
        .get(..4)
        .ok_or(CodecError::Truncated("ans state"))?
        .try_into()
        .expect("4-byte slice");
    let mut x = u32::from_le_bytes(state_bytes);
    if !(ANS_LOWER_BOUND..ANS_LOWER_BOUND << 8).contains(&x) {
        return Err(CodecError::Malformed(format!("ans state {x:#x} outside the coder interval")));
    }
    let mut pos = 4usize;
    for _ in 0..count {
        let slot = x & (ANS_TOTAL - 1);
        let s = slot_to_sym[slot as usize];
        x = u32::from(freqs[s as usize]) * (x >> ANS_SCALE_BITS) + slot - cum[s as usize];
        while x < ANS_LOWER_BOUND {
            let byte = *stream.get(pos).ok_or(CodecError::Truncated("ans stream"))?;
            x = (x << 8) | u32::from(byte);
            pos += 1;
        }
        out.push(s);
    }
    // The encoder seeded at ANS_LOWER_BOUND and the decoder must unwind
    // back to it exactly, with every byte consumed: anything else means
    // the stream was corrupted in a way the section CRC happened to miss
    // or the symbol count lied.
    if x != ANS_LOWER_BOUND {
        return Err(CodecError::Malformed(format!(
            "ans stream did not unwind to the seed state (ended at {x:#x})"
        )));
    }
    if pos != stream.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the ans stream",
            stream.len() - pos
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn histogram(symbols: &[u8]) -> [u64; 256] {
        let mut hist = [0u64; 256];
        for &s in symbols {
            hist[s as usize] += 1;
        }
        hist
    }

    fn round_trip(symbols: &[u8]) -> Vec<u8> {
        let freqs = normalize_freqs(&histogram(symbols)).expect("non-empty");
        validate_freqs(&freqs).expect("normalized table is valid");
        let stream = encode(symbols, &freqs);
        let mut out = Vec::with_capacity(symbols.len());
        decode_into(&stream, &freqs, symbols.len(), &mut out).expect("decode");
        out
    }

    #[test]
    fn round_trips_skewed_uniform_and_degenerate_streams() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let uniform: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..16) as u8).collect();
        assert_eq!(round_trip(&uniform), uniform);

        let skewed: Vec<u8> = (0..4096)
            .map(|_| {
                let mut v = rng.gen_range(0..16u32);
                for _ in 0..3 {
                    v = v.min(rng.gen_range(0..16));
                }
                v as u8
            })
            .collect();
        assert_eq!(round_trip(&skewed), skewed);

        // Single-symbol stream: the most extreme histogram the normalizer
        // can see (frequency table is one entry at full scale).
        let constant = vec![7u8; 10_000];
        let freqs = normalize_freqs(&histogram(&constant)).unwrap();
        assert_eq!(freqs, {
            let mut f = vec![0u16; 8];
            f[7] = ANS_TOTAL as u16;
            f
        });
        assert_eq!(round_trip(&constant), constant);

        // Sparse symbols at both ends of the byte range.
        let mut ends = vec![0u8; 500];
        ends.extend(std::iter::repeat_n(255u8, 500));
        ends.push(128);
        assert_eq!(round_trip(&ends), ends);
    }

    #[test]
    fn coded_size_tracks_the_entropy_bound() {
        // A clearly non-geometric histogram: two heavy symbols plus a
        // light one.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let symbols: Vec<u8> = (0..20_000)
            .map(|_| match rng.gen_range(0..20) {
                0..=8 => 0u8,
                9..=17 => 1,
                _ => 2,
            })
            .collect();
        let hist = histogram(&symbols);
        let freqs = normalize_freqs(&hist).unwrap();
        let stream = encode(&symbols, &freqs);
        let entropy: f64 = {
            let total = symbols.len() as f64;
            hist.iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / total;
                    -p * p.log2()
                })
                .sum()
        };
        let coded_per_sym = stream.len() as f64 * 8.0 / symbols.len() as f64;
        assert!(
            coded_per_sym <= entropy * 1.01 + 0.01,
            "coded {coded_per_sym:.4} b/sym vs entropy {entropy:.4}"
        );
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let symbols: Vec<u8> = (0..512).map(|i| (i % 5) as u8).collect();
        let freqs = normalize_freqs(&histogram(&symbols)).unwrap();
        let stream = encode(&symbols, &freqs);
        for cut in [0, 1, 3, stream.len() / 2, stream.len() - 1] {
            let mut out = Vec::new();
            let err = decode_into(&stream[..cut], &freqs, symbols.len(), &mut out);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
        // Flipping a byte must never panic, and whatever slips past the
        // final-state check still yields exactly `count` symbols — silent
        // *content* corruption is the section CRC's job to catch, one
        // layer up (a decoder-internal check can't be exhaustive). The
        // state check should still reject the bulk of corruptions.
        let mut detected = 0usize;
        for at in 0..stream.len() {
            let mut bad = stream.clone();
            bad[at] ^= 0x41;
            let mut out = Vec::new();
            match decode_into(&bad, &freqs, symbols.len(), &mut out) {
                Ok(()) => assert_eq!(out.len(), symbols.len()),
                Err(_) => detected += 1,
            }
        }
        assert!(
            detected * 2 > stream.len(),
            "state check caught only {detected}/{} corruptions",
            stream.len()
        );
        // A count mismatch is caught by the state/trailing checks.
        let mut out = Vec::new();
        assert!(decode_into(&stream, &freqs, symbols.len() - 1, &mut out).is_err());
    }

    #[test]
    fn hostile_frequency_tables_are_rejected() {
        assert!(validate_freqs(&[]).is_err());
        assert!(validate_freqs(&vec![16u16; 257]).is_err());
        assert!(validate_freqs(&[100, 100]).is_err(), "sum far below the scale");
        let mut too_big = vec![0u16; 4];
        too_big[0] = ANS_TOTAL as u16;
        too_big[1] = 1;
        assert!(validate_freqs(&too_big).is_err(), "sum above the scale");
        let mut exact = vec![0u16; 4];
        exact[0] = (ANS_TOTAL - 5) as u16;
        exact[3] = 5;
        assert!(validate_freqs(&exact).is_ok());
    }

    #[test]
    fn normalization_keeps_every_occurring_symbol_codable() {
        // 255 rare symbols against one overwhelming one: naive rounding
        // would zero the rare ones out.
        let mut hist = [0u64; 256];
        hist[0] = 1_000_000;
        for h in hist.iter_mut().skip(1) {
            *h = 1;
        }
        let freqs = normalize_freqs(&hist).unwrap();
        assert_eq!(freqs.len(), 256);
        assert!(freqs.iter().all(|&f| f >= 1));
        assert_eq!(freqs.iter().map(|&f| u32::from(f)).sum::<u32>(), ANS_TOTAL);
    }
}
