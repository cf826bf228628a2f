//! A small LZ77-style byte compressor standing in for Snappy.
//!
//! The paper suspects Dropbox compresses uploads ("we suspect it applies
//! data compression (e.g., Snappy)", §IV-C) and charges CPU for it
//! (§IV-B). This module provides a fast greedy LZ77 with a 4-byte hash
//! table — the same family of algorithm as Snappy — so the Dropbox
//! baseline can both pay the compression cost and enjoy the traffic
//! savings on compressible data.
//!
//! Format (private, round-trip only): a token stream where each token
//! starts with a varint `v`; if `v & 1 == 0` it is a literal run of
//! `v >> 1` bytes that follow, otherwise a back-reference of length
//! `v >> 1` whose distance follows as a second varint. Matching is lazy
//! (one-byte lookahead), like zlib's.
//!
//! **The format and the parse are frozen.** Every wire byte count,
//! codec decision and `Cost` figure downstream (the adaptive wire
//! codec, the Dropbox baseline's traffic, the perfbench counter
//! baselines) is a function of the exact token stream, so a speed-up
//! must reproduce it byte for byte: the same 2^15-bucket hash of the
//! 4-byte word, last-position-wins buckets, a 64 KiB window, insertion
//! only at the positions the greedy walk visits, and the same one-byte
//! lazy lookahead. The tests hold a frozen copy of the original
//! compressor and assert equality against it.

use crate::cost::Cost;

const MIN_MATCH: usize = 4;
const MAX_DIST: usize = 64 * 1024;
const HASH_BITS: u32 = 15;
const TABLE_LEN: usize = 1 << HASH_BITS;

/// Table positions are stored biased by this much, so a zeroed entry
/// always lies more than [`MAX_DIST`] behind any position: an empty
/// bucket is a miss without a sentinel test.
const POS_BIAS: u32 = MAX_DIST as u32 + 1;

/// Largest input [`compress`] accepts: every biased position must fit
/// a `u32`. Callers compress chunk frames (at most `chunk_budget`) and
/// baseline files (at most 1 GiB), far below this.
pub const MAX_COMPRESS_INPUT: usize = (u32::MAX - POS_BIAS) as usize;

fn load32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4-byte window"))
}

fn load64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"))
}

fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

/// Records position `i` in its bucket and returns the distance back to
/// the position the bucket held, if that one starts with the same four
/// bytes and lies within [`MAX_DIST`].
#[inline(always)]
fn probe(table: &mut [u64; TABLE_LEN], data: &[u8], i: usize) -> Option<usize> {
    let word = load32(data, i);
    let h = hash4(word);
    let entry = table[h];
    let here = i as u32 + POS_BIAS;
    table[h] = (u64::from(word) << 32) | u64::from(here);
    let dist = here.wrapping_sub(entry as u32) as usize;
    ((entry >> 32) as u32 == word && dist <= MAX_DIST).then_some(dist)
}

/// Length of the match between `data[cand..]` and `data[i..]`
/// (`cand < i`), whose first [`MIN_MATCH`] bytes are known equal:
/// eight bytes per step, the first differing byte found from the XOR's
/// trailing zeros, then a byte tail up to the end of `data`.
fn match_len(data: &[u8], cand: usize, i: usize) -> usize {
    let n = data.len();
    let mut len = MIN_MATCH;
    while i + len + 8 <= n {
        let diff = load64(data, cand + len) ^ load64(data, i + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while i + len < n && data[cand + len] == data[i + len] {
        len += 1;
    }
    len
}

fn put_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if !literals.is_empty() {
        put_varint(out, (literals.len() as u64) << 1);
        out.extend_from_slice(literals);
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        // A continuation byte whose payload bits would be shifted past
        // bit 63 encodes a value outside u64 — malformed, not wrapped.
        if shift == 63 && byte & 0x7e != 0 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Compresses `data`, charging one pass over it to `cost.bytes_compressed`.
///
/// The output is only readable by [`decompress`]; it is a traffic model,
/// not an interchange format.
///
/// # Panics
///
/// If `data` is longer than [`MAX_COMPRESS_INPUT`].
pub fn compress(data: &[u8], cost: &mut Cost) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, cost, &mut out);
    out
}

/// [`compress`], appending the token stream to `out` instead of
/// returning a fresh buffer — lets the wire codec write its envelope
/// header and the compressed body into one allocation.
///
/// # Panics
///
/// If `data` is longer than [`MAX_COMPRESS_INPUT`].
pub fn compress_into(data: &[u8], cost: &mut Cost, out: &mut Vec<u8>) {
    assert!(
        data.len() <= MAX_COMPRESS_INPUT,
        "compress input of {} bytes exceeds the {MAX_COMPRESS_INPUT}-byte position range",
        data.len()
    );
    cost.bytes_compressed += data.len() as u64;
    cost.ops += 1;
    out.reserve(data.len() / 2 + 16);
    // Each bucket packs `word << 32 | (pos + POS_BIAS)`: the candidate's
    // first four bytes ride along, so a miss costs one random access and
    // never touches `data` at the candidate.
    let mut buckets = vec![0u64; TABLE_LEN];
    let table: &mut [u64; TABLE_LEN] = buckets
        .as_mut_slice()
        .try_into()
        .expect("table has TABLE_LEN buckets");
    let n = data.len();
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let Some(mut dist) = probe(table, data, i) else {
            i += 1;
            continue;
        };
        let mut len = match_len(data, i - dist, i);
        // Lazy evaluation: a longer match starting one byte later wins;
        // the current byte joins the literal run. The probe at `i + 1`
        // records that position whether or not its match is taken.
        let next = i + 1;
        if next + MIN_MATCH <= n {
            if let Some(dist2) = probe(table, data, next) {
                let len2 = match_len(data, next - dist2, next);
                if len2 > len + 1 {
                    i = next;
                    len = len2;
                    dist = dist2;
                }
            }
        }
        put_literals(out, &data[literal_start..i]);
        put_varint(out, ((len as u64) << 1) | 1);
        put_varint(out, dist as u64);
        i += len;
        literal_start = i;
    }
    put_literals(out, &data[literal_start..]);
}

/// Hard ceiling on [`decompress`]'s output. A malformed token stream can
/// declare astronomically long back-references with a handful of input
/// bytes; without a ceiling, decompression of untrusted input is an
/// allocation bomb. Callers that know the expected size should prefer
/// [`decompress_limited`], which enforces it exactly.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Decompresses a buffer produced by [`compress`].
///
/// Returns `None` if the input is malformed or the output would exceed
/// [`MAX_DECOMPRESSED`]. Never panics or over-allocates on untrusted
/// input: every length is bounds-checked with overflow-safe arithmetic
/// before any byte is produced.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    decompress_limited(data, MAX_DECOMPRESSED)
}

/// Decompresses a buffer produced by [`compress`], refusing to produce
/// more than `max_len` output bytes.
///
/// This is the entry point for wire-facing callers: a codec-tagged chunk
/// frame carries its raw length, so the receiver passes it here and a
/// frame whose token stream tries to inflate past the declared size is
/// rejected as malformed instead of ballooning memory.
pub fn decompress_limited(data: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    decompress_append(data, max_len, &mut out)?;
    Some(out)
}

/// Decompresses a buffer produced by [`compress`] onto the end of
/// `out`, producing at most `max_len` bytes; returns how many it
/// produced.
///
/// Back-references reach only bytes produced by this call, never the
/// bytes `out` held before it. Capacity is reserved in proportion to
/// `data` (at most `max_len`), never to `max_len` alone, so an
/// untrusted cap cannot force an allocation. On malformed input
/// returns `None` and truncates `out` back to its length on entry.
pub fn decompress_append(data: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<usize> {
    let start = out.len();
    out.reserve(data.len().min(max_len).saturating_mul(2).min(max_len));
    let produced = inflate(data, max_len, out, start);
    if produced.is_none() {
        out.truncate(start);
    }
    produced
}

fn inflate(data: &[u8], max_len: usize, out: &mut Vec<u8>, start: usize) -> Option<usize> {
    let mut pos = 0usize;
    while pos < data.len() {
        let token = get_varint(data, &mut pos)?;
        let len = usize::try_from(token >> 1).ok()?;
        let produced = out.len() - start;
        if produced.checked_add(len)? > max_len {
            return None;
        }
        if token & 1 == 0 {
            let end = pos.checked_add(len)?;
            if end > data.len() {
                return None;
            }
            out.extend_from_slice(&data[pos..end]);
            pos = end;
        } else {
            let dist = usize::try_from(get_varint(data, &mut pos)?).ok()?;
            if dist == 0 || dist > produced {
                return None;
            }
            // Overlapping copies are valid LZ77 (run-length encoding).
            // The output is periodic with period `dist` from `src` on,
            // so each round re-copies everything from `src` to the
            // current end — a whole number of periods — doubling the
            // run until `len` bytes are out.
            let src = out.len() - dist;
            let mut left = len;
            while left > 0 {
                let round = left.min(out.len() - src);
                out.extend_from_within(src..src + round);
                left -= round;
            }
        }
    }
    Some(out.len() - start)
}

/// Compresses and reports only the resulting size; convenience for traffic
/// modelling when the compressed bytes themselves are not needed.
pub fn compressed_size(data: &[u8], cost: &mut Cost) -> u64 {
    compress(data, cost).len() as u64
}

/// How many bytes [`probe_ratio`] samples at most. The probe is the cheap
/// side of a cost-benefit decision; it must stay orders of magnitude
/// cheaper than compressing the chunk it judges.
pub const PROBE_SAMPLE_BYTES: usize = 2048;

/// Estimates the achievable compression ratio (`compressed / raw`, in
/// `0.0..=1.0`) of `data` from the byte-value entropy of a strided
/// sample.
///
/// The probe reads at most [`PROBE_SAMPLE_BYTES`] bytes regardless of
/// input size: it strides evenly across the input so a file whose head
/// is text and whose tail is random is judged on both. Shannon entropy
/// of the byte histogram, divided by 8, approximates the ratio an
/// order-0 coder would reach; LZ back-references usually beat it on
/// repetitive data, which is why the adaptive controller layers an
/// observed-outcome bias on top rather than trusting the probe alone.
///
/// Deterministic: same input, same estimate — no RNG, no thread
/// dependence. Returns `1.0` (incompressible) for empty input.
pub fn probe_ratio(data: &[u8]) -> f64 {
    probe_ratio_sampled(data.len(), |i| data[i])
}

/// [`probe_ratio`] over a virtual byte string of length `len` addressed
/// by `byte_at` — lets scatter-gather callers probe a frame without
/// first concatenating its pieces.
pub fn probe_ratio_sampled(len: usize, byte_at: impl Fn(usize) -> u8) -> f64 {
    if len == 0 {
        return 1.0;
    }
    let stride = len.div_ceil(PROBE_SAMPLE_BYTES).max(1);
    let mut hist = [0u32; 256];
    let mut sampled = 0u32;
    let mut i = 0;
    while i < len {
        hist[byte_at(i) as usize] += 1;
        sampled += 1;
        i += stride;
    }
    let n = f64::from(sampled);
    let mut entropy_bits = 0.0;
    for &count in &hist {
        if count > 0 {
            let p = f64::from(count) / n;
            entropy_bits -= p * p.log2();
        }
    }
    (entropy_bits / 8.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compressor as first written (byte-at-a-time extension, one
    /// closure call per probe), frozen verbatim. The production
    /// compressor must reproduce its output byte for byte.
    mod reference {
        use crate::cost::Cost;

        const MIN_MATCH: usize = 4;
        const MAX_DIST: usize = 64 * 1024;
        const HASH_BITS: u32 = 15;

        fn hash4(data: &[u8], i: usize) -> usize {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
        }

        fn put_varint(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    break;
                }
                out.push(byte | 0x80);
            }
        }

        /// Compresses `data`, charging one pass over it to `cost.bytes_compressed`.
        ///
        /// The output is only readable by [`decompress`]; it is a traffic model,
        /// not an interchange format.
        pub fn compress(data: &[u8], cost: &mut Cost) -> Vec<u8> {
            cost.bytes_compressed += data.len() as u64;
            cost.ops += 1;
            let mut out = Vec::with_capacity(data.len() / 2 + 16);
            let mut table = vec![usize::MAX; 1 << HASH_BITS];
            let mut literal_start = 0usize;
            let mut i = 0usize;

            let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
                if to > from {
                    put_varint(out, ((to - from) as u64) << 1);
                    out.extend_from_slice(&data[from..to]);
                }
            };

            // Finds the best match at `i` and records `i` in the hash table.
            let find = |table: &mut [usize], i: usize| -> Option<(usize, usize)> {
                if i + MIN_MATCH > data.len() {
                    return None;
                }
                let h = hash4(data, i);
                let candidate = table[h];
                table[h] = i;
                if candidate == usize::MAX
                    || i - candidate > MAX_DIST
                    || data[candidate..candidate + MIN_MATCH] != data[i..i + MIN_MATCH]
                {
                    return None;
                }
                let mut len = MIN_MATCH;
                while i + len < data.len() && data[candidate + len] == data[i + len] {
                    len += 1;
                }
                Some((len, i - candidate))
            };

            while i + MIN_MATCH <= data.len() {
                match find(&mut table, i) {
                    Some((mut len, mut dist)) => {
                        // Lazy evaluation: a longer match starting one byte later
                        // wins; the current byte joins the literal run.
                        if let Some((len2, dist2)) = find(&mut table, i + 1) {
                            if len2 > len + 1 {
                                i += 1;
                                len = len2;
                                dist = dist2;
                            }
                        }
                        flush_literals(&mut out, literal_start, i);
                        put_varint(&mut out, ((len as u64) << 1) | 1);
                        put_varint(&mut out, dist as u64);
                        i += len;
                        literal_start = i;
                    }
                    None => i += 1,
                }
            }
            flush_literals(&mut out, literal_start, data.len());
            out
        }
    }

    /// Deterministic test content: runs of word text, noise,
    /// single-byte runs, and copies of earlier content from distances
    /// both inside and beyond the 64 KiB window.
    fn corpus(seed: u64, len: usize) -> Vec<u8> {
        const WORDS: [&[u8]; 8] = [
            b"sync ", b"delta ", b"cloud ", b"page ", b"the ", b"write ", b"file ", b"nfs ",
        ];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let r = next();
            let run = 1 + (r >> 8) as usize % 4096;
            match r % 5 {
                0 | 4 => {
                    let end = out.len() + run;
                    while out.len() < end {
                        out.extend_from_slice(WORDS[next() as usize % WORDS.len()]);
                    }
                }
                1 => out.extend((0..run).map(|_| next() as u8)),
                2 => out.resize(out.len() + run * 4, (r >> 40) as u8),
                _ if !out.is_empty() => {
                    let dist = 1 + (next() as usize) % out.len().min(3 * MAX_DIST);
                    let from = out.len() - dist;
                    for k in 0..run {
                        out.push(out[from + k]);
                    }
                }
                _ => out.push(r as u8),
            }
        }
        out.truncate(len);
        out
    }

    /// Asserts the identity contract on one input: the same bytes and
    /// the same `Cost` charge as the frozen reference, and an exact
    /// round trip under the tightest cap.
    fn assert_identical(data: &[u8]) {
        let mut cost = Cost::new();
        let mut ref_cost = Cost::new();
        let out = compress(data, &mut cost);
        let expected = reference::compress(data, &mut ref_cost);
        assert!(
            out == expected,
            "compress diverges from the reference on {} bytes",
            data.len()
        );
        assert_eq!(cost, ref_cost);
        assert_eq!(decompress_limited(&out, data.len()).as_deref(), Some(data));
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn every_two_letter_input_up_to_eight_bytes_matches_the_reference() {
        for len in 0..=8usize {
            for bits in 0..1u32 << len {
                let data: Vec<u8> = (0..len).map(|k| b'a' + (bits >> k & 1) as u8).collect();
                assert_identical(&data);
            }
        }
    }

    #[test]
    fn window_edge_candidates_match_the_reference() {
        // A 4 KiB noise block repeated at exactly the window distance
        // and one byte either side of it: the distance check decides.
        let block = corpus(3, 4096).iter().map(|b| b ^ 0x5a).collect::<Vec<_>>();
        for gap in [MAX_DIST - 1, MAX_DIST, MAX_DIST + 1] {
            let mut data = block.clone();
            data.extend((0..gap - block.len()).map(|k| (k * 131 % 251) as u8));
            data.extend_from_slice(&block);
            assert_identical(&data);
        }
    }

    #[test]
    fn lazy_candidate_at_the_window_edge_matches_the_reference() {
        // At `p` a 4-byte match 99 back; at `p + 1` a 64-byte match
        // exactly `MAX_DIST` back, which the lookahead must still take.
        let block: Vec<u8> = corpus(5, 64).iter().map(|b| b ^ 0xa5).collect();
        let p = MAX_DIST - 1;
        let mut data = block.clone();
        data.resize(p, 0);
        data[p - 99..p - 94].copy_from_slice(&[0x7e, block[0], block[1], block[2], !block[3]]);
        data.push(0x7e);
        data.extend_from_slice(&block);
        assert_identical(&data);
    }

    #[test]
    fn golden_digest_of_a_one_mib_corpus() {
        let data = corpus(2017, 1 << 20);
        let mut cost = Cost::new();
        let out = compress(&data, &mut cost);
        assert_eq!((out.len(), fnv1a(&out)), GOLDEN);
        assert_identical(&data);
        // One pass charged, one op, nothing else.
        let mut expected = Cost::new();
        expected.bytes_compressed = 1 << 20;
        expected.ops = 1;
        assert_eq!(cost, expected);
    }

    /// Compressed length and FNV-1a digest of `compress(corpus(2017,
    /// 1 MiB))`, recorded from the reference compressor.
    const GOLDEN: (usize, u64) = (268_196, 0x42D7_DC3F_5E16_3767);

    #[test]
    fn decompress_append_keeps_the_prefix_and_its_own_window() {
        let data = b"abcabcabcabcabcabc".repeat(40);
        let compressed = compress(&data, &mut Cost::new());
        let mut out = b"prefix".to_vec();
        assert_eq!(
            decompress_append(&compressed, data.len(), &mut out),
            Some(data.len())
        );
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &data[..]);
        // A back-reference into the caller's prefix is malformed, and a
        // failed call leaves `out` as it found it.
        let mut out = b"prefix".to_vec();
        assert_eq!(decompress_append(&[0x09, 0x03], 64, &mut out), None);
        assert_eq!(out, b"prefix");
        let mut out = b"prefix".to_vec();
        assert_eq!(
            decompress_append(&compressed, data.len() - 1, &mut out),
            None
        );
        assert_eq!(out, b"prefix");
    }

    #[test]
    fn overlapping_match_copies_every_period_length() {
        // Seed `dist` bytes, then one back-reference of `len` at `dist`:
        // the round-based copy must equal the byte-at-a-time definition.
        for dist in 1..=9usize {
            for len in 0..=40usize {
                let seed: Vec<u8> = (0..dist as u8).map(|k| b'A' + k).collect();
                let mut stream = Vec::new();
                put_varint(&mut stream, (dist as u64) << 1);
                stream.extend_from_slice(&seed);
                put_varint(&mut stream, ((len as u64) << 1) | 1);
                put_varint(&mut stream, dist as u64);
                let mut expected = seed.clone();
                for k in 0..len {
                    expected.push(expected[k]);
                }
                assert_eq!(decompress(&stream), Some(expected), "dist {dist} len {len}");
            }
        }
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let compressed = compress(data, &mut Cost::new());
        let restored = decompress(&compressed).expect("decompression failed");
        assert_eq!(restored, data);
        compressed
    }

    #[test]
    fn empty_and_tiny() {
        assert!(roundtrip(b"").is_empty());
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data = b"hello world ".repeat(1000);
        let compressed = roundtrip(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "compressed {} of {}",
            compressed.len(),
            data.len()
        );
    }

    #[test]
    fn random_data_does_not_explode() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let compressed = roundtrip(&data);
        // Worst case adds only token framing overhead.
        assert!(compressed.len() < data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn run_length_overlapping_match() {
        let data = vec![7u8; 10_000];
        let compressed = roundtrip(&data);
        assert!(compressed.len() < 100);
    }

    #[test]
    fn text_like_content_compresses_about_2x_or_more() {
        let words = [
            "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
        ];
        let mut state = 9u64;
        let mut text = String::new();
        while text.len() < 100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            text.push_str(words[(state >> 33) as usize % words.len()]);
            text.push(' ');
        }
        let compressed = roundtrip(text.as_bytes());
        assert!(compressed.len() * 2 < text.len());
    }

    #[test]
    fn malformed_inputs_return_none() {
        // Literal run of 5 with only 1 byte present.
        assert!(decompress(&[0x0a, b'a']).is_none());
        // Match of len 2 with dist 9 into an empty output.
        assert!(decompress(&[0x05, 0x09]).is_none());
        // Truncated varint.
        assert!(decompress(&[0x80]).is_none());
        // Match token missing its distance varint.
        assert!(decompress(&[0x05]).is_none());
    }

    #[test]
    fn cost_charged_once_per_pass() {
        let mut cost = Cost::new();
        compressed_size(&vec![0u8; 1234], &mut cost);
        assert_eq!(cost.bytes_compressed, 1234);
    }

    #[test]
    fn zero_and_one_byte_inputs_never_panic() {
        assert_eq!(decompress(&[]), Some(Vec::new()));
        // Every single-byte input is either a valid empty-literal token
        // or malformed — never a panic.
        for b in 0..=255u8 {
            let _ = decompress(&[b]);
        }
        // A literal run of 0 bytes decodes to nothing.
        assert_eq!(decompress(&[0x00]), Some(Vec::new()));
    }

    #[test]
    fn truncated_tokens_are_rejected() {
        let data = b"hello world hello world hello world ".repeat(50);
        let full = compress(&data, &mut Cost::new());
        // Every proper prefix either decodes to a prefix-consistent
        // output or is rejected; it must never panic. Prefixes that cut
        // a token mid-varint or mid-literal must return None.
        for cut in 0..full.len() {
            let _ = decompress(&full[..cut]);
        }
        // Explicit truncations: literal promising more bytes than remain,
        // and a match token whose distance varint is missing.
        assert!(decompress(&[0x0a, b'a']).is_none());
        assert!(decompress(&[0x05]).is_none());
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // Ten continuation bytes push past 63 bits of shift.
        let overlong = [0xff; 10];
        assert!(decompress(&overlong).is_none());
        // Exactly at the boundary: a 10th byte with any bit above the
        // 64th set is malformed, not silently wrapped.
        let mut edge = [0x80u8; 10];
        edge[9] = 0x02;
        assert!(decompress(&edge).is_none());
    }

    #[test]
    fn giant_declared_match_cannot_balloon_memory() {
        // A back-reference declaring a near-u64::MAX length with dist 1:
        // two literal bytes then the bomb token. Must be rejected by the
        // output ceiling without allocating the declared length.
        let mut bomb = vec![0x04, b'a', b'b'];
        put_varint(&mut bomb, (u64::MAX >> 1 << 1) | 1); // match, huge len
        put_varint(&mut bomb, 1); // dist 1
        assert!(decompress(&bomb).is_none());
        assert!(decompress_limited(&bomb, 1 << 16).is_none());
    }

    #[test]
    fn decompress_limited_enforces_the_exact_cap() {
        let data = b"abcdabcdabcdabcd".repeat(64);
        let compressed = compress(&data, &mut Cost::new());
        assert_eq!(
            decompress_limited(&compressed, data.len()),
            Some(data.clone())
        );
        assert!(decompress_limited(&compressed, data.len() - 1).is_none());
        assert!(decompress_limited(&compressed, 0).is_none());
    }

    #[test]
    fn fuzz_random_inputs_never_panic_and_respect_the_limit() {
        // Fuzz-style sweep: decompress arbitrary byte soup at many
        // lengths. The property is total safety — no panic, no output
        // beyond the declared cap — not any particular decode result.
        let mut state = 0x123456789abcdef0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..500 {
            let len = (round * 7) % 257;
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            if let Some(out) = decompress_limited(&buf, 4096) {
                assert!(out.len() <= 4096);
            }
        }
    }

    mod prop {
        use super::super::*;
        use super::corpus;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Decompression is total over arbitrary byte soup: never a
            // panic, and any accepted output honors the caller's cap.
            #[test]
            fn decompress_is_total_on_random_bytes(
                data in proptest::collection::vec(any::<u8>(), 0..512),
                cap in 0usize..8192,
            ) {
                if let Some(out) = decompress_limited(&data, cap) {
                    prop_assert!(out.len() <= cap);
                }
            }

            // The identity contract: the production compressor emits the
            // reference's bytes and charges the same cost, on tiny
            // inputs, mixed text/noise, long runs, inputs past the
            // window, matches ending at the buffer's last byte, and
            // full 256 KiB frames.
            #[test]
            fn compress_matches_the_frozen_reference(
                seed in any::<u64>(),
                shape in 0usize..6,
                size in 0usize..1 << 16,
            ) {
                let data = match shape {
                    0 => corpus(seed, size % 9),
                    1 => corpus(seed, size % (16 << 10)),
                    2 => {
                        let mut d = corpus(seed, 64);
                        d.resize(64 + size * 2, seed as u8);
                        d.extend_from_slice(&corpus(seed ^ 1, 64));
                        d.resize(d.len() + size % 4099, (seed >> 8) as u8);
                        d
                    }
                    3 => corpus(seed, MAX_DIST + 1 + size * 2),
                    4 => {
                        // A tail that repeats earlier bytes up to the very
                        // end, at every length mod 8.
                        let mut d = corpus(seed, 512 + size % 4096);
                        let tail = MIN_MATCH + size % 61;
                        let from = (seed as usize) % (d.len() - tail);
                        d.extend_from_within(from..from + tail);
                        d
                    }
                    _ => corpus(seed, 256 << 10),
                };
                super::assert_identical(&data);
            }

            // Real compressor output always round-trips exactly, and the
            // tight cap (exactly the original length) is sufficient.
            #[test]
            fn roundtrip_any_buffer(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
            ) {
                let compressed = compress(&data, &mut Cost::new());
                let restored = decompress_limited(&compressed, data.len());
                prop_assert_eq!(restored, Some(data));
            }
        }
    }

    #[test]
    fn probe_separates_text_from_noise() {
        let text = b"the quick brown fox jumps over the lazy dog ".repeat(200);
        let mut state = 7u64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let rt = probe_ratio(&text);
        let rn = probe_ratio(&noise);
        assert!(rt < 0.65, "text probe {rt}");
        assert!(rn > 0.9, "noise probe {rn}");
        assert_eq!(probe_ratio(&[]), 1.0);
        // The sampled variant over the same bytes agrees.
        assert_eq!(rt, probe_ratio_sampled(text.len(), |i| text[i]));
    }
}
