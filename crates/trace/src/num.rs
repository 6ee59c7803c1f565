//! The numbers of a trace line in the bytes `Display` gives them
//! (`format!("{v}")`), without `core::fmt`.
//!
//! Integers are written two digits per division. A float gets its
//! shortest round-trip digits from Ryū's `d2d` (Adams, PLDI 2018) and
//! `Display`'s layout: never an exponent; `ddd000`, `ddd.ddd` or
//! `0.000ddd`; `-` first when negative. The fast path takes normal
//! `f64`s with 2⁻¹²⁵ ≤ |v| < 2⁵⁴ (every float a trace carries), where
//! Ryū's multiplier is `5^i` for an `i ≤ 55`: a `u128` holds it, so a
//! 56-entry table built at compile time replaces Ryū's ≈10 KB one.
//! Zero is `0` / `-0`; subnormals and |v| ≥ 2⁵⁴ go through `Display`
//! itself; NaN and ±inf, which JSON has no number for, are `null`, as
//! the `serde_json` shim writes them. One rule departs from Ryū: a value
//! exactly halfway between two shortest candidates takes the upper one,
//! as `Display` does, where Ryū rounds to even (`1658206780088562.25`
//! is `…562.3`).

use std::io::Write as _;

/// `00`, `01`, …, `99`: the two digits of each remainder mod 100.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Biased exponents of the fast path: 2⁻¹²⁵ ≤ |v| < 2⁵⁴. Below it Ryū
/// would ask for `5^56`, past `u128`; above it, for its other branch.
const FAST: std::ops::RangeInclusive<u64> = 898..=1076;

/// Ryū's `DOUBLE_POW5_SPLIT[i]`: `5^i` scaled to 125 bits (its top bit
/// moved to bit 127, then three bits dropped), truncated where it has
/// more.
const POW5: [u128; 56] = {
    let (mut table, mut p, mut i) = ([0u128; 56], 1u128, 0);
    while i < 56 {
        table[i] = (p << p.leading_zeros()) >> 3;
        p = p.wrapping_mul(5); // 5^56 wraps, and is never read
        i += 1;
    }
    table
};

/// Append `v` in decimal. The submit ack's numbers come through here,
/// so it sits on the wire path: no panic on any `v`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    out.extend_from_slice(digits(v, &mut buf));
}

/// Append `v` as `Display` writes it, or `null` when it is not finite.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let exponent = (bits >> 52) & 0x7ff;
    if v == 0.0 {
        out.extend_from_slice(if v.is_sign_negative() { b"-0" } else { b"0" });
        return;
    }
    if exponent == 0x7ff {
        out.extend_from_slice(b"null");
        return;
    }
    if !FAST.contains(&exponent) {
        let _ = write!(out, "{v}");
        return;
    }
    if v < 0.0 {
        out.push(b'-');
    }
    let (mantissa, e10) = shortest(bits & ((1 << 52) - 1), exponent);
    let mut buf = [0u8; 20];
    let d = digits(mantissa, &mut buf);
    // How many of the digits stand before the decimal point.
    let point = d.len() as i32 + e10;
    if e10 >= 0 {
        out.extend_from_slice(d);
        out.resize(out.len() + e10 as usize, b'0');
    } else if point > 0 {
        let (whole, frac) = d.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(d);
    }
}

/// `v`'s decimal digits, written at the end of `buf`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[expect(
    clippy::indexing_slicing,
    reason = "in bounds by construction: at most ten pairs fill the 20-byte `buf`, `pair` ≤ 198"
)]
fn digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        let pair = 2 * (v % 100) as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        v /= 100;
        if v == 0 {
            break;
        }
    }
    // The leading pair of an odd digit count (or of 0) starts with a 0.
    if buf[at] == b'0' && at + 1 < buf.len() {
        at += 1;
    }
    &buf[at..]
}

/// Ryū's `d2d` for a biased exponent in [`FAST`], with the tie rule of
/// the module doc: the shortest `m` and `e10` such that `m · 10^e10`
/// reads back as the double. Ryū's care for interval bounds that are
/// exact (q ≤ 1, |v| ≥ 2⁵⁰) is left out: below 2⁵⁴ a bound v ± ulp/2
/// is an odd integer or not an integer, never a multiple of the power
/// of ten the search compares, so it cannot change the digits.
fn shortest(ieee_mantissa: u64, ieee_exponent: u64) -> (u64, i32) {
    // The value is m2 · 2^(e2 + 2), and the fast path has e2 < 0.
    let e2 = ieee_exponent as i32 - 1077;
    let m2 = (1 << 52) | ieee_mantissa;
    let mm_shift = u64::from(ieee_mantissa != 0);
    // q = max(0, ⌊-e2 · log10 5⌋ - 1), i = -e2 - q ≤ 55.
    let q = ((-e2 as u32 * 732_923) >> 20) as i32 - i32::from(e2 < -1);
    let i = -e2 - q;
    let pow5bits = ((i as u32 * 1_217_359) >> 19) as i32 + 1;
    let (mul, j) = (POW5[i as usize], q - pow5bits + 125);
    let mut vr = mul_shift(4 * m2, mul, j);
    let mut vp = mul_shift(4 * m2 + 2, mul, j);
    let mut vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
    let (mut removed, mut last) = (0, 0);
    while vp / 10 > vm / 10 {
        last = vr % 10;
        (vr, vp, vm, removed) = (vr / 10, vp / 10, vm / 10, removed + 1);
    }
    (vr + u64::from(vr == vm || last >= 5), q + e2 + removed)
}

/// `(m · mul) >> j` for a 125-bit `mul`, with 64 ≤ j < 128.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(v: f64) -> Vec<u8> {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        out
    }

    /// `Display`'s bytes, or `null` for NaN and ±inf.
    fn display(out: &mut Vec<u8>, v: f64) {
        if v.is_finite() {
            write!(out, "{v}").expect("a Vec takes every byte");
        } else {
            out.extend_from_slice(b"null");
        }
    }

    fn assert_display(v: f64) {
        let mut want = Vec::new();
        display(&mut want, v);
        assert_eq!(rendered(v), want, "bits {:#018x}", v.to_bits());
    }

    /// SplitMix64: a seeded stream of bit patterns.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `n` seeded random bit patterns against `Display`, every other one
    /// with its exponent folded into the fast path (as drawn, most fall
    /// back). Both sides write into reused buffers.
    fn differential(seed: u64, n: u64) {
        let mut rng = Bits(seed);
        let span = FAST.end() - FAST.start() + 1;
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        for k in 0..n {
            let mut bits = rng.next();
            if k % 2 == 1 {
                let exponent = FAST.start() + ((bits >> 52) & 0x7ff) % span;
                bits = (bits & !(0x7ff << 52)) | (exponent << 52);
            }
            let v = f64::from_bits(bits);
            ours.clear();
            theirs.clear();
            write_f64(&mut ours, v);
            display(&mut theirs, v);
            assert!(ours == theirs, "bits {bits:#018x}: {v}");
        }
    }

    #[test]
    fn a_million_random_bit_patterns_render_as_display_does() {
        differential(0x5eed, 1_000_000);
    }

    /// The trace's own kinds of number: short decimals (times, costs,
    /// energies — where the digit search meets exact bounds and ties),
    /// integers up to 2⁵⁴, and dyadic fractions.
    #[test]
    fn decimals_integers_and_dyadics_render_as_display_does() {
        let mut rng = Bits(7);
        for _ in 0..200_000 {
            let bits = rng.next();
            let k = (bits >> 20) as f64;
            let scale = 10f64.powi((bits % 40) as i32 - 25);
            assert_display(k * scale);
            assert_display(k / 10f64.powi((bits % 23) as i32));
            assert_display((bits >> 10) as f64);
            assert_display(-((bits >> 40) as f64) / 2f64.powi((bits % 60) as i32));
        }
        for k in 0..100_000u32 {
            assert_display(f64::from(k));
            assert_display(f64::from(k) / 1000.0);
        }
    }

    #[test]
    fn edge_values_render_as_display_does() {
        let two53 = 2f64.powi(53);
        let mut edges = vec![
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            2f64.powi(54),
            2f64.powi(54) - 2.0,
            2f64.powi(50),
            2f64.powi(50) - 0.25,
            2f64.powi(-125),
            f64::from_bits(2f64.powi(-125).to_bits() - 1),
            1e-7,
            1e15,
            1e21,
            1e22,
            1e23,
            0.1 + 0.2,
            1.0 / 3.0,
            1_658_206_780_088_562.0 + 0.25,
            f64::NAN,
            f64::INFINITY,
        ];
        edges.extend((-130..60).map(|p| 2f64.powi(p)));
        edges.extend((-40..25).map(|p| 10f64.powi(p)));
        for v in edges {
            assert_display(v);
            assert_display(-v);
            assert_display(f64::from_bits(v.to_bits().wrapping_add(1)));
            assert_display(f64::from_bits(v.to_bits().wrapping_sub(1)));
        }
        assert_eq!(rendered(-0.0), b"-0");
        assert_eq!(rendered(f64::NEG_INFINITY), b"null");
        assert_eq!(rendered(-f64::NAN), b"null");
    }

    /// `Display` rounds an exact halfway tie up; Ryū alone would round
    /// it to even and write `…562.2`.
    #[test]
    fn a_halfway_tie_rounds_up() {
        assert_eq!(
            rendered(1_658_206_780_088_562.0 + 0.25),
            b"1658206780088562.3"
        );
    }

    #[test]
    fn integers_render_as_display_does() {
        let mut rng = Bits(11);
        let mut values = vec![
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        values.extend((0..20).flat_map(|p| [10u64.pow(p) - 1, 10u64.pow(p)]));
        values.extend((0..100_000).map(|_| rng.next() >> (rng.next() % 64)));
        for v in values {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, format!("{v}").into_bytes());
        }
    }

    /// The table is Ryū's: `5^i` normalized to 125 bits.
    #[test]
    fn the_multipliers_are_five_to_the_i_in_125_bits() {
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5[1], 5 << 122);
        assert_eq!(POW5[53], 5u128.pow(53) << 1);
        assert_eq!(POW5[54], 5u128.pow(54) >> 1);
        assert_eq!(POW5[55], 5u128.pow(55) >> 3);
        assert!(POW5.iter().all(|m| 128 - m.leading_zeros() == 125));
    }

    /// 10⁸ random bit patterns, half folded into the fast path — too
    /// slow for the debug suite; `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "tens of seconds in release; run with --release -- --ignored"]
    fn a_hundred_million_random_bit_patterns_render_as_display_does() {
        differential(0xd1ff, 100_000_000);
    }
}
