//! Property tests pinning the allocation-free fingerprints to the bytes
//! they stand for: hashing a value as it is rendered must give exactly
//! the FNV-1a digest of its rendered text, so every persisted log and
//! cache key stays valid.

use hap_codec::{request_fingerprint_values, value_fingerprint, Value};
use hap_synthesis::fingerprint::{fnv1a_bytes, FNV_OFFSET};
use proptest::prelude::*;

/// SplitMix64: a small deterministic stream for building random trees.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Numbers the canonical writer treats differently: integers of every
    /// magnitude up to and past 2^53, signed zeros, fractions, extremes,
    /// and the dialect's non-finite tokens.
    fn number(&mut self) -> f64 {
        match self.below(10) {
            0 => self.below(1000) as f64,
            1 => -(self.below(1 << 53) as f64),
            2 => {
                (self.below(1 << 53) + (1 << 53)) as f64 * [1.0, 2.0, 1e10][self.below(3) as usize]
            }
            3 => {
                [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX][self.below(6) as usize]
            }
            4 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize],
            5 => self.below(1 << 20) as f64 / 1024.0,
            _ => f64::from_bits(self.next()),
        }
    }

    /// Strings mixing plain ASCII, every escaped character, other control
    /// characters and multi-byte UTF-8.
    fn string(&mut self) -> String {
        const PIECES: [&str; 12] =
            ["a", "plan", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "→", "🚀"];
        (0..self.below(8)).map(|_| PIECES[self.below(PIECES.len() as u64) as usize]).collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Num(self.number()),
            3 => Value::Str(self.string()),
            4 => Value::Arr((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Obj(
                (0..self.below(5)).map(|_| (self.string(), self.value(depth - 1))).collect(),
            ),
        }
    }
}

/// An independent reference writer: the canonical form spelled out one
/// character at a time, every number through the float formatter. The
/// codec's writer (which slices string runs and shortcuts integers) must
/// produce the same bytes.
fn reference_render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_nan() => out.push_str("NaN"),
        Value::Num(n) if *n == f64::INFINITY => out.push_str("Infinity"),
        Value::Num(n) if *n == f64::NEG_INFINITY => out.push_str("-Infinity"),
        Value::Num(n) => out.push_str(&format!("{n}")),
        Value::Str(s) => reference_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_render(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_str(k, out);
                out.push(':');
                reference_render(v, out);
            }
            out.push('}');
        }
    }
}

fn reference_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reference(v: &Value) -> String {
    let mut out = String::new();
    reference_render(v, &mut out);
    out
}

fn fnv(text: &str) -> u64 {
    fnv1a_bytes(FNV_OFFSET, text.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The writer matches the reference, and the sink-based digest
    /// equals FNV-1a over the rendered text.
    #[test]
    fn value_fingerprint_hashes_exactly_the_rendered_bytes(seed in 0u64..u64::MAX) {
        let v = Stream(seed).value(4);
        let text = v.render();
        prop_assert_eq!(&text, &reference(&v));
        prop_assert_eq!(value_fingerprint(&v), fnv(&text));
    }

    /// The request fingerprint equals FNV-1a over the three renderings
    /// joined by `|`, the definition every persisted cache key used.
    #[test]
    fn request_fingerprint_hashes_the_joined_renderings(seed in 0u64..u64::MAX) {
        let mut s = Stream(seed);
        let (g, c, o) = (s.value(4), s.value(3), s.value(2));
        let joined = format!("{}|{}|{}", reference(&g), reference(&c), reference(&o));
        prop_assert_eq!(request_fingerprint_values(&g, &c, &o), fnv(&joined));
    }

    /// Numbers render as Rust's shortest round-trip form (the integer
    /// shortcut included), and strings re-parse to themselves.
    #[test]
    fn scalars_render_canonically(seed in 0u64..u64::MAX) {
        let mut s = Stream(seed);
        let n = s.number();
        let rendered = Value::Num(n).render();
        if n.is_finite() {
            prop_assert_eq!(&rendered, &format!("{n}"));
        }
        let back = hap_codec::parse(&rendered).unwrap().as_f64().unwrap();
        prop_assert!(back.to_bits() == n.to_bits() || (n.is_nan() && back.is_nan()));
        let text = s.string();
        let v = Value::Str(text.clone());
        prop_assert_eq!(hap_codec::parse(&v.render()).unwrap(), v);
    }
}

#[test]
fn edge_numbers_render_like_the_float_formatter() {
    let limit = (1u64 << 53) as f64;
    for n in [0.0, -0.0, 1.0, -1.0, limit - 1.0, -(limit - 1.0), limit, limit + 2.0, 1e15, 1e16] {
        assert_eq!(Value::Num(n).render(), format!("{n}"), "{n:?}");
    }
}

/// Fingerprints of fixed requests, as every earlier build computed them:
/// cache keys and log checksums written before must still match.
#[test]
fn known_fingerprints_are_unchanged() {
    use hap::HapOptions;
    use hap_cluster::ClusterSpec;
    use hap_codec::{request_fingerprint, Encode};
    use hap_models::{bert_base, mlp, BertConfig, MlpConfig};

    let opts = HapOptions::default();
    let mlp_fp =
        request_fingerprint(&mlp(&MlpConfig::tiny()), &ClusterSpec::fig17_cluster(), &opts);
    let hetero = ClusterSpec::paper_heterogeneous(1);
    let bert_fp = request_fingerprint(&bert_base(&BertConfig::tiny()), &hetero, &opts);
    assert_eq!(mlp_fp, 0x7859_a282_2513_699f);
    assert_eq!(bert_fp, 0x318e_3244_085f_f303);
    assert_eq!(value_fingerprint(&hetero.encode()), 0xb9ad_ca91_1be7_336d);
}
