//! Wire-format round trips: serializing a report stream, deserializing it,
//! and aggregating must produce the bit-identical estimate — reports can
//! cross process boundaries (device → collector → replay log) losslessly.
//!
//! The report structs also carry `serde` derives (via the vendored stub,
//! swap-in compatible with the real `serde`); the encoding exercised here
//! is `ldp-core`'s dependency-free line format.

use std::fmt::Debug;
use sw_ldp::cfo::hadamard::HrrReport;
use sw_ldp::cfo::olh::OlhReport;
use sw_ldp::cfo::oue::OueReport;
use sw_ldp::cfo::select::{AdaptiveOracle, AdaptiveReport};
use sw_ldp::cfo::{Grr, Hrr, Olh, Oue};
use sw_ldp::core_api::{decode_lines, encode_lines, Client, Mechanism, WireReport};
use sw_ldp::hierarchy::{HaarHrr, HaarReport, HhReport, HierarchicalHistogram};
use sw_ldp::mean::{Hybrid, HybridReport, Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::mechanism::SwMechanism;

/// Randomizes a stream, ships it through the wire format, and asserts the
/// replayed stream finalizes to the bit-identical estimate.
fn round_trip<M, F>(label: &str, mechanism: M, inputs: &[M::Input], canon: F, seed: u64)
where
    M: Mechanism,
    M::Input: Sized,
    M::Report: WireReport + PartialEq + std::fmt::Debug,
    F: Fn(&M::Output) -> Vec<f64>,
{
    let client = Client::new(&mechanism);
    let mut rng = SplitMix64::new(seed);
    let reports: Vec<M::Report> = inputs
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect();

    let text = encode_lines(&reports);
    let replayed: Vec<M::Report> = decode_lines(&text).unwrap();
    assert_eq!(replayed, reports, "{label}: reports must survive the wire");

    let original = canon(&mechanism.aggregate(&reports).unwrap());
    let decoded = canon(&mechanism.aggregate(&replayed).unwrap());
    assert_eq!(original.len(), decoded.len());
    for (i, (a, b)) in original.iter().zip(&decoded).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: estimate entry {i} changed across the wire"
        );
    }
}

fn unit_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 173) as f64 / 173.0).collect()
}

fn signed_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 29) % 201) as f64 / 100.0 - 1.0)
        .collect()
}

fn categorical_values(n: usize, d: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 11) % d).collect()
}

#[test]
fn sw_reports_round_trip() {
    round_trip(
        "SW-EMS",
        SwMechanism::ems(1.0, 24).unwrap(),
        &unit_values(2_000),
        |h| h.probs().to_vec(),
        201,
    );
}

#[test]
fn cfo_reports_round_trip() {
    round_trip(
        "GRR",
        Grr::new(16, 1.0).unwrap(),
        &categorical_values(2_000, 16),
        Clone::clone,
        202,
    );
    round_trip(
        "OLH",
        Olh::new(32, 1.0).unwrap(),
        &categorical_values(2_000, 32),
        Clone::clone,
        203,
    );
    round_trip(
        "OUE",
        Oue::new(70, 1.0).unwrap(),
        &categorical_values(2_000, 70),
        Clone::clone,
        204,
    );
    round_trip(
        "Hadamard-RR",
        Hrr::new(20, 1.0).unwrap(),
        &categorical_values(2_000, 20),
        Clone::clone,
        205,
    );
}

#[test]
fn mean_reports_round_trip() {
    round_trip(
        "PM",
        Pm::new(1.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        206,
    );
    round_trip(
        "SR",
        Sr::new(1.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        207,
    );
    round_trip(
        "Hybrid",
        Hybrid::new(2.0).unwrap(),
        &signed_values(2_000),
        |m| vec![*m],
        208,
    );
}

#[test]
fn hierarchy_reports_round_trip() {
    round_trip(
        "HaarHRR",
        HaarHrr::new(32, 1.0).unwrap(),
        &categorical_values(2_000, 32),
        Clone::clone,
        209,
    );
    round_trip(
        "HH",
        HierarchicalHistogram::new(4, 64, 1.0).unwrap(),
        &categorical_values(2_000, 64),
        |raw| raw.tree.flatten(),
        210,
    );
}

/// Tampered or truncated lines must be rejected, never silently absorbed.
#[test]
fn malformed_wire_lines_are_rejected() {
    assert!(decode_lines::<f64>("0.5\nnot-a-float\n0.25").is_err());
    assert!(decode_lines::<HhReport>("2 g 3\n2 q 3").is_err());
    assert!(
        decode_lines::<HaarReport>("1 3 0").is_err(),
        "bit must be ±1"
    );
    assert!(decode_lines::<AdaptiveReport>("o 12").is_err());
    assert!(decode_lines::<HybridReport>("p one").is_err());
    // i8::MIN has no absolute value: a bit of -128 is rejected like any
    // other non-±1 bit, never a negate overflow.
    assert!(decode_lines::<HrrReport>("0 -128").is_err());
    assert!(decode_lines::<HaarReport>("1 0 -128").is_err());
}

/// Lines outside the canonical form `encode` emits take the `str` decoder
/// and still decode: the byte-level path narrows nothing.
#[test]
fn non_canonical_lines_still_decode() {
    fn same<T: WireReport + PartialEq + Debug>(canonical: &str, variants: &[&str]) {
        let want = T::decode(canonical).unwrap();
        for line in variants {
            assert_eq!(T::decode_canonical(line.as_bytes()), None, "{line:?}");
            assert_eq!(T::decode(line).unwrap(), want, "{line:?}");
        }
    }
    same::<usize>("7", &["007", "+7"]);
    same::<OlhReport>("12 3", &["+12 3", "012 3", "12\t3", "12  3", "12\u{3000}3"]);
    same::<HrrReport>("5 -1", &["05 -1", "5\t-1", "5 -01", "5  -1"]);
    same::<HrrReport>("5 1", &["5 +1", "5 01"]);
    same::<OueReport>(
        "70 1 3f",
        &[
            "70 1 3F",
            "70 +1 3f",
            "70 0001 3f",
            "070 1 3f",
            "70 00000000000000000001 3f",
            "70\t1\u{3000}3f",
            "70 1 3f ",
        ],
    );
    same::<AdaptiveReport>("g 5", &["g  5", "g 05", "g 5 ", "g +5"]);
    same::<AdaptiveReport>("o 12 3", &["o 12\t3", "o 012 3"]);
    same::<HhReport>("2 o 12 3", &["02 o 12 3", "+2 o 12 3", "2 o 12  3"]);
    same::<HaarReport>("3 12 1", &["03 12 1", "3 12 +1", "3 12\t1"]);
}

/// Encoded report lines from `mechanism` over `inputs`.
fn encoded_lines<M>(mechanism: &M, inputs: &[M::Input], seed: u64) -> Vec<String>
where
    M: Mechanism,
    M::Input: Sized,
    M::Report: WireReport,
{
    let client = Client::new(mechanism);
    let mut rng = SplitMix64::new(seed);
    inputs
        .iter()
        .map(|v| {
            let mut line = String::new();
            client.randomize(v, &mut rng).unwrap().encode(&mut line);
            line
        })
        .collect()
}

/// Values that sit on a parse boundary of some field type.
const EDGE_FIELDS: &[&str] = &[
    "-128",
    "128",
    "-1",
    "1",
    "-0",
    "0",
    "00",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "ffffffffffffffff",
    "0ffffffffffffffff",
    "10000000000000000",
    "",
    "1e3",
    "inf",
    "NaN",
    "-0.0",
];

/// One random edit of `line`: the non-canonical and malformed shapes a
/// byte-level decoder could get wrong.
fn mutate(line: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut pick = |n: usize| (rng.next() % n.max(1) as u64) as usize;
    let mut bytes = line.to_vec();
    let at = pick(bytes.len() + 1);
    let byte_at = at.min(bytes.len().saturating_sub(1));
    let mut fields: Vec<Vec<u8>> = line.split(|&b| b == b' ').map(<[u8]>::to_vec).collect();
    let f = pick(fields.len());
    match pick(12) {
        0 if !bytes.is_empty() => bytes[byte_at] ^= 1 << pick(8),
        1 if !bytes.is_empty() => {
            bytes.remove(byte_at);
        }
        2 => bytes.insert(at, b'\t'),
        3 => {
            bytes.splice(at..at, "\u{3000}".bytes());
        }
        4 => bytes.insert(at, b'+'),
        5 => bytes.make_ascii_uppercase(),
        8 => bytes.truncate(at),
        11 if !bytes.is_empty() => {
            let alphabet = b" 09afgAF+-.\t\r";
            bytes[byte_at] = alphabet[pick(alphabet.len())];
        }
        field_edit => {
            match field_edit {
                // Leading zeros, then a run wide enough that a hex word
                // exceeds 16 digits.
                6 => {
                    fields[f].splice(0..0, std::iter::repeat_n(b'0', 1 + pick(3)));
                }
                7 => {
                    let pad = 17usize.saturating_sub(fields[f].len()) + pick(3);
                    fields[f].splice(0..0, std::iter::repeat_n(b'0', pad));
                }
                9 => {
                    let copy = fields[f].clone();
                    fields.insert(f, copy);
                }
                _ => fields[f] = EDGE_FIELDS[pick(EDGE_FIELDS.len())].as_bytes().to_vec(),
            }
            bytes = fields.join(&b' ');
        }
    }
    bytes
}

/// Decodes `bytes` through both layers of `T`'s decoder and pins them to
/// each other: no panic, the byte-level path only ever returns what the
/// `str` decoder returns, and `decode` matches `decode_text` in value and
/// error text.
fn check_both_paths<T: WireReport + PartialEq + Debug>(label: &str, bytes: &[u8]) {
    let canonical = T::decode_canonical(bytes);
    let Ok(line) = std::str::from_utf8(bytes) else {
        assert_eq!(canonical, None, "{label}: non-UTF-8 {bytes:?}");
        return;
    };
    let text = T::decode_text(line);
    if let Some(report) = &canonical {
        assert_eq!(text.as_ref().ok(), Some(report), "{label}: {line:?}");
    }
    match (T::decode(line), &text) {
        // Compared through `Debug`, so a NaN report matches itself.
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}: {line:?}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: {line:?}"),
        (a, b) => panic!("{label}: {line:?} decoded {a:?} but decode_text gave {b:?}"),
    }
}

/// Seeded byte-mutation fuzz of every family's decoder: mutated valid
/// lines must never panic, and wherever the byte-level path accepts a
/// line its report equals the `str` decoder's.
fn differential<T: WireReport + PartialEq + Debug>(label: &str, lines: &[String], canonical: bool) {
    let mut rng = SplitMix64::new(0x5eed ^ lines.len() as u64);
    for line in lines {
        assert_eq!(
            T::decode_canonical(line.as_bytes()).is_some(),
            canonical,
            "{label}: encoded line {line:?}"
        );
        check_both_paths::<T>(label, line.as_bytes());
        for _ in 0..96 {
            let mut bytes = mutate(line.as_bytes(), &mut rng);
            if rng.next().is_multiple_of(4) {
                bytes = mutate(&bytes, &mut rng);
            }
            check_both_paths::<T>(label, &bytes);
        }
    }
}

#[test]
fn byte_level_decode_agrees_with_str_decode_under_mutation() {
    let values = categorical_values(48, 1024);
    let small = |d: usize| categorical_values(48, d);
    differential::<usize>(
        "GRR",
        &encoded_lines(&Grr::new(16, 1.0).unwrap(), &small(16), 1),
        true,
    );
    differential::<OlhReport>(
        "OLH",
        &encoded_lines(&Olh::new(32, 1.0).unwrap(), &small(32), 2),
        true,
    );
    for (d, seed) in [(70, 3), (1024, 4)] {
        let oue = Oue::new(d, 1.0).unwrap();
        differential::<OueReport>("OUE", &encoded_lines(&oue, &small(d), seed), true);
    }
    // HRR and HaarHRR keep the `str` decoder only: no served workload
    // carries them.
    differential::<HrrReport>(
        "HRR",
        &encoded_lines(&Hrr::new(20, 1.0).unwrap(), &small(20), 5),
        false,
    );
    for (d, seed) in [(4, 6), (1024, 7)] {
        let oracle = AdaptiveOracle::new(d, 1.0).unwrap();
        differential::<AdaptiveReport>("adaptive", &encoded_lines(&oracle, &small(d), seed), true);
    }
    let hh = HierarchicalHistogram::new(4, 1024, 1.0).unwrap();
    differential::<HhReport>("HH", &encoded_lines(&hh, &values, 8), true);
    let haar = HaarHrr::new(32, 1.0).unwrap();
    differential::<HaarReport>("HaarHRR", &encoded_lines(&haar, &small(32), 9), false);
    // f64 families keep the `str` decoder only.
    let sw = SwMechanism::ems(1.0, 24).unwrap();
    differential::<f64>("SW", &encoded_lines(&sw, &unit_values(48), 10), false);
    let pm = Pm::new(1.0).unwrap();
    differential::<f64>("PM", &encoded_lines(&pm, &signed_values(48), 11), false);
    let hybrid = Hybrid::new(2.0).unwrap();
    differential::<HybridReport>(
        "Hybrid",
        &encoded_lines(&hybrid, &signed_values(48), 12),
        false,
    );
}

/// Edge cases pinned while writing `docs/WIRE_FORMAT.md` — the spec
/// promises exactly these behaviors.
#[test]
fn wire_spec_edge_cases() {
    // An empty stream is a valid (empty) stream, not an error.
    assert_eq!(decode_lines::<f64>("").unwrap(), Vec::<f64>::new());
    assert_eq!(encode_lines::<f64>(&[]), "");
    // Blank lines and surrounding whitespace are insignificant…
    let padded = "  0.5  \n\n\t\n0.25\n";
    assert_eq!(decode_lines::<f64>(padded).unwrap(), vec![0.5, 0.25]);
    // …and CRLF line endings decode like LF (str::lines strips \r via
    // the trim the decoder applies).
    assert_eq!(
        decode_lines::<f64>("0.5\r\n0.25\r\n").unwrap(),
        vec![0.5, 0.25]
    );
    // Special f64 values survive the shortest-round-trip rendering.
    for v in [-0.0f64, f64::MIN_POSITIVE, 5e-324, 1e308, 1.0 / 3.0] {
        let text = encode_lines(&[v]);
        let back: Vec<f64> = decode_lines(&text).unwrap();
        assert_eq!(back[0].to_bits(), v.to_bits(), "{v:e}");
    }
    // Duplicate lines are preserved, not deduplicated: the wire format
    // is a stream, and at-least-once vs exactly-once is the transport's
    // contract (see docs/OPERATIONS.md).
    let dup = "0.5\n0.5\n";
    assert_eq!(decode_lines::<f64>(dup).unwrap(), vec![0.5, 0.5]);
}

/// The same stream replayed through a second encode→decode generation is
/// byte-stable: the wire format is a fixed point after one round trip.
#[test]
fn wire_encoding_is_a_fixed_point() {
    let olh = Olh::new(16, 1.0).unwrap();
    let client = Client::new(&olh);
    let mut rng = SplitMix64::new(404);
    let reports: Vec<_> = categorical_values(200, 16)
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect();
    let first = encode_lines(&reports);
    let second = encode_lines(&decode_lines::<sw_ldp::cfo::olh::OlhReport>(&first).unwrap());
    assert_eq!(first, second);
}
