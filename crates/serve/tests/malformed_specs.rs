//! Property test: damaged campaign specs are rejected, never a crash.
//! Truncating or byte-mutating the committed golden v1 spec must make
//! `Json::parse` and `campaign_from_json` return (`Ok` or `Err`) without
//! panicking.

use loas_serve::json::Json;
use loas_serve::spec_io::campaign_from_json;
use proptest::prelude::*;

const GOLDEN_SPEC: &str = include_str!("golden/headline-v1.spec.json");

/// Bytes a mutation writes: JSON structure, escapes, digits, signs,
/// surrogate-escape material, and arbitrary (possibly non-UTF-8) bytes.
const INTERESTING: &[u8] = b"{}[],:\"\\u0123456789-+.eEdDfFtn \n\x00\x7f\xc3\xff";

fn parse_both(text: &str) {
    let _ = Json::parse(text);
    let _ = campaign_from_json(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_golden_specs_never_panic(cut in 0usize..GOLDEN_SPEC.len()) {
        parse_both(&GOLDEN_SPEC[..cut]);
    }

    #[test]
    fn mutated_golden_specs_never_panic(
        edits in proptest::collection::vec(
            (0usize..GOLDEN_SPEC.len(), 0usize..INTERESTING.len(), 0u8..3, any::<u32>()),
            1..8,
        ),
    ) {
        let mut bytes = GOLDEN_SPEC.as_bytes().to_vec();
        for (at, pick, kind, raw) in edits {
            let at = at.min(bytes.len().saturating_sub(1));
            // Every other edit writes an arbitrary byte instead of a
            // listed one.
            let byte = if raw % 2 == 0 { INTERESTING[pick] } else { (raw >> 8) as u8 };
            match kind {
                0 if !bytes.is_empty() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if !bytes.is_empty() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        parse_both(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn deep_nesting_in_a_spec_is_an_error() {
    let doc = format!("{{\"name\": \"x\", \"jobs\": {}", "[".repeat(1_000_000));
    assert!(campaign_from_json(&doc).is_err());
}
