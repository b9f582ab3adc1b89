//! Parse/label roundtrip properties for the voltage-policy vocabulary:
//! labels stay lossless under parsing, and parsing is case-insensitive.

use power::VoltagePolicy;
use proptest::prelude::*;

/// Applies a per-character case mask to a label, exercising arbitrary
/// mixed-case spellings.
fn mangle_case(label: &str, mask: u32) -> String {
    label
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 32) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

proptest! {
    /// Every voltage-policy label parses back to its value under any
    /// casing, and the canonical label survives a parse → label round trip
    /// unchanged (losslessness for the spec strings that embed it).
    #[test]
    fn voltage_policy_labels_roundtrip_case_insensitively(
        index in 0usize..VoltagePolicy::ALL.len(),
        mask in 0u32..u32::MAX,
    ) {
        let policy = VoltagePolicy::ALL[index];
        let mangled = mangle_case(policy.label(), mask);
        prop_assert_eq!(VoltagePolicy::parse(&mangled), Some(policy));
        let reparsed = VoltagePolicy::parse(policy.label()).unwrap();
        prop_assert_eq!(reparsed.label(), policy.label());
    }

    /// Parsing never invents values: an input that parses must equal one
    /// of the canonical labels case-insensitively.
    #[test]
    fn parse_rejects_everything_but_labels(
        chars in prop::collection::vec(0u8..53, 0..16),
    ) {
        // Alphabet [a-zA-Z-]: enough to cover labels, prefixes and junk.
        let text: String = chars
            .iter()
            .map(|&c| match c {
                0..=25 => (b'a' + c) as char,
                26..=51 => (b'A' + (c - 26)) as char,
                _ => '-',
            })
            .collect();
        if let Some(policy) = VoltagePolicy::parse(&text) {
            prop_assert!(policy.label().eq_ignore_ascii_case(&text));
        }
    }
}
