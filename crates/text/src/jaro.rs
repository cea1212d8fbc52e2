//! Jaro and Jaro-Winkler string similarity (Winkler 1999), used by the
//! SoftTFIDF combination predicate as its word-level similarity function.

/// Longest string, in bytes, the ASCII path tracks in one `u64` mask.
const MASK_BITS: usize = 64;

/// Jaro similarity between two strings in `[0, 1]`.
///
/// ASCII strings of up to 64 bytes each take an allocation-free path that
/// keeps the matched positions in `u64` masks; all other inputs go through
/// the `Vec<char>` path. Both perform the same greedy matching and the same
/// arithmetic, so the results are bit-identical.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() && a.len() <= MASK_BITS && b.len() <= MASK_BITS {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        jaro_chars(a, b)
    }
}

/// The ASCII path of [`jaro`]: byte positions are character positions, and
/// bit `i` of a mask marks position `i` as matched.
fn jaro_ascii(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = 0u64;
    let mut b_matched = 0u64;
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if b_matched & (1 << j) == 0 && cb == ca {
                a_matched |= 1 << i;
                b_matched |= 1 << j;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }

    // Walk both matched subsequences in order, lowest set bit first.
    let mut mismatched = 0usize;
    while a_matched != 0 {
        let i = a_matched.trailing_zeros() as usize;
        let j = b_matched.trailing_zeros() as usize;
        mismatched += usize::from(a[i] != b[j]);
        a_matched &= a_matched - 1;
        b_matched &= b_matched - 1;
    }
    let transpositions = mismatched / 2;

    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The general path of [`jaro`], over Unicode scalar values.
fn jaro_chars(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut a_matched = vec![false; a.len()];
    let mut matches = 0usize;

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }

    // Count transpositions between the matched subsequences.
    let a_seq: Vec<char> =
        a.iter().enumerate().filter(|(i, _)| a_matched[*i]).map(|(_, &c)| c).collect();
    let b_seq: Vec<char> =
        b.iter().enumerate().filter(|(j, _)| b_matched[*j]).map(|(_, &c)| c).collect();
    let transpositions = a_seq.iter().zip(b_seq.iter()).filter(|(x, y)| x != y).count() / 2;

    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity: boosts the Jaro score for strings sharing a
/// common prefix of up to four characters, with scaling factor `p = 0.1`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1, 4)
}

/// Jaro-Winkler with an explicit prefix scaling factor and max prefix length.
pub fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
    winkler_boost(jaro(a, b), a, b, prefix_scale, max_prefix)
}

/// Raise the Jaro score `j` of `a` and `b` by their common prefix.
fn winkler_boost(j: f64, a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
    let prefix = a.chars().zip(b.chars()).take(max_prefix).take_while(|(x, y)| x == y).count();
    let score = j + prefix as f64 * prefix_scale * (1.0 - j);
    score.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert_eq!(jaro_winkler("martha", "martha"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro("abc", ""), 0.0);
    }

    #[test]
    fn known_reference_values() {
        // Classic examples from Winkler's papers.
        assert_close(jaro("MARTHA", "MARHTA"), 0.9444);
        assert_close(jaro_winkler("MARTHA", "MARHTA"), 0.9611);
        assert_close(jaro("DIXON", "DICKSONX"), 0.7667);
        assert_close(jaro_winkler("DIXON", "DICKSONX"), 0.8133);
        assert_close(jaro("DWAYNE", "DUANE"), 0.8222);
        assert_close(jaro_winkler("DWAYNE", "DUANE"), 0.8400);
    }

    #[test]
    fn winkler_never_lower_than_jaro() {
        for (a, b) in [("stanley", "stalney"), ("beijing", "bejing"), ("group", "grop")] {
            assert!(jaro_winkler(a, b) >= jaro(a, b));
            assert!(jaro_winkler(a, b) <= 1.0);
        }
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("morgan", "mogran"), ("inc", "incorporated"), ("a", "b")] {
            assert_close(jaro(a, b), jaro(b, a));
            assert_close(jaro_winkler(a, b), jaro_winkler(b, a));
        }
    }

    #[test]
    fn prefix_boost_requires_common_prefix() {
        // No common prefix: Winkler equals Jaro.
        let a = "XAVIER";
        let b = "AVIER";
        assert_close(jaro_winkler(a, b), jaro(a, b));
    }

    #[test]
    fn single_characters() {
        assert_eq!(jaro("a", "a"), 1.0);
        assert_eq!(jaro("a", "b"), 0.0);
    }

    /// Random string over `alphabet` with `len` characters.
    fn random_string(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
    }

    /// The ASCII path must equal the `Vec<char>` path bit for bit, in both
    /// argument orders, for Jaro and for Jaro-Winkler.
    fn assert_paths_agree(a: &str, b: &str) {
        for (x, y) in [(a, b), (b, a)] {
            let j = jaro(x, y);
            assert_eq!(j.to_bits(), jaro_chars(x, y).to_bits(), "jaro({x:?}, {y:?})");
            assert_eq!(
                jaro_winkler(x, y).to_bits(),
                winkler_boost(jaro_chars(x, y), x, y, 0.1, 4).to_bits(),
                "jaro_winkler({x:?}, {y:?})"
            );
        }
    }

    #[test]
    fn ascii_path_equals_char_path() {
        let mut rng = StdRng::seed_from_u64(0x4a61726f);
        let upper: Vec<char> = ('A'..='Z').collect();
        let repeats = ['A', 'B'];
        let printable: Vec<char> = (b' '..=b'~').map(char::from).collect();
        let lengths = [0, 1, 2, 3, 7, 31, 32, 63, 64, 65, 80];
        for alphabet in [&upper[..], &repeats[..], &printable[..]] {
            for &la in &lengths {
                for &lb in &lengths {
                    let a = random_string(&mut rng, alphabet, la);
                    let b = random_string(&mut rng, alphabet, lb);
                    assert_paths_agree(&a, &b);
                }
            }
            for _ in 0..2000 {
                let len = rng.gen_range(0..=66);
                let a = random_string(&mut rng, alphabet, len);
                let len = rng.gen_range(0..=66);
                let b = random_string(&mut rng, alphabet, len);
                assert_paths_agree(&a, &b);
            }
        }
        // Runs of one repeated character stress the greedy matching window.
        for la in 0..=65 {
            for lb in [0, 1, la / 2, la, 64, 65] {
                assert_paths_agree(&"A".repeat(la), &"A".repeat(lb));
                assert_paths_agree(&"A".repeat(la), &format!("B{}", "A".repeat(lb)));
            }
        }
    }

    #[test]
    fn non_ascii_inputs_fall_back_to_the_char_path() {
        let mut rng = StdRng::seed_from_u64(7);
        let mixed = ['A', 'B', 'C', '\u{e9}', '\u{4e16}', '\u{1f600}'];
        for _ in 0..2000 {
            let len = rng.gen_range(0..=20);
            let a = random_string(&mut rng, &mixed, len);
            let len = rng.gen_range(0..=20);
            let b = random_string(&mut rng, &mixed, len);
            assert_paths_agree(&a, &b);
        }
        // Positions count characters, not bytes: "CAFÉ" is four long.
        assert_eq!(jaro("CAF\u{c9}", "CAF\u{c9}"), 1.0);
        assert_close(jaro("CAF\u{c9}", "CAFE"), jaro_chars("CAF\u{c9}", "CAFE"));
    }
}
