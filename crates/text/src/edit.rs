//! Levenshtein edit distance and the edit similarity of §3.4.

/// Levenshtein edit distance between two strings (unit costs for insert,
/// delete and substitute; copy is free), computed over Unicode scalar values.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance_chars(&a, &b)
}

/// Edit distance over pre-split character slices (avoids re-collecting when
/// callers already hold `Vec<char>`).
pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Two-row dynamic program.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Banded edit distance: returns `None` when the distance exceeds `max_d`.
/// Used by the edit-based predicate after q-gram filtering, where only
/// candidates within a threshold matter.
pub fn edit_distance_within(a: &str, b: &str, max_d: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max_d {
        return None;
    }
    if a.is_empty() {
        return (b.len() <= max_d).then_some(b.len());
    }
    if b.is_empty() {
        return (a.len() <= max_d).then_some(a.len());
    }
    let inf = usize::MAX / 2;
    let mut prev: Vec<usize> = (0..=b.len()).map(|j| if j <= max_d { j } else { inf }).collect();
    let mut curr: Vec<usize> = vec![inf; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        let lo = (i + 1).saturating_sub(max_d);
        let hi = (i + 1 + max_d).min(b.len());
        curr[0] = if i < max_d { i + 1 } else { inf };
        if lo > 1 {
            curr[lo - 1] = inf;
        }
        let mut row_min = curr[0];
        for j in lo.max(1)..=hi {
            let cb = b[j - 1];
            let cost = usize::from(ca != cb);
            let del = if prev[j] < inf { prev[j] + 1 } else { inf };
            let ins = if curr[j - 1] < inf { curr[j - 1] + 1 } else { inf };
            let sub = if prev[j - 1] < inf { prev[j - 1] + cost } else { inf };
            curr[j] = del.min(ins).min(sub);
            row_min = row_min.min(curr[j]);
        }
        // Reset the cells outside the band for the next row.
        for cell in curr.iter_mut().take(lo.max(1)).skip(1) {
            *cell = inf;
        }
        for cell in curr.iter_mut().skip(hi + 1) {
            *cell = inf;
        }
        if row_min > max_d {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[b.len()];
    (d <= max_d).then_some(d)
}

/// Edit similarity (Equation 3.13): `1 - ed(Q, D) / max(|Q|, |D|)`,
/// defined as 1.0 when both strings are empty.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let max_len = la.max(lb);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b) as f64 / max_len as f64
}

/// Longest pattern, in bytes, the bit-parallel kernel holds in one `u64`.
const WORD_BITS: usize = 64;

/// One word prepared for many edit-similarity comparisons against other
/// words: the bit-parallel Levenshtein of Myers (JACM 1999), in Hyyrö's
/// formulation, with the word as the pattern. The match masks are built once
/// here, so each [`similarity`](Self::similarity) call costs one pass over
/// the other word's bytes with a handful of word operations per byte.
///
/// The kernel covers ASCII patterns of up to 64 bytes compared with ASCII
/// text of any length; every other pair goes through the scalar
/// [`edit_similarity`]. Both compute the same integer distance and the same
/// `1 - d / max_len` expression, so the results are bit-identical.
#[derive(Debug, Clone)]
pub struct EditPattern {
    word: Box<str>,
    /// Per ASCII byte, the bit set of pattern positions holding it; `None`
    /// when the pattern is non-ASCII or longer than [`WORD_BITS`].
    peq: Option<Box<[u64; 128]>>,
}

impl EditPattern {
    /// Prepare `word` as the pattern side of later comparisons.
    pub fn new(word: &str) -> Self {
        let peq = (word.is_ascii() && word.len() <= WORD_BITS).then(|| {
            let mut peq = Box::new([0u64; 128]);
            for (i, &b) in word.as_bytes().iter().enumerate() {
                peq[b as usize] |= 1 << i;
            }
            peq
        });
        EditPattern { word: word.into(), peq }
    }

    /// `edit_similarity(word, text)` for the `word` this pattern was built
    /// from, bit for bit.
    pub fn similarity(&self, text: &str) -> f64 {
        match &self.peq {
            Some(peq) if text.is_ascii() => {
                let max_len = self.word.len().max(text.len());
                if max_len == 0 {
                    return 1.0;
                }
                let d = myers_distance(peq, self.word.len(), text.as_bytes());
                1.0 - d as f64 / max_len as f64
            }
            _ => edit_similarity(&self.word, text),
        }
    }
}

/// Levenshtein distance between an ASCII pattern of `m <= 64` bytes (given
/// by its match masks) and ASCII `text`: one column of the distance matrix
/// per text byte, kept as vertical +1/-1 delta bit vectors, with the score
/// tracked at the pattern's last row.
fn myers_distance(peq: &[u64; 128], m: usize, text: &[u8]) -> usize {
    if m == 0 {
        return text.len();
    }
    let last = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for &c in text {
        let eq = peq[usize::from(c & 0x7f)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Row 0 of the matrix grows by one per text byte (global distance),
        // so a +1 horizontal delta enters at the bottom of every column.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(edit_distance("café", "cafe"), 1);
        assert_eq!(edit_distance("日本語", "日本"), 1);
    }

    #[test]
    fn similarity_bounds_and_examples() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("abc", "xyz"), 0.0);
        let s = edit_similarity("stanley", "valley");
        assert!(s > 0.0 && s < 1.0);
        // Paper §5.4.1: "Stanley" and "Valley" have low edit distance, which
        // is why edit-based predicates confuse them.
        assert!(s >= 0.5);
    }

    #[test]
    fn banded_matches_full_when_within_threshold() {
        let pairs = [("kitten", "sitting"), ("morgan", "mogran"), ("a", "abcdef"), ("abc", "abc")];
        for (a, b) in pairs {
            let full = edit_distance(a, b);
            for k in 0..=8usize {
                let banded = edit_distance_within(a, b, k);
                if full <= k {
                    assert_eq!(banded, Some(full), "{a} vs {b} k={k}");
                } else {
                    assert_eq!(banded, None, "{a} vs {b} k={k}");
                }
            }
        }
    }

    #[test]
    fn banded_empty_strings() {
        assert_eq!(edit_distance_within("", "", 0), Some(0));
        assert_eq!(edit_distance_within("", "ab", 1), None);
        assert_eq!(edit_distance_within("", "ab", 2), Some(2));
        assert_eq!(edit_distance_within("ab", "", 5), Some(2));
    }

    /// Random string over `alphabet` with `len` characters.
    fn random_string(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
    }

    /// The bit-parallel kernel must equal the scalar `1 - d / max_len`
    /// bit for bit, with either string as the pattern.
    fn assert_kernel_agrees(a: &str, b: &str) {
        for (x, y) in [(a, b), (b, a)] {
            assert_eq!(
                EditPattern::new(x).similarity(y).to_bits(),
                edit_similarity(x, y).to_bits(),
                "pattern {x:?} vs text {y:?}"
            );
        }
    }

    #[test]
    fn bit_parallel_kernel_equals_scalar_similarity() {
        let mut rng = StdRng::seed_from_u64(0x4d79657273);
        let upper: Vec<char> = ('A'..='Z').collect();
        let repeats = ['A', 'B'];
        let printable: Vec<char> = (b' '..=b'~').map(char::from).collect();
        let lengths = [0, 1, 2, 5, 31, 32, 63, 64, 65, 100];
        for alphabet in [&upper[..], &repeats[..], &printable[..]] {
            for &la in &lengths {
                for &lb in &lengths {
                    let a = random_string(&mut rng, alphabet, la);
                    let b = random_string(&mut rng, alphabet, lb);
                    assert_kernel_agrees(&a, &b);
                }
            }
            for _ in 0..2000 {
                let len = rng.gen_range(0..=70);
                let a = random_string(&mut rng, alphabet, len);
                let len = rng.gen_range(0..=70);
                let b = random_string(&mut rng, alphabet, len);
                assert_kernel_agrees(&a, &b);
            }
        }
        for la in 0..=65 {
            for lb in [0, 1, la / 2, la, 64, 65, 130] {
                assert_kernel_agrees(&"A".repeat(la), &"A".repeat(lb));
                assert_kernel_agrees(&"A".repeat(la), &"B".repeat(lb));
            }
        }
    }

    #[test]
    fn non_ascii_and_long_patterns_fall_back_to_the_scalar_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let mixed = ['A', 'B', 'C', '\u{e9}', '\u{4e16}', '\u{1f600}'];
        for _ in 0..2000 {
            let len = rng.gen_range(0..=20);
            let a = random_string(&mut rng, &mixed, len);
            let len = rng.gen_range(0..=20);
            let b = random_string(&mut rng, &mixed, len);
            assert_kernel_agrees(&a, &b);
        }
        // Lengths count characters: a 3-character, 6-byte pattern.
        assert_eq!(EditPattern::new("\u{e9}\u{e9}\u{e9}").similarity("EEE"), 0.0);
        assert!(EditPattern::new(&"A".repeat(65)).peq.is_none());
        assert!(EditPattern::new("CAF\u{c9}").peq.is_none());
        assert!(EditPattern::new(&"A".repeat(64)).peq.is_some());
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("hello", "help"), ("data", "date"), ("", "x")] {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
            assert_eq!(edit_similarity(a, b), edit_similarity(b, a));
        }
    }
}
