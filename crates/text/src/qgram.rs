//! Q-gram tokenization.
//!
//! Follows §5.3.3 of the paper: before extracting q-grams of size `q`, every
//! whitespace run is replaced by `q-1` copies of a padding symbol (`$`), and
//! `q-1` padding symbols are also prepended and appended. This fully captures
//! word-order variations ("Department of Computer Science" vs. "Computer
//! Science Department") because every word is padded on both sides.

use crate::normalize::normalize;

/// Padding character used around words and string boundaries.
pub const PAD_CHAR: char = '$';

/// Configuration for q-gram extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QgramConfig {
    /// Gram size; the paper settles on `q = 2` (§5.3.3).
    pub q: usize,
    /// Whether to uppercase / collapse whitespace first.
    pub normalize: bool,
}

impl Default for QgramConfig {
    fn default() -> Self {
        QgramConfig { q: 2, normalize: true }
    }
}

impl QgramConfig {
    /// Create a configuration with the given gram size and normalization on.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q-gram size must be at least 1");
        QgramConfig { q, normalize: true }
    }
}

/// Expand a string into the padded character sequence that q-grams are
/// extracted from: `$^(q-1) W1 $^(q-1) W2 ... $^(q-1)` (paper Appendix A.1).
pub fn padded_chars(s: &str, config: QgramConfig) -> Vec<char> {
    let text = if config.normalize { normalize(s) } else { s.to_string() };
    let pad = config.q.saturating_sub(1);
    let mut chars: Vec<char> = Vec::with_capacity(text.len() + 4 * pad);
    chars.extend(std::iter::repeat_n(PAD_CHAR, pad));
    for ch in text.chars() {
        if ch == ' ' {
            // Whitespace is replaced by q-1 padding symbols; for q = 1 the
            // separator disappears entirely.
            chars.extend(std::iter::repeat_n(PAD_CHAR, pad));
        } else {
            chars.push(ch);
        }
    }
    chars.extend(std::iter::repeat_n(PAD_CHAR, pad));
    chars
}

/// Extract all q-grams (with multiplicity, in order) of a string.
///
/// Empty or whitespace-only strings yield a single q-gram of pure padding so
/// that every tuple has at least one token (mirroring the paper's generator,
/// which never produces empty strings, but keeps our pipeline total).
pub fn qgrams(s: &str, config: QgramConfig) -> Vec<String> {
    let mut grams = Vec::new();
    for_each_qgram(s, config, |gram| grams.push(gram.to_string()));
    grams
}

/// Call `f` on every q-gram of `s`, in the order [`qgrams`] returns them,
/// without allocating a `String` per gram: each gram is assembled in one
/// reused buffer. Tokenizers that only look grams up in a dictionary use
/// this.
pub fn for_each_qgram(s: &str, config: QgramConfig, mut f: impl FnMut(&str)) {
    let chars = padded_chars(s, config);
    let q = config.q;
    if chars.iter().all(|&c| c == PAD_CHAR) {
        // Empty / whitespace-only input: one all-padding gram.
        return f(&PAD_CHAR.to_string().repeat(q));
    }
    if chars.len() < q {
        let mut only: String = chars.iter().collect();
        while only.chars().count() < q {
            only.push(PAD_CHAR);
        }
        return f(&only);
    }
    let mut gram = String::new();
    for window in chars.windows(q) {
        gram.clear();
        gram.extend(window);
        f(&gram);
    }
}

/// Extract the distinct set of q-grams of a string (used by the overlap
/// predicates, which the paper stores de-duplicated).
pub fn qgram_set(s: &str, config: QgramConfig) -> Vec<String> {
    let mut grams = qgrams(s, config);
    grams.sort();
    grams.dedup();
    grams
}

/// Q-grams of a single word token (no inner whitespace handling), padded on
/// both sides. Used for the combination predicates' second-level
/// tokenization (Appendix A.3).
pub fn word_qgrams(word: &str, config: QgramConfig) -> Vec<String> {
    let text = if config.normalize { normalize(word) } else { word.to_string() };
    let pad: String = PAD_CHAR.to_string().repeat(config.q.saturating_sub(1));
    let padded = format!("{pad}{text}{pad}");
    let chars: Vec<char> = padded.chars().collect();
    if chars.len() < config.q {
        let mut only: String = chars.iter().collect();
        while only.chars().count() < config.q {
            only.push(PAD_CHAR);
        }
        return vec![only];
    }
    chars.windows(config.q).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_bigram() {
        let c = QgramConfig::default();
        assert_eq!(c.q, 2);
        assert!(c.normalize);
    }

    #[test]
    fn paper_example_three_grams() {
        // The paper's framework chapter tokenizes 'db lab' with 3-grams as
        // {'db ', 'b l', ' la', 'lab'} before introducing the $ padding; with
        // the padded scheme of §5.3.3 we get padded variants of those.
        let grams = qgrams("db lab", QgramConfig::new(3));
        assert!(grams.contains(&"$DB".to_string()));
        assert!(grams.contains(&"LAB".to_string()));
        assert!(grams.contains(&"AB$".to_string()));
        // Word boundary grams exist because of the $$ separator.
        assert!(grams.iter().any(|g| g.contains('$') && g.contains('L')));
    }

    #[test]
    fn bigram_counts() {
        // "AB" padded with one $ each side -> $AB$ -> 3 bigrams.
        let grams = qgrams("ab", QgramConfig::new(2));
        assert_eq!(grams, vec!["$A", "AB", "B$"]);
    }

    #[test]
    fn word_order_symmetric_padding() {
        // Because words are $-padded on both sides, the multiset of q-grams of
        // "beijing hotel" and "hotel beijing" are identical.
        let a = {
            let mut g = qgrams("beijing hotel", QgramConfig::new(2));
            g.sort();
            g
        };
        let b = {
            let mut g = qgrams("hotel beijing", QgramConfig::new(2));
            g.sort();
            g
        };
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_set_is_sorted_and_deduped() {
        let set = qgram_set("aaaa", QgramConfig::new(2));
        assert_eq!(set, vec!["$A", "A$", "AA"]);
    }

    #[test]
    fn empty_string_yields_padding_gram() {
        let grams = qgrams("", QgramConfig::new(2));
        assert_eq!(grams, vec!["$$"]);
        let grams = qgrams("   ", QgramConfig::new(3));
        assert_eq!(grams, vec!["$$$"]);
    }

    #[test]
    fn single_char_string() {
        let grams = qgrams("a", QgramConfig::new(2));
        assert_eq!(grams, vec!["$A", "A$"]);
    }

    #[test]
    fn unigram_mode_has_no_padding() {
        let grams = qgrams("ab cd", QgramConfig::new(1));
        assert_eq!(grams, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn word_qgrams_pad_single_words() {
        let grams = word_qgrams("inc", QgramConfig::new(2));
        assert_eq!(grams, vec!["$I", "IN", "NC", "C$"]);
        let grams = word_qgrams("a", QgramConfig::new(3));
        assert_eq!(grams, vec!["$$A", "$A$", "A$$"]);
    }

    #[test]
    fn multiplicity_is_preserved_by_qgrams() {
        let grams = qgrams("aaa", QgramConfig::new(2));
        assert_eq!(grams.iter().filter(|g| g.as_str() == "AA").count(), 2);
    }
}
