//! # dasp-text — string primitives for approximate selection
//!
//! Tokenization and character-level similarity primitives used by the
//! DASP predicate framework:
//!
//! * [`qgram`] — q-gram extraction with the `$`-padding scheme of §5.3.3,
//! * [`word`] — word tokenization (Appendix A.2),
//! * [`edit`] — Levenshtein edit distance and edit similarity (§3.4),
//! * [`mod@jaro`] — Jaro / Jaro-Winkler similarity (used by SoftTFIDF),
//! * [`minhash`] — min-wise independent permutations (used by GESapx),
//! * [`mod@normalize`] — case folding and whitespace normalization.

#![forbid(unsafe_code)]

pub mod edit;
pub mod jaro;
pub mod minhash;
pub mod normalize;
pub mod qgram;
pub mod word;

pub use edit::{edit_distance, edit_distance_within, edit_similarity, EditPattern};
pub use jaro::{jaro, jaro_winkler};
pub use minhash::MinHasher;
pub use normalize::normalize;
pub use qgram::{for_each_qgram, qgram_set, qgrams, word_qgrams, QgramConfig, PAD_CHAR};
pub use word::{word_token_set, word_tokens};
