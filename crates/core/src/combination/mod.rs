//! Combination predicates (§3.5 / §4.5): GES, its filtered variants and
//! SoftTFIDF. These are the predicates that tokenize at two levels (words,
//! then q-grams of words), which is why the paper finds them the slowest to
//! preprocess and query.

pub mod ges;
pub mod ges_filter;
pub mod soft_tfidf;

pub use ges::{ges_similarity, ges_transformation_cost, WeightedWord};
