//! Text analysis for full-text fields.
//!
//! A deliberately simple analyzer in the spirit of Lucene's
//! `StandardAnalyzer`: Unicode-aware word splitting, lowercasing, and
//! length capping. CJK characters are emitted as single-character tokens
//! (unigram), which is how Elasticsearch's standard analyzer handles them
//! and matches the paper's e-commerce titles (auction titles mix Chinese
//! and ASCII).

/// Tokenizer + normalizer for `Text` fields.
#[derive(Debug, Clone)]
pub struct Analyzer {
    /// Maximum token length; longer tokens are discarded (Lucene default
    /// is 255, we keep it smaller since our titles are short).
    pub max_token_len: usize,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer { max_token_len: 64 }
    }
}

/// Whether `c` is in a CJK range that should be unigram-tokenized.
fn is_cjk(c: char) -> bool {
    matches!(c as u32,
        0x4E00..=0x9FFF      // CJK Unified Ideographs
        | 0x3400..=0x4DBF    // Extension A
        | 0xF900..=0xFAFF    // Compatibility Ideographs
        | 0x3040..=0x30FF    // Hiragana + Katakana
        | 0xAC00..=0xD7AF    // Hangul syllables
    )
}

impl Analyzer {
    /// Tokenizes `text` into normalized terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for c in text.chars() {
            if is_cjk(c) {
                self.flush(&mut current, &mut tokens);
                tokens.push(c.to_string());
            } else if c.is_alphanumeric() {
                for lc in c.to_lowercase() {
                    current.push(lc);
                }
            } else {
                self.flush(&mut current, &mut tokens);
            }
        }
        self.flush(&mut current, &mut tokens);
        tokens
    }

    fn flush(&self, current: &mut String, tokens: &mut Vec<String>) {
        if !current.is_empty() {
            if current.chars().count() <= self.max_token_len {
                tokens.push(std::mem::take(current));
            } else {
                current.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        let a = Analyzer::default();
        assert_eq!(
            a.tokenize("Rust in Action, 2nd-Edition!"),
            vec!["rust", "in", "action", "2nd", "edition"]
        );
    }

    #[test]
    fn cjk_unigrams() {
        let a = Analyzer::default();
        // ASCII digits between CJK chars accumulate into one token.
        assert_eq!(
            a.tokenize("双11大促 sale"),
            vec!["双", "11", "大", "促", "sale"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        let a = Analyzer::default();
        assert!(a.tokenize("").is_empty());
        assert!(a.tokenize("!!! --- ...").is_empty());
    }

    #[test]
    fn long_tokens_dropped() {
        let a = Analyzer { max_token_len: 4 };
        assert_eq!(a.tokenize("ab abcde cd"), vec!["ab", "cd"]);
    }

    #[test]
    fn numbers_kept() {
        let a = Analyzer::default();
        assert_eq!(a.tokenize("iphone 13 pro"), vec!["iphone", "13", "pro"]);
    }

    #[test]
    fn normalize_matches_tokenization() {
        let a = Analyzer::default();
        // Query terms go through the same `tokenize` as indexed text.
        assert_eq!(a.tokenize("HardCover"), a.tokenize("HARDCOVER"));
    }
}
