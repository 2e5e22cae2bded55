//! Character-level output vocabulary.
//!
//! The paper's ESPnet model is character-level (§3.1: "The character-level-
//! based E2E speech processing"). The vocabulary here matches the LibriSpeech
//! character set: the 26 letters, space, apostrophe, plus `<sos>`, `<eos>`
//! and `<unk>` specials.

/// Token id type.
pub type TokenId = usize;

/// The character vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocab {
    chars: Vec<char>,
}

/// Index of the start-of-sequence token.
pub const SOS: TokenId = 0;
/// Index of the end-of-sequence token.
pub const EOS: TokenId = 1;
/// Index of the unknown token.
pub const UNK: TokenId = 2;
/// Number of special (non-character) tokens.
const SPECIALS: usize = 3;

impl Vocab {
    /// The LibriSpeech character set.
    pub fn librispeech_chars() -> Self {
        let mut chars = vec![' ', '\''];
        chars.extend('A'..='Z');
        Vocab { chars }
    }

    /// Total vocabulary size including specials.
    pub fn size(&self) -> usize {
        SPECIALS + self.chars.len()
    }

    /// Token id for a character, or `UNK`.
    pub fn encode_char(&self, c: char) -> TokenId {
        let c = c.to_ascii_uppercase();
        self.chars.iter().position(|&x| x == c).map(|i| i + SPECIALS).unwrap_or(UNK)
    }

    /// Encode a string to `<sos> chars... <eos>`.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(text.len() + 2);
        out.push(SOS);
        out.extend(text.chars().map(|c| self.encode_char(c)));
        out.push(EOS);
        out
    }

    /// Decode ids back to text; specials are dropped, `UNK` becomes `¿`.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        ids.iter()
            .filter_map(|&id| match id {
                SOS | EOS => None,
                UNK => Some('¿'),
                _ => self.chars.get(id - SPECIALS).copied(),
            })
            .collect()
    }

    /// True when the id is a real character (not a special).
    pub fn is_char(&self, id: TokenId) -> bool {
        (SPECIALS..self.size()).contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_31() {
        // 3 specials + space + apostrophe + 26 letters
        assert_eq!(Vocab::librispeech_chars().size(), 31);
    }

    #[test]
    fn roundtrip_simple_text() {
        let v = Vocab::librispeech_chars();
        let ids = v.encode("HELLO WORLD");
        assert_eq!(ids[0], SOS);
        assert_eq!(*ids.last().unwrap(), EOS);
        assert_eq!(v.decode(&ids), "HELLO WORLD");
    }

    #[test]
    fn lowercase_is_uppercased() {
        let v = Vocab::librispeech_chars();
        assert_eq!(v.decode(&v.encode("hello")), "HELLO");
    }

    #[test]
    fn unknown_maps_to_unk() {
        let v = Vocab::librispeech_chars();
        assert_eq!(v.encode_char('#'), UNK);
        assert_eq!(v.decode(&[UNK]), "¿");
    }

    #[test]
    fn apostrophe_supported() {
        let v = Vocab::librispeech_chars();
        assert_eq!(v.decode(&v.encode("DON'T")), "DON'T");
    }

    #[test]
    fn is_char_excludes_specials() {
        let v = Vocab::librispeech_chars();
        assert!(!v.is_char(SOS));
        assert!(!v.is_char(EOS));
        assert!(!v.is_char(UNK));
        assert!(v.is_char(v.encode_char('A')));
        assert!(!v.is_char(v.size()));
    }
}
