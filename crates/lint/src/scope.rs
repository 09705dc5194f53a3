//! `#[cfg(test)]` scope tracking over the token stream.
//!
//! The awk lint this replaces stopped scanning a file at the *first*
//! `#[cfg(test)]` line — everything after an early test module was
//! silently unchecked, and a `#[cfg(test)]` on an inner function exempted
//! the whole rest of the file. This pass instead computes an exact
//! per-token mask by attaching each `#[cfg(test)]` attribute to the item
//! that follows it and masking only that item's extent:
//!
//! * `#[cfg(test)] mod tests { … }` — masked through the matching `}`,
//!   nested modules and multiple test modules included;
//! * `#[cfg(test)] fn helper() { … }` — just that function;
//! * `#[cfg(test)] use …;` — through the `;`;
//! * `#![cfg(test)]` as an inner attribute at any point — the whole file.
//!
//! Brace matching runs on lexed tokens, so braces inside strings or
//! comments can never unbalance it.

use crate::lexer::{Token, TokenKind};

/// Returns, for every token, whether it is test-only code (covered by a
/// `#[cfg(test)]` attribute).
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !is_attr_start(tokens, i) {
            i += 1;
            continue;
        }
        // Consume the run of attributes starting here; remember whether any
        // of them is cfg(test) and whether one is an inner `#![…]` attr.
        let attrs_start = i;
        let mut saw_cfg_test = false;
        let mut inner_cfg_test = false;
        while is_attr_start(tokens, i) {
            let inner = tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct('!'));
            let (end, is_test) = scan_attr(tokens, i);
            if is_test {
                saw_cfg_test = true;
                inner_cfg_test |= inner;
            }
            i = end;
        }
        if inner_cfg_test {
            // `#![cfg(test)]`: the enclosing scope — for our purposes the
            // whole file — is test-only.
            for m in mask.iter_mut() {
                *m = true;
            }
            return mask;
        }
        if !saw_cfg_test {
            continue;
        }
        let j = item_end(tokens, i);
        for m in mask.iter_mut().take(j).skip(attrs_start) {
            *m = true;
        }
        i = j;
    }
    mask
}

/// Returns, for every token, whether it sits inside an item annotated with
/// `#[target_feature(...)]` (attribute run included). The simd rule uses
/// this to tell gated micro-kernel bodies apart from stray intrinsic calls.
pub fn target_feature_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !is_attr_start(tokens, i) {
            i += 1;
            continue;
        }
        let attrs_start = i;
        let mut saw_tf = false;
        while is_attr_start(tokens, i) {
            let (end, body) = scan_attr_body(tokens, i);
            saw_tf |= body.first() == Some(&"target_feature");
            i = end;
        }
        if !saw_tf {
            continue;
        }
        let j = item_end(tokens, i);
        for m in mask.iter_mut().take(j).skip(attrs_start) {
            *m = true;
        }
        i = j;
    }
    mask
}

/// Index one past the extent of the item starting at `i` (the first token
/// after its attributes): up to a `;` at brace depth 0 (item without body)
/// or through the matching `}` of the first `{`. A `;` inside parentheses
/// or brackets — the `[usize; 2]` of a parameter — ends nothing.
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    let mut nested = 0usize;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('(' | '[') => nested += 1,
            TokenKind::Punct(')' | ']') => nested = nested.saturating_sub(1),
            TokenKind::Punct(';') if depth == 0 && nested == 0 => {
                j += 1;
                break;
            }
            TokenKind::Punct('{') => depth += 1,
            // A close brace at depth 0 means the attribute dangled at
            // the end of a block (malformed input); stop masking there.
            TokenKind::Punct('}') if depth == 0 => break,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Is `tokens[i]` the `#` of an attribute (`#[…]` or `#![…]`)?
fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Punct('#'))
        && (tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct('['))
            || (tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct('!'))
                && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Punct('['))))
}

/// Scans the attribute starting at `i` (the `#`). Returns the index just
/// past its closing `]` and whether the attribute is exactly `cfg(test)`.
fn scan_attr(tokens: &[Token], i: usize) -> (usize, bool) {
    let (j, body) = scan_attr_body(tokens, i);
    (j, body == ["cfg", "(", "test", ")"])
}

/// Scans the attribute starting at `i` (the `#`). Returns the index just
/// past its closing `]` and the attribute's body tokens (comments skipped).
fn scan_attr_body(tokens: &[Token], i: usize) -> (usize, Vec<&str>) {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.kind == TokenKind::Punct('!')) {
        j += 1;
    }
    // tokens[j] is the `[`.
    let mut depth = 0usize;
    let mut body: Vec<&str> = Vec::new();
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ if depth > 0 && !tokens[j].is_comment() => body.push(tokens[j].text.as_str()),
            _ => {}
        }
        j += 1;
    }
    (j, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Idents in `src` that the mask marks as test code.
    fn masked_idents(src: &str) -> Vec<String> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        toks.iter()
            .zip(&mask)
            .filter(|(t, m)| **m && t.kind == TokenKind::Ident)
            .map(|(t, _)| t.text.clone())
            .collect()
    }

    #[test]
    fn code_after_early_test_module_is_unmasked() {
        // The awk-gate regression: `after` must stay lintable.
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn after() { y.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        assert!(!mask[after]);
        let t = toks.iter().position(|t| t.text == "t").unwrap();
        assert!(mask[t]);
    }

    #[test]
    fn nested_and_multiple_test_modules() {
        let src = "\
#[cfg(test)]
mod tests { mod inner { fn a() {} } }
fn live() {}
#[cfg(test)]
mod more_tests { fn b() {} }
fn live2() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"inner".to_string()));
        assert!(masked.contains(&"b".to_string()));
        assert!(!masked.contains(&"live".to_string()));
        assert!(!masked.contains(&"live2".to_string()));
    }

    #[test]
    fn cfg_test_on_inner_function_masks_only_that_function() {
        let src = "fn live() {}\n#[cfg(test)]\nfn helper() { panic!(\"x\") }\nfn live2() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"helper".to_string()));
        assert!(!masked.contains(&"live".to_string()));
        assert!(!masked.contains(&"live2".to_string()));
    }

    #[test]
    fn other_attributes_between_cfg_test_and_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn a() {} }\nfn live() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"a".to_string()));
        assert!(!masked.contains(&"live".to_string()));
    }

    #[test]
    fn bodiless_item_masks_through_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"tests".to_string()));
        assert!(!masked.contains(&"live".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nfn live() {}\n#[cfg(any(test, doc))]\nfn live2() {}";
        assert!(masked_idents(src).is_empty());
    }

    #[test]
    fn inner_attr_masks_whole_file() {
        let src = "#![cfg(test)]\nfn a() {}\nfn b() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"a".to_string()) && masked.contains(&"b".to_string()));
    }

    #[test]
    fn target_feature_mask_covers_only_the_annotated_fn() {
        let src = "\
fn plain() { before(); }
#[target_feature(enable = \"avx2\", enable = \"fma\")]
unsafe fn kernel(a: *const f32) { inner(); }
fn after() { outside(); }";
        let toks = lex(src);
        let mask = target_feature_mask(&toks);
        let at = |name: &str| toks.iter().position(|t| t.text == name).unwrap();
        assert!(mask[at("inner")]);
        assert!(mask[at("kernel")]);
        assert!(!mask[at("before")]);
        assert!(!mask[at("outside")]);
        // cfg(test) masking is unaffected by target_feature attributes.
        assert!(test_mask(&toks).iter().all(|m| !m));
    }

    #[test]
    fn array_type_in_a_signature_does_not_end_the_item() {
        let src = "#[target_feature(enable = \"avx2\")]
unsafe fn kernel(src: [usize; 2], t: &mut [[f32; 16]; 6]) { inner(); }
fn after() { outside(); }";
        let toks = lex(src);
        let mask = target_feature_mask(&toks);
        let at = |name: &str| toks.iter().position(|t| t.text == name).unwrap();
        assert!(mask[at("inner")]);
        assert!(!mask[at("outside")]);
    }

    #[test]
    fn braces_in_strings_do_not_unbalance() {
        let src = "#[cfg(test)]\nmod tests { fn a() { let s = \"}}}\"; } }\nfn live() {}";
        let masked = masked_idents(src);
        assert!(masked.contains(&"a".to_string()));
        assert!(!masked.contains(&"live".to_string()));
    }
}
