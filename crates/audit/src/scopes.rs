//! Brace-tracked item scopes over the token stream.
//!
//! For every token index the lints can ask "what named items enclose this
//! point" (`mod avx2` → `fn dot_impl` …). The tracker is deliberately
//! syntactic: any `{` opens a scope (named when an item keyword + name is
//! pending, anonymous otherwise — match arms, closures, struct literals),
//! any `}` closes one. That is exact for the item nesting the lints care
//! about and harmlessly noisy inside expressions.

use crate::lexer::{Tok, TokKind};

/// A named scope kind, as detected from the introducing keyword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeKind {
    Fn,
    Mod,
    Impl,
    Trait,
    Other,
    Anon,
}

/// One entry of the scope stack at a given token.
#[derive(Clone, Debug)]
pub struct Scope {
    pub kind: ScopeKind,
    /// Item name (empty for anonymous scopes).
    pub name: String,
    /// Line of the introducing keyword (or the `{` for anonymous scopes).
    pub decl_line: u32,
}

/// Per-token scope stacks: `stacks[i]` is the enclosing-scope chain of
/// token `i`, outermost first, **at the moment before the token is read**.
pub struct Scopes {
    stacks: Vec<Vec<Scope>>,
}

impl Scopes {
    /// The enclosing named-scope path of token `i`, e.g. `avx2::dot_impl`
    /// (anonymous scopes are skipped).
    pub fn path_of(&self, i: usize) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for s in &self.stacks[i] {
            if !s.name.is_empty() {
                parts.push(&s.name);
            }
        }
        parts.join("::")
    }

    /// The innermost enclosing `fn` scope of token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&Scope> {
        self.stacks[i].iter().rev().find(|s| s.kind == ScopeKind::Fn)
    }

    /// The innermost enclosing scope whose name is `name`, if any.
    pub fn is_inside(&self, i: usize, name: &str) -> bool {
        self.stacks[i].iter().any(|s| s.name == name)
    }
}

/// Builds the per-token scope stacks for `toks`.
pub fn build(toks: &[Tok]) -> Scopes {
    let mut stacks: Vec<Vec<Scope>> = Vec::with_capacity(toks.len());
    let mut stack: Vec<Scope> = Vec::new();
    // A pending item header: set when we see `fn`/`mod`/… , consumed by
    // the next `{` (or dropped at `;` — declarations without bodies).
    let mut pending: Option<Scope> = None;
    // Angle-bracket depth inside a pending header, so `impl<T> Name<T>`
    // picks up `Name`, not the generic params.
    let mut angle: i32 = 0;
    // Square-bracket depth, so the `;` of an array type `[T; N]` in a
    // header does not drop it.
    let mut square: i32 = 0;

    for (idx, t) in toks.iter().enumerate() {
        stacks.push(stack.clone());
        match t.kind {
            TokKind::Ident => {
                let kw_kind = match t.text.as_str() {
                    "fn" => Some(ScopeKind::Fn),
                    "mod" => Some(ScopeKind::Mod),
                    "impl" => Some(ScopeKind::Impl),
                    "trait" => Some(ScopeKind::Trait),
                    "struct" | "enum" | "union" => Some(ScopeKind::Other),
                    _ => None,
                };
                if let Some(kind) = kw_kind {
                    // `impl Fn(usize)` / `Box<fn()>` in *type* position must
                    // not open a pending item header: an item keyword is
                    // only taken after punctuation that can end an item or
                    // after nothing/idents like `pub`/`unsafe`.
                    let type_position = idx > 0
                        && matches!(
                            toks[idx - 1].kind,
                            TokKind::Punct(':')
                                | TokKind::Punct(',')
                                | TokKind::Punct('(')
                                | TokKind::Punct('<')
                                | TokKind::Punct('&')
                                | TokKind::Punct('=')
                                | TokKind::Punct('>')
                                | TokKind::Punct('|')
                                | TokKind::Punct('+')
                        );
                    if !type_position {
                        pending = Some(Scope { kind, name: String::new(), decl_line: t.line });
                        angle = 0;
                    }
                } else if let Some(p) = pending.as_mut() {
                    // First identifier at angle-depth 0 names the item; for
                    // `impl Trait for Type` the *last* one wins (the type).
                    if angle == 0
                        && t.text != "for"
                        && t.text != "where"
                        && t.text != "dyn"
                        && (p.kind == ScopeKind::Impl || p.name.is_empty())
                    {
                        p.name = t.text.clone();
                    }
                }
            }
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                // `->` must not close an angle region: check the previous
                // token for an adjacent `-`.
                let arrow = idx > 0
                    && toks[idx - 1].kind == TokKind::Punct('-')
                    && toks[idx - 1].line == t.line
                    && toks[idx - 1].col + 1 == t.col;
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            }
            TokKind::Punct('{') => {
                let scope = pending.take().unwrap_or(Scope {
                    kind: ScopeKind::Anon,
                    name: String::new(),
                    decl_line: t.line,
                });
                stack.push(scope);
            }
            TokKind::Punct('}') => {
                stack.pop();
            }
            TokKind::Punct('[') => square += 1,
            TokKind::Punct(']') => square = (square - 1).max(0),
            TokKind::Punct(';') if square == 0 => {
                pending = None;
            }
            _ => {}
        }
    }
    Scopes { stacks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn nested_items_resolve_to_paths() {
        let src = "mod avx2 {\n  unsafe fn dot_impl() { let x = 1; }\n  impl<T> Slot<T> { fn load(&self) { x; } }\n}\n";
        let lx = lex(src);
        let sc = build(&lx.toks);
        let x1 = lx.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert_eq!(sc.path_of(x1), "avx2::dot_impl");
        let x2 = lx.toks.iter().rposition(|t| t.is_ident("x")).unwrap();
        assert_eq!(sc.path_of(x2), "avx2::Slot::load");
        assert_eq!(sc.enclosing_fn(x2).unwrap().name, "load");
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let src = "impl Display for SimdLevel { fn fmt(&self) { y; } }\n";
        let lx = lex(src);
        let sc = build(&lx.toks);
        let y = lx.toks.iter().position(|t| t.is_ident("y")).unwrap();
        assert_eq!(sc.path_of(y), "SimdLevel::fmt");
    }

    #[test]
    fn anon_scopes_are_transparent_and_balanced() {
        let src = "fn f() { match x { A => { z; } } }\n";
        let lx = lex(src);
        let sc = build(&lx.toks);
        let z = lx.toks.iter().position(|t| t.is_ident("z")).unwrap();
        assert_eq!(sc.path_of(z), "f");
        assert!(sc.is_inside(z, "f"));
    }

    #[test]
    fn array_types_in_a_signature_keep_the_header() {
        let src = "mod m {\n  fn g(rows: [u8; 8]) -> [f32; 2] { w; }\n  const N: [u8; 1] = [0; 1];\n  fn h() { v; }\n}\n";
        let lx = lex(src);
        let sc = build(&lx.toks);
        let w = lx.toks.iter().position(|t| t.is_ident("w")).unwrap();
        assert_eq!(sc.path_of(w), "m::g");
        let v = lx.toks.iter().position(|t| t.is_ident("v")).unwrap();
        assert_eq!(sc.path_of(v), "m::h");
    }
}
