//! Shallow item and call-site scanner over the token stream.
//!
//! This is deliberately *not* a parser: it walks the [`crate::lexer`] token
//! stream once, tracking brace depth and an `impl`/`trait`/`mod` context
//! stack, and extracts exactly what the checks need — function
//! definitions with body spans and per-body call sites, enums with
//! discriminants, struct fields, and consts.
//! Anything it does not understand it skips, so macro-heavy or exotic
//! code degrades to "fewer facts", never to a crash.

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// Where a call site points, syntactically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name!(…)` — macro invocation.
    Macro,
    /// `recv.name(…)` — method call (receiver type unknown).
    Method,
    /// `Seg::…::name(…)` — qualified path call.
    Path,
    /// `name(…)` — bare call (free function or tuple constructor).
    Bare,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments; the called name is the last segment. For `Macro`,
    /// `Method` and `Bare` this has exactly one segment.
    pub path: Vec<String>,
    pub line: u32,
    pub kind: CallKind,
}

impl CallSite {
    /// The called name (last path segment).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }

    /// The qualifying segment before the name, if any (`Vec` in
    /// `Vec::new`).
    pub fn qualifier(&self) -> Option<&str> {
        if self.path.len() >= 2 {
            Some(&self.path[self.path.len() - 2])
        } else {
            None
        }
    }
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`Bdi` for methods in
    /// `impl BlockCompressor for Bdi`).
    pub owner: Option<String>,
    pub line: u32,
    /// True for functions in `#[cfg(test)]` modules or `#[test]` fns.
    pub is_test: bool,
    /// Call sites found in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Token index range of the body (within [`FileIndex::lexed`]),
    /// empty for bodyless trait declarations.
    pub body: std::ops::Range<usize>,
}

/// An enum definition with its variants and literal discriminants.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub line: u32,
    /// `(variant, discriminant)`; the discriminant is the normalized
    /// token text of the `= …` expression when present, else the
    /// auto-assigned value (previous + 1, starting from 0) rendered as
    /// decimal — i.e. always the effective wire value for fieldless
    /// enums.
    pub variants: Vec<(String, String)>,
}

/// A struct definition with named fields and their type text.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    /// `(field, normalized type text)`, public and private alike.
    pub fields: Vec<(String, String)>,
}

/// A `const NAME: TYPE = expr;` item.
#[derive(Debug, Clone)]
pub struct ConstDef {
    pub name: String,
    pub line: u32,
    /// Normalized token text of the initialiser expression.
    pub expr: String,
}

/// Everything the checks need to know about one source file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Owning crate (directory name under `crates/`, or the package name
    /// for the root crate).
    pub crate_name: String,
    pub lexed: Lexed,
    pub fns: Vec<FnDef>,
    pub enums: Vec<EnumDef>,
    pub structs: Vec<StructDef>,
    pub consts: Vec<ConstDef>,
    /// True for integration tests / examples — code that never
    /// ships in the library, excluded from the hot-path call graph.
    pub is_external_test: bool,
}

impl FileIndex {
    /// Lexes and scans `src` as the file at `path` in `crate_name`.
    pub fn build(path: &str, crate_name: &str, src: &str) -> Self {
        let lexed = lex(src);
        let is_external_test = path.contains("/tests/")
            || path.contains("/examples/")
            || path.starts_with("tests/")
            || path.starts_with("examples/");
        let mut idx = FileIndex {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            lexed,
            fns: Vec::new(),
            enums: Vec::new(),
            structs: Vec::new(),
            consts: Vec::new(),
            is_external_test,
        };
        idx.scan();
        idx
    }

    fn scan(&mut self) {
        let toks: Vec<Token> = self.lexed.tokens.clone();
        let mut ctx = ScanCtx::default();
        let mut i = 0usize;
        while i < toks.len() {
            i = self.scan_token(&toks, i, &mut ctx);
        }
    }

    /// Processes the token at `i`, returning the next index.
    fn scan_token(&mut self, toks: &[Token], i: usize, ctx: &mut ScanCtx) -> usize {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Punct('{') => {
                ctx.depth += 1;
                i + 1
            }
            TokenKind::Punct('}') => {
                ctx.depth = ctx.depth.saturating_sub(1);
                while let Some(top) = ctx.stack.last() {
                    if top.close_depth == ctx.depth {
                        ctx.stack.pop();
                    } else {
                        break;
                    }
                }
                i + 1
            }
            TokenKind::Punct('#') => {
                // Attribute: `#[…]` or `#![…]`; capture its ident soup.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    let (text, end) = bracket_text(toks, j);
                    ctx.pending_attrs.push(text);
                    return end;
                }
                i + 1
            }
            TokenKind::Ident(word) => match word.as_str() {
                "mod" => {
                    if let (Some(name), Some(open)) =
                        (toks.get(i + 1).and_then(Token::ident), toks.get(i + 2))
                    {
                        if open.is_punct('{') {
                            let attrs = std::mem::take(&mut ctx.pending_attrs);
                            let is_test = ctx.in_test()
                                || attrs.iter().any(|a| a.contains("cfg") && a.contains("test"));
                            ctx.stack.push(Scope { close_depth: ctx.depth, owner: None, is_test });
                            ctx.depth += 1;
                            let _ = name;
                            return i + 3;
                        }
                    }
                    ctx.pending_attrs.clear();
                    i + 1
                }
                "impl" | "trait" => {
                    ctx.pending_attrs.clear();
                    let (owner, open) = impl_self_type(toks, i + 1, word == "trait");
                    match open {
                        Some(open) => {
                            ctx.stack.push(Scope {
                                close_depth: ctx.depth,
                                owner,
                                is_test: ctx.in_test(),
                            });
                            ctx.depth += 1;
                            open + 1
                        }
                        None => i + 1,
                    }
                }
                "enum" => {
                    let attrs = std::mem::take(&mut ctx.pending_attrs);
                    let _ = attrs;
                    self.scan_enum(toks, i)
                }
                "struct" => {
                    ctx.pending_attrs.clear();
                    self.scan_struct(toks, i)
                }
                "const" => {
                    ctx.pending_attrs.clear();
                    self.scan_const(toks, i)
                }
                "fn" => self.scan_fn(toks, i, ctx),
                _ => {
                    // Any other identifier at item position clears stale
                    // attrs only at item starters; leave them for `fn`.
                    i + 1
                }
            },
            _ => i + 1,
        }
    }

    fn scan_fn(&mut self, toks: &[Token], i: usize, ctx: &mut ScanCtx) -> usize {
        // `fn` in a function-pointer type (`fn(u32) -> u32`) has no name.
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            return i + 1;
        };
        let attrs = std::mem::take(&mut ctx.pending_attrs);
        let is_test = ctx.in_test()
            || attrs.iter().any(|a| {
                a.split_whitespace().next() == Some("test")
                    || (a.contains("cfg") && a.contains("test"))
            });
        // Find the body `{` (or `;` for a bodyless declaration), skipping
        // balanced parens/brackets in the signature.
        let mut j = i + 2;
        let mut paren = 0i32;
        let body_open = loop {
            match toks.get(j).map(|t| &t.kind) {
                None => break None,
                Some(TokenKind::Punct('(')) | Some(TokenKind::Punct('[')) => paren += 1,
                Some(TokenKind::Punct(')')) | Some(TokenKind::Punct(']')) => paren -= 1,
                Some(TokenKind::Punct('{')) if paren == 0 => break Some(j),
                Some(TokenKind::Punct(';')) if paren == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let owner = ctx.stack.iter().rev().find_map(|s| s.owner.clone());
        let (body, end) = match body_open {
            Some(open) => {
                let close = matching_brace(toks, open);
                (open + 1..close, close + 1)
            }
            None => (0..0, j + 1),
        };
        let calls = collect_calls(toks, body.clone(), owner.as_deref());
        self.fns.push(FnDef {
            name: name.to_string(),
            owner,
            line: toks[i].line,
            is_test,
            calls,
            body: body.clone(),
        });
        // Continue scanning *inside* the body (for nested items) rather
        // than skipping it.
        let _ = end;
        i + 2
    }

    fn scan_enum(&mut self, toks: &[Token], i: usize) -> usize {
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            return i + 1;
        };
        // Find `{` (skip generics), bail on `;` (unit struct-like).
        let mut j = i + 2;
        let open = loop {
            match toks.get(j).map(|t| &t.kind) {
                None | Some(TokenKind::Punct(';')) => return i + 1,
                Some(TokenKind::Punct('{')) => break j,
                _ => j += 1,
            }
        };
        let close = matching_brace(toks, open);
        let mut variants = Vec::new();
        let mut k = open + 1;
        let mut next_auto: i64 = 0;
        while k < close {
            // Skip attributes and doc comments are not tokens; attributes
            // on variants: `#[…]`.
            if toks[k].is_punct('#') {
                if toks.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                    let (_, end) = bracket_text(toks, k + 1);
                    k = end;
                    continue;
                }
                k += 1;
                continue;
            }
            let Some(vname) = toks[k].ident() else {
                k += 1;
                continue;
            };
            let vname = vname.to_string();
            k += 1;
            // Skip payloads: `(…)` or `{…}`.
            if k < close && toks[k].is_punct('(') {
                k = matching_delim(toks, k, '(', ')') + 1;
            } else if k < close && toks[k].is_punct('{') {
                k = matching_brace(toks, k) + 1;
            }
            let disc = if k < close && toks[k].is_punct('=') {
                let start = k + 1;
                while k < close && !toks[k].is_punct(',') {
                    k += 1;
                }
                let text = normalize(&toks[start..k]);
                if let Some(v) = parse_int(&text) {
                    next_auto = v + 1;
                }
                text
            } else {
                let v = next_auto;
                next_auto += 1;
                v.to_string()
            };
            variants.push((vname, disc));
            if k < close && toks[k].is_punct(',') {
                k += 1;
            }
        }
        self.enums.push(EnumDef { name: name.to_string(), line: toks[i].line, variants });
        close + 1
    }

    fn scan_struct(&mut self, toks: &[Token], i: usize) -> usize {
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            return i + 1;
        };
        let mut j = i + 2;
        let open = loop {
            match toks.get(j).map(|t| &t.kind) {
                // Unit / tuple struct: no named fields to record.
                None | Some(TokenKind::Punct(';')) | Some(TokenKind::Punct('(')) => return i + 1,
                Some(TokenKind::Punct('{')) => break j,
                _ => j += 1,
            }
        };
        let close = matching_brace(toks, open);
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            if toks[k].is_punct('#') && toks.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                let (_, end) = bracket_text(toks, k + 1);
                k = end;
                continue;
            }
            if toks[k].ident() == Some("pub") {
                k += 1;
                // `pub(crate)` etc.
                if k < close && toks[k].is_punct('(') {
                    k = matching_delim(toks, k, '(', ')') + 1;
                }
                continue;
            }
            let Some(fname) = toks[k].ident() else {
                k += 1;
                continue;
            };
            if k + 1 < close && toks[k + 1].is_punct(':') {
                let fname = fname.to_string();
                let start = k + 2;
                let mut depth = 0i32;
                k = start;
                while k < close {
                    match &toks[k].kind {
                        TokenKind::Punct('<') | TokenKind::Punct('(') | TokenKind::Punct('[') => {
                            depth += 1
                        }
                        TokenKind::Punct('>') | TokenKind::Punct(')') | TokenKind::Punct(']') => {
                            depth -= 1
                        }
                        TokenKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                fields.push((fname, normalize(&toks[start..k])));
                if k < close && toks[k].is_punct(',') {
                    k += 1;
                }
            } else {
                k += 1;
            }
        }
        self.structs.push(StructDef { name: name.to_string(), line: toks[i].line, fields });
        close + 1
    }

    fn scan_const(&mut self, toks: &[Token], i: usize) -> usize {
        // `const NAME : TYPE = expr ;` — also matches associated consts.
        // `const fn` is a function, not a const item.
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            return i + 1;
        };
        if name == "fn" || !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
            return i + 1;
        }
        let mut j = i + 3;
        let mut depth = 0i32;
        // Skip the type, then `=`.
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('<') | TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct('>') | TokenKind::Punct(']') | TokenKind::Punct(')') => depth -= 1,
                TokenKind::Punct('=') if depth == 0 => break,
                TokenKind::Punct(';') if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            // `const N: usize` as a generic parameter — no initialiser.
            return i + 1;
        }
        let start = j + 1;
        j = start;
        let mut depth = 0i32;
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('[') | TokenKind::Punct('(') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(']') | TokenKind::Punct(')') | TokenKind::Punct('}') => depth -= 1,
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        self.consts.push(ConstDef {
            name: name.to_string(),
            line: toks[i].line,
            expr: normalize(&toks[start..j.min(toks.len())]),
        });
        j + 1
    }
}

#[derive(Debug, Default)]
struct ScanCtx {
    depth: u32,
    stack: Vec<Scope>,
    pending_attrs: Vec<String>,
}

impl ScanCtx {
    fn in_test(&self) -> bool {
        self.stack.iter().any(|s| s.is_test)
    }
}

#[derive(Debug)]
struct Scope {
    /// Brace depth at which this scope's `}` closes.
    close_depth: u32,
    /// `impl`/`trait` self-type name, when this scope is one.
    owner: Option<String>,
    is_test: bool,
}

/// Extracts the self-type name of an `impl`/`trait` header starting at
/// `i` (just past the keyword) and the index of its opening `{`.
fn impl_self_type(toks: &[Token], i: usize, is_trait: bool) -> (Option<String>, Option<usize>) {
    let mut j = i;
    let mut angle = 0i32;
    let mut after_for: Option<String> = None;
    let mut first_type: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => {
                let owner = if saw_for { after_for } else { first_type };
                return (owner, Some(j));
            }
            TokenKind::Punct(';') if angle <= 0 => return (None, None),
            TokenKind::Ident(w) if angle == 0 => {
                if w == "for" && !is_trait {
                    saw_for = true;
                } else if w != "where" && w != "dyn" && w != "const" && w != "mut" {
                    // Track the last *path* segment seen (`a::b::Type`
                    // updates through `::`), but never cross a single
                    // `:` — that is a trait's supertrait list.
                    let follows_path_sep =
                        j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':');
                    let name = Some(w.clone());
                    if saw_for {
                        if after_for.is_none() || follows_path_sep {
                            after_for = name;
                        }
                    } else if first_type.is_none() || follows_path_sep {
                        first_type = name;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, None)
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    matching_delim(toks, open, '{', '}')
}

fn matching_delim(toks: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Captures the ident soup of a `[…]` group starting at `open`,
/// returning `(text, index past the closing bracket)`.
fn bracket_text(toks: &[Token], open: usize) -> (String, usize) {
    let close = matching_delim(toks, open, '[', ']');
    (normalize(&toks[open + 1..close.min(toks.len())]), close + 1)
}

/// Renders tokens as canonical, whitespace-normalized text — the stable
/// form the wire-format lock stores.
pub fn normalize(toks: &[Token]) -> String {
    // Punct pairs rendered without an intervening space so multi-char
    // operators survive normalization (`1 << 15`, `a::b`, `0..=n`).
    const GLUED: &[(char, char)] = &[
        ('<', '<'),
        ('>', '>'),
        ('=', '='),
        ('!', '='),
        ('<', '='),
        ('>', '='),
        ('&', '&'),
        ('|', '|'),
        (':', ':'),
        ('-', '>'),
        ('=', '>'),
        ('.', '.'),
        ('.', '='),
        ('+', '='),
        ('-', '='),
        ('*', '='),
        ('/', '='),
        ('|', '='),
        ('&', '='),
        ('^', '='),
    ];
    let mut out = String::new();
    let mut prev_punct: Option<char> = None;
    for t in toks {
        let glue = matches!(
            (&t.kind, prev_punct),
            (TokenKind::Punct(c), Some(p)) if GLUED.contains(&(p, *c))
        );
        if !out.is_empty() && !glue {
            out.push(' ');
        }
        prev_punct = match &t.kind {
            TokenKind::Punct(c) => Some(*c),
            _ => None,
        };
        match &t.kind {
            TokenKind::Ident(s) => out.push_str(s),
            TokenKind::Lifetime(s) => {
                out.push('\'');
                out.push_str(s);
            }
            TokenKind::CharLit => out.push_str("'…'"),
            TokenKind::StrLit(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            TokenKind::Num(s) => out.push_str(s),
            TokenKind::Punct(c) => out.push(*c),
        }
    }
    out
}

/// Parses a decimal or hex integer literal (with `_` separators and an
/// optional type suffix).
pub fn parse_int(text: &str) -> Option<i64> {
    let t = text.trim().replace('_', "");
    if let Some(hex) = t.strip_prefix("0x") {
        let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return i64::from_str_radix(&hex, 16).ok();
    }
    // Leading digits only, so type suffixes (`7u8`) parse too; anything
    // non-literal (`1 << 15`) is None and the caller keeps its counter.
    let (sign, t) = match t.strip_prefix('-') {
        Some(rest) => (-1, rest.to_string()),
        None => (1, t),
    };
    let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
    let rest = &t[digits.len()..];
    // Only a bare literal (plus an optional type suffix) parses; an
    // expression like `1 << 15` is None and the caller keeps counting.
    if digits.is_empty() || !rest.chars().all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    digits.parse::<i64>().ok().map(|v| sign * v)
}

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "fn", "let", "else", "move",
    "unsafe", "ref", "mut", "break", "continue", "where", "impl", "dyn", "pub", "use", "mod",
];

/// Extracts call sites from a body token range. `owner` substitutes for
/// `Self::` path heads so associated calls resolve to the impl type.
fn collect_calls(
    toks: &[Token],
    body: std::ops::Range<usize>,
    owner: Option<&str>,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        let TokenKind::Ident(word) = &t.kind else {
            i += 1;
            continue;
        };
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            out.push(CallSite { path: vec![word.clone()], line: t.line, kind: CallKind::Macro });
            i += 2;
            continue;
        }
        // Path call: gather `a::b::name` then require `(` (with optional
        // turbofish before it).
        let is_path_start = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':'));
        if is_path_start {
            let mut path = vec![word.clone()];
            let mut j = i + 1;
            while toks.get(j).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            {
                match toks.get(j + 2).map(|t| &t.kind) {
                    Some(TokenKind::Ident(seg)) => {
                        path.push(seg.clone());
                        j += 3;
                    }
                    // Turbofish in the middle of a path: `::<…>` — skip.
                    Some(TokenKind::Punct('<')) => {
                        let end = skip_angles(toks, j + 2);
                        j = end;
                    }
                    _ => break,
                }
            }
            if toks.get(j).is_some_and(|n| n.is_punct('(')) {
                if path.len() >= 2 {
                    if path[0] == "Self" {
                        if let Some(owner) = owner {
                            path[0] = owner.to_string();
                        }
                    }
                    out.push(CallSite { path, line: t.line, kind: CallKind::Path });
                } else if i > body.start && toks[i - 1].is_punct('.') {
                    // `.collect::<Vec<_>>()` — a turbofish method call
                    // looks like a one-segment path; it is a method.
                    out.push(CallSite { path, line: t.line, kind: CallKind::Method });
                }
            }
            i = j.max(i + 1);
            continue;
        }
        // Method call: `.name(…)` with optional turbofish.
        let is_method = i > body.start && toks[i - 1].is_punct('.');
        if is_method {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct('<'))
            {
                j = skip_angles(toks, j + 2);
            }
            if toks.get(j).is_some_and(|n| n.is_punct('(')) {
                out.push(CallSite {
                    path: vec![word.clone()],
                    line: t.line,
                    kind: CallKind::Method,
                });
            }
            i += 1;
            continue;
        }
        // Bare call: `name(…)`, not a keyword, not preceded by `fn`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !CALLISH_KEYWORDS.contains(&word.as_str())
            && !(i > 0 && toks[i - 1].ident() == Some("fn"))
        {
            out.push(CallSite { path: vec![word.clone()], line: t.line, kind: CallKind::Bare });
        }
        i += 1;
    }
    out
}

/// Skips a balanced `<…>` group starting at the `<` at `i`, returning
/// the index just past the matching `>`.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct('{') => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        FileIndex::build("crates/x/src/lib.rs", "x", src)
    }

    #[test]
    fn fn_defs_with_impl_owner() {
        let idx = index(
            "impl BlockCompressor for Bdi {\n fn compress(&self) {}\n}\n\
             impl Engine { fn run(&self) {} }\n\
             trait Coder { fn code(&self) {} }\n\
             fn free() {}",
        );
        let owners: Vec<_> =
            idx.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            owners,
            [
                ("compress", Some("Bdi")),
                ("run", Some("Engine")),
                ("code", Some("Coder")),
                ("free", None)
            ]
        );
    }

    #[test]
    fn test_mod_fns_are_marked() {
        let idx = index(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}",
        );
        let tests: Vec<_> = idx.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(tests, [("prod", false), ("helper", true), ("t", true)]);
    }

    #[test]
    fn call_sites_by_kind() {
        let idx = index(
            "fn f(v: Vec<u8>) { panic!(\"x\"); v.to_vec(); Vec::new(); helper(); \
             it.collect::<Vec<_>>(); Self::assoc(); a != b; }",
        );
        let f = &idx.fns[0];
        let calls: Vec<_> = f.calls.iter().map(|c| (c.name().to_string(), c.kind)).collect();
        assert_eq!(
            calls,
            [
                ("panic".into(), CallKind::Macro),
                ("to_vec".into(), CallKind::Method),
                ("new".into(), CallKind::Path),
                ("helper".into(), CallKind::Bare),
                ("collect".into(), CallKind::Method),
                ("assoc".into(), CallKind::Path),
            ]
        );
        assert_eq!(f.calls[2].qualifier(), Some("Vec"));
    }

    #[test]
    fn self_paths_resolve_to_owner() {
        let idx = index("impl Frame { fn go() { Self::parse(); } }");
        assert_eq!(idx.fns[0].calls[0].path, ["Frame", "parse"]);
    }

    #[test]
    fn enum_discriminants_explicit_and_auto() {
        let idx = index("pub enum CodecId { Bdi = 0, Fpc = 1, Rans = 7, Next }");
        assert_eq!(
            idx.enums[0].variants,
            [
                ("Bdi".to_string(), "0".to_string()),
                ("Fpc".to_string(), "1".to_string()),
                ("Rans".to_string(), "7".to_string()),
                ("Next".to_string(), "8".to_string()),
            ]
        );
    }

    #[test]
    fn struct_fields_with_types() {
        let idx =
            index("pub struct Header { pub codec: CodecId, pub chunk_bytes: u32, total_len: u64 }");
        assert_eq!(
            idx.structs[0].fields,
            [
                ("codec".to_string(), "CodecId".to_string()),
                ("chunk_bytes".to_string(), "u32".to_string()),
                ("total_len".to_string(), "u64".to_string()),
            ]
        );
    }

    #[test]
    fn consts_capture_normalized_exprs() {
        let idx = index(
            "pub const MAGIC: [u8; 4] = *b\"SLC1\";\nconst TAG: u16 = 1 << 15;\n\
             pub const N: usize = (BLOCK_BYTES as u32) * 8;",
        );
        let m: Vec<_> = idx.consts.iter().map(|c| (c.name.as_str(), c.expr.as_str())).collect();
        assert_eq!(
            m,
            [("MAGIC", "* \"SLC1\""), ("TAG", "1 << 15"), ("N", "( BLOCK_BYTES as u32 ) * 8"),]
        );
    }

    #[test]
    fn bodyless_trait_fns() {
        let idx = index("trait T { fn decl(&self); fn with_default(&self) { decl(); } }");
        assert_eq!(idx.fns[0].body, 0..0);
        assert!(!idx.fns[1].body.is_empty());
    }
}
