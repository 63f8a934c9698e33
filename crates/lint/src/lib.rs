//! `fresca-lint`: workspace invariant linter for the fresca tree.
//!
//! The serving path deliberately hand-rolls its hot primitives (the
//! `bytes` shim, the reactor, the wire codec), which leaves a handful
//! of invariants that `rustc` cannot enforce. This crate walks the
//! workspace source with a small Rust tokenizer and enforces them:
//!
//! * **R1 `wire-tags`** — wire tag constants in the codec are unique,
//!   the tag table in `docs/PROTOCOL.md` agrees with the code (one
//!   row per tag, matching names), and every tag is *live*: non-test
//!   code outside `crates/net` both builds and matches its message. The
//!   codec is the source of truth.
//! * **R2 `safety-comments`** — every `unsafe` token in the tree is
//!   preceded by a `// SAFETY:` comment explaining why it is sound.
//! * **R3 `panic-free-hot-path`** — the node (`server.rs` and the
//!   files cut from it, `datapath.rs`, `mailbox.rs`, `handoff.rs` and
//!   `stats.rs`, in `crates/serve/src`), the codec
//!   (`crates/net/src/codec.rs`) and the framed transport
//!   (`crates/net/src/frame_io.rs`) contain no `unwrap`/`expect` calls or
//!   panicking macros outside `#[cfg(test)]` regions: a malformed
//!   frame or a racing peer must surface as an error, never a panic.
//! * **R4 `no-blocking-io-under-lock`** — no blocking I/O call while a
//!   `parking_lot` lock in the serving or cache crates (a loop's inbox,
//!   a partition of the shards) is held. A blocked holder stalls every loop
//!   posting to that inbox; the freshness bound is only as good as the
//!   worst hold time.
//! * **R5 `lock-free-serve-path`** — the data path
//!   (`crates/serve/src/datapath.rs`) and the store backend
//!   (`crates/core/src/backend.rs`), outside `#[cfg(test)]`, call no
//!   `.lock()` and name no `parking_lot`, `minipoll`, `std::net`,
//!   `std::io`, `std::os` or `Instant`; the data path calls no
//!   `.read()`/`.write()` either (the backend's own store has those).
//!   Both are lock-free because their callers serialise them: the
//!   reactor holds one partition's lock around every call into an
//!   `Owner`, which then touches its shards through plain `&mut`, and
//!   the store-push node holds the origin state's lock around the
//!   backend. A lock inside would nest under that one (and the model
//!   checker would no longer see one scheduling point per op) — and a
//!   socket or a clock means the logic stopped being a function of its
//!   state, its input and `now` that tests, the simulator and the model
//!   checker can call.
//! * **R6 `panic-free-reconnect`** — the client-side reconnect paths
//!   (`connect` in `crates/serve/src/client.rs`,
//!   `connect`/`refresh`/`swap_view`/`with_owner` in
//!   `crates/serve/src/cluster.rs`, the load driver's
//!   `connect`/`reconnect` in `crates/serve/src/loadgen.rs`) contain no
//!   `unwrap`/`expect` calls. These functions run exactly when a peer
//!   has died or the ring is mid-swap; a panic there turns one dead
//!   node into a dead client, defeating the whole point of
//!   bounded-retry reconnection.
//!
//! The tokenizer understands comments (line, nested block), string
//! literals (plain, raw, byte, byte-raw), char literals vs lifetimes,
//! and `#[cfg(test)]`-gated regions, so rules never fire on text
//! inside strings, comments, or test code.
//!
//! Diagnostics are `file:line` granular; [`Report::to_json`] emits a
//! machine-readable report for CI without pulling in a serializer.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Kind of a lexed token. Only what the rules need — no keywords
/// table, no number parsing beyond "this is a literal".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `lock`, `TAG_GET_REQ`, …).
    Ident,
    /// A single punctuation character (`.`, `(`, `{`, `!`, …).
    Punct(char),
    /// String/char/number literal (contents not interpreted).
    Literal,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
}

impl Token {
    fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lex Rust source into tokens, discarding comments and whitespace
/// but tracking line numbers. Built for linting, not compiling: it
/// never fails — unexpected bytes lex as punctuation.
pub fn tokenize(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Nested block comments, per the Rust grammar.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let (tok, ni, nl) = lex_string(&b, i, line);
                out.push(tok);
                i = ni;
                line = nl;
            }
            'r' | 'b' if starts_string_prefix(&b, i) => {
                let (tok, ni, nl) = lex_prefixed_string(&b, i, line);
                out.push(tok);
                i = ni;
                line = nl;
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is `'` + ident
                // with no closing quote right after one "element".
                let (tok, ni) = lex_quote(&b, i, line);
                out.push(tok);
                i = ni;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop at `..` (range) and at `.method()` on a literal.
                    if b[i] == '.' && !b.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Literal,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c => {
                out.push(Token { kind: TokenKind::Punct(c), text: c.to_string(), line });
                i += 1;
            }
        }
    }
    out
}

fn starts_string_prefix(b: &[char], i: usize) -> bool {
    // r", r#", b", b', br", br#" — but not a plain ident like `radius`.
    match b[i] {
        'r' => {
            matches!(b.get(i + 1), Some('"'))
                || (b.get(i + 1) == Some(&'#') && raw_hashes_then_quote(b, i + 1))
        }
        'b' => match b.get(i + 1) {
            Some('"') | Some('\'') => true,
            Some('r') => {
                matches!(b.get(i + 2), Some('"'))
                    || (b.get(i + 2) == Some(&'#') && raw_hashes_then_quote(b, i + 2))
            }
            _ => false,
        },
        _ => false,
    }
}

fn raw_hashes_then_quote(b: &[char], mut i: usize) -> bool {
    while b.get(i) == Some(&'#') {
        i += 1;
    }
    b.get(i) == Some(&'"')
}

fn lex_string(b: &[char], mut i: usize, mut line: usize) -> (Token, usize, usize) {
    let start_line = line;
    let start = i;
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => {
                i += 1;
                break;
            }
            '\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (
        Token {
            kind: TokenKind::Literal,
            text: b[start..i.min(b.len())].iter().collect(),
            line: start_line,
        },
        i,
        line,
    )
}

fn lex_prefixed_string(b: &[char], mut i: usize, mut line: usize) -> (Token, usize, usize) {
    let start_line = line;
    let start = i;
    // Skip the `b`/`r`/`br` prefix.
    while i < b.len() && (b[i] == 'b' || b[i] == 'r') {
        i += 1;
    }
    if b.get(i) == Some(&'\'') {
        // Byte char literal b'x'.
        let (tok, ni) = lex_quote(b, i, start_line);
        let mut text: String = b[start..i].iter().collect();
        text.push_str(&tok.text);
        return (Token { kind: TokenKind::Literal, text, line: start_line }, ni, line);
    }
    let mut hashes = 0;
    while b.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    'scan: while i < b.len() {
        if b[i] == '\n' {
            line += 1;
        }
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                i = j;
                break 'scan;
            }
        } else if hashes == 0 && b[i] == '\\' {
            // Plain (non-raw) byte string: honour escapes.
            i += 1;
        }
        i += 1;
    }
    (
        Token {
            kind: TokenKind::Literal,
            text: b[start..i.min(b.len())].iter().collect(),
            line: start_line,
        },
        i,
        line,
    )
}

fn lex_quote(b: &[char], i: usize, line: usize) -> (Token, usize) {
    // Called at a `'`. Distinguish char literal from lifetime.
    let start = i;
    let mut j = i + 1;
    if b.get(j) == Some(&'\\') {
        // Escaped char literal: '\n', '\'', '\u{..}' …
        j += 2;
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        j += 1;
        return (
            Token { kind: TokenKind::Literal, text: b[start..j.min(b.len())].iter().collect(), line },
            j,
        );
    }
    if b.get(j).is_some_and(|c| c.is_alphanumeric() || *c == '_') {
        let ident_start = j;
        while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        if b.get(j) == Some(&'\'') && j == ident_start + 1 {
            // One element then closing quote: char literal 'x'.
            j += 1;
            return (Token { kind: TokenKind::Literal, text: b[start..j].iter().collect(), line }, j);
        }
        // Lifetime: emit just the quote as punct; the ident lexes next.
        return (Token { kind: TokenKind::Punct('\''), text: "'".into(), line }, i + 1);
    }
    // `'('` etc. — punctuation char literal.
    while j < b.len() && b[j] != '\'' {
        j += 1;
    }
    j += 1;
    (Token { kind: TokenKind::Literal, text: b[start..j.min(b.len())].iter().collect(), line }, j)
}

// ---------------------------------------------------------------------------
// #[cfg(test)] regions
// ---------------------------------------------------------------------------

/// Inclusive line spans covered by `#[cfg(test)]`-gated items (mods,
/// fns, impls): rules about production code skip these.
pub fn cfg_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the brace block of the gated item (skipping further
        // attributes and the item header), or the `;` of a braceless
        // item like `#[cfg(test)] use …;`.
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut opened = false;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
                opened = true;
            } else if tokens[j].is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            } else if tokens[j].is_punct(';') && !opened {
                break;
            }
            j += 1;
        }
        let end = tokens.get(j).map_or(tokens[i].line, |t| t.line);
        spans.push((tokens[i].line, end));
        i = j + 1;
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Violations and report
// ---------------------------------------------------------------------------

/// A single rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule identifier (`wire-tags`, `safety-comments`, …).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialize to JSON (hand-rolled so this crate can keep
    /// `#![forbid(unsafe_code)]` with zero dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"violation_count\": {},\n", self.violations.len()));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"rule\": {}, ", json_str(v.rule)));
            s.push_str(&format!("\"file\": {}, ", json_str(&v.file)));
            s.push_str(&format!("\"line\": {}, ", v.line));
            s.push_str(&format!("\"message\": {}", json_str(&v.message)));
            s.push('}');
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

// ---------------------------------------------------------------------------
// R1: wire tag uniqueness + PROTOCOL.md agreement
// ---------------------------------------------------------------------------

/// The codec file that is the source of truth for wire tags, relative
/// to the workspace root.
pub const CODEC_PATH: &str = "crates/net/src/codec.rs";
/// The protocol document whose tag table must agree with the codec.
pub const PROTOCOL_PATH: &str = "docs/PROTOCOL.md";

/// A wire tag constant parsed from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTag {
    /// Constant name (`TAG_GET_REQ`).
    pub const_name: String,
    /// Message name the docs must use (`GetReq`) — the constant name
    /// minus `TAG_`, camel-cased.
    pub message: String,
    pub value: u8,
    pub line: usize,
}

/// Parse `const TAG_*: u8 = N;` items out of codec source.
pub fn parse_wire_tags(src: &str) -> Vec<WireTag> {
    let tokens = tokenize(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("const")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text.starts_with("TAG_"))
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i + 1].line;
            // Skip to `=`, take the literal.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('=') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('='))
                && tokens.get(j + 1).is_some_and(|t| t.kind == TokenKind::Literal)
            {
                if let Ok(value) = tokens[j + 1].text.replace('_', "").parse::<u8>() {
                    out.push(WireTag {
                        message: tag_message_name(&name),
                        const_name: name,
                        value,
                        line,
                    });
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// `TAG_GET_REQ` → `GetReq`.
pub fn tag_message_name(const_name: &str) -> String {
    let base = const_name.strip_prefix("TAG_").unwrap_or(const_name);
    base.split('_')
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => {
                    f.to_uppercase().chain(c.flat_map(|c| c.to_lowercase())).collect::<String>()
                }
                None => String::new(),
            }
        })
        .collect()
}

/// A row of PROTOCOL.md's tag table: `| 12 | `GetReq` | … |`.
#[derive(Debug, Clone)]
pub struct DocTag {
    pub value: u8,
    pub message: String,
    pub line: usize,
}

/// Parse the markdown tag table: the table whose header row is
/// `| Tag | Message | … |` (other tables in the doc — e.g. status
/// codes — also have numeric first cells and must not match). Rows
/// are a numeric first cell and a backticked name in the second.
pub fn parse_doc_tags(md: &str) -> Vec<DocTag> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (idx, raw) in md.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('|') {
            in_table = false;
            continue;
        }
        let header: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if header.first() == Some(&"Tag") && header.get(1) == Some(&"Message") {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let Ok(value) = cells[0].parse::<u8>() else { continue };
        // Name is the first backticked span of the second cell.
        let cell = cells[1];
        let Some(start) = cell.find('`') else { continue };
        let rest = &cell[start + 1..];
        let Some(end) = rest.find('`') else { continue };
        out.push(DocTag { value, message: rest[..end].to_string(), line: idx + 1 });
    }
    out
}

fn rule_wire_tags(root: &Path, report: &mut Report) {
    let codec_path = root.join(CODEC_PATH);
    let Ok(codec_src) = fs::read_to_string(&codec_path) else {
        report.violations.push(Violation {
            rule: "wire-tags",
            file: CODEC_PATH.into(),
            line: 1,
            message: "codec source not found; wire tags cannot be checked".into(),
        });
        return;
    };
    let tags = parse_wire_tags(&codec_src);
    if tags.is_empty() {
        report.violations.push(Violation {
            rule: "wire-tags",
            file: CODEC_PATH.into(),
            line: 1,
            message: "no `const TAG_*` items found in codec".into(),
        });
        return;
    }
    // Uniqueness within the codec.
    for (i, a) in tags.iter().enumerate() {
        if let Some(b) = tags[..i].iter().find(|b| b.value == a.value) {
            report.violations.push(Violation {
                rule: "wire-tags",
                file: CODEC_PATH.into(),
                line: a.line,
                message: format!(
                    "duplicate wire tag {}: {} collides with {} (line {})",
                    a.value, a.const_name, b.const_name, b.line
                ),
            });
        }
    }

    let proto_path = root.join(PROTOCOL_PATH);
    let Ok(md) = fs::read_to_string(&proto_path) else {
        report.violations.push(Violation {
            rule: "wire-tags",
            file: PROTOCOL_PATH.into(),
            line: 1,
            message: "protocol doc not found; tag table cannot be checked".into(),
        });
        return;
    };
    let doc = parse_doc_tags(&md);
    // Doc rows must be unique per tag value.
    for (i, a) in doc.iter().enumerate() {
        if doc[..i].iter().any(|b| b.value == a.value) {
            report.violations.push(Violation {
                rule: "wire-tags",
                file: PROTOCOL_PATH.into(),
                line: a.line,
                message: format!("duplicate tag-table row for tag {}", a.value),
            });
        }
    }
    // Every codec tag must have a doc row with the matching name…
    for tag in &tags {
        match doc.iter().find(|d| d.value == tag.value) {
            None => report.violations.push(Violation {
                rule: "wire-tags",
                file: PROTOCOL_PATH.into(),
                line: 1,
                message: format!(
                    "tag {} ({}) defined in codec but missing from the tag table",
                    tag.value, tag.const_name
                ),
            }),
            Some(d) if d.message != tag.message => report.violations.push(Violation {
                rule: "wire-tags",
                file: PROTOCOL_PATH.into(),
                line: d.line,
                message: format!(
                    "tag {} documented as `{}` but codec names it `{}` ({})",
                    tag.value, d.message, tag.message, tag.const_name
                ),
            }),
            Some(_) => {}
        }
    }
    // …and every doc row must correspond to a codec tag.
    for d in &doc {
        if !tags.iter().any(|t| t.value == d.value) {
            report.violations.push(Violation {
                rule: "wire-tags",
                file: PROTOCOL_PATH.into(),
                line: d.line,
                message: format!(
                    "tag {} (`{}`) documented but not defined in codec",
                    d.value, d.message
                ),
            });
        }
    }
}

/// Who uses each `Message` variant outside the wire crate.
#[derive(Debug, Default)]
struct MessageUses {
    /// Variants some expression builds.
    spoken: BTreeSet<String>,
    /// Variants some pattern matches.
    heard: BTreeSet<String>,
}

/// True for source that counts as a user of the protocol: outside
/// `crates/net` (which must name every variant to encode and decode it)
/// and not under a test, bench or example directory.
fn is_protocol_user(rel_path: &str) -> bool {
    !rel_path.starts_with("crates/net/")
        && !rel_path.split('/').any(|c| matches!(c, "tests" | "benches" | "examples"))
}

/// Record every `Message::<Name>` outside `#[cfg(test)]` regions as a
/// pattern or a construction. A pattern is followed — past its own
/// field braces and the parens of enclosing tuple patterns — by `=>`,
/// `|`, a guard's `if`, or the `=` of a `let`; anything else builds the
/// message.
fn scan_message_uses(tokens: &[Token], uses: &mut MessageUses) {
    let spans = cfg_test_spans(tokens);
    for i in 0..tokens.len().saturating_sub(3) {
        let named = tokens[i].is_ident("Message")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].kind == TokenKind::Ident;
        if !named || in_spans(&spans, tokens[i].line) {
            continue;
        }
        let mut j = i + 4;
        if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
            j = matching_close(tokens, j, '{', '}') + 1;
        }
        while tokens.get(j).is_some_and(|t| t.is_punct(')')) {
            j += 1;
        }
        let is_pattern = tokens.get(j).is_some_and(|t| {
            t.is_punct('|')
                || t.is_ident("if")
                || (t.is_punct('=') && !tokens.get(j + 1).is_some_and(|n| n.is_punct('=')))
        });
        let side = if is_pattern { &mut uses.heard } else { &mut uses.spoken };
        side.insert(tokens[i + 3].text.clone());
    }
}

/// The liveness half of `wire-tags`, run once the whole tree has been
/// scanned: a tag whose message nothing outside `crates/net` builds has
/// no speaker, one nothing matches has no listener — either way it is
/// dead protocol surface. (A missing codec is `rule_wire_tags`' report.)
fn rule_wire_tag_liveness(root: &Path, uses: &MessageUses, report: &mut Report) {
    let Ok(codec_src) = fs::read_to_string(root.join(CODEC_PATH)) else { return };
    for tag in parse_wire_tags(&codec_src) {
        for (set, half, verb) in
            [(&uses.spoken, "speaker", "builds"), (&uses.heard, "listener", "matches")]
        {
            if !set.contains(&tag.message) {
                report.violations.push(Violation {
                    rule: "wire-tags",
                    file: CODEC_PATH.into(),
                    line: tag.line,
                    message: format!(
                        "tag {} ({}) has no {half}: no non-test code outside crates/net \
                         {verb} `Message::{}`",
                        tag.value, tag.const_name, tag.message
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R2: unsafe blocks require // SAFETY: comments
// ---------------------------------------------------------------------------

fn rule_safety_comments(root: &Path, path: &Path, src: &str, tokens: &[Token], report: &mut Report) {
    let lines: Vec<&str> = src.lines().collect();
    let mut last_flagged = 0usize;
    for t in tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        // One diagnostic per line even if `unsafe` appears twice.
        if t.line == last_flagged {
            continue;
        }
        if has_safety_comment(&lines, t.line) {
            continue;
        }
        last_flagged = t.line;
        report.violations.push(Violation {
            rule: "safety-comments",
            file: rel(root, path),
            line: t.line,
            message: "`unsafe` without a preceding `// SAFETY:` comment explaining soundness"
                .into(),
        });
    }
}

/// Walk upward from the line above `line` (1-based), skipping blank
/// lines and attributes, through the contiguous comment block; true if
/// any comment line mentions `SAFETY`.
fn has_safety_comment(lines: &[&str], line: usize) -> bool {
    let mut idx = line.saturating_sub(1); // 0-based index of the unsafe line
    while idx > 0 {
        idx -= 1;
        let l = lines.get(idx).map_or("", |l| l.trim());
        if l.is_empty() || l.starts_with("#[") || l.starts_with("#!") {
            continue;
        }
        if l.starts_with("//") {
            if l.contains("SAFETY") {
                return true;
            }
            continue;
        }
        // Hit code: the comment block (if any) is exhausted.
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// R3: panic-free hot path
// ---------------------------------------------------------------------------

/// Files that must never panic in production code: the node (the
/// reactor and the files cut from it), the wire codec and the framed
/// transport every reply is queued and flushed through. A panic here
/// takes down an event loop mid-frame.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/datapath.rs",
    "crates/serve/src/mailbox.rs",
    "crates/serve/src/handoff.rs",
    "crates/serve/src/stats.rs",
    "crates/net/src/codec.rs",
    "crates/net/src/frame_io.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

fn rule_panic_free(root: &Path, path: &Path, tokens: &[Token], report: &mut Report) {
    let spans = cfg_test_spans(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_spans(&spans, t.line) {
            continue;
        }
        let name = t.text.as_str();
        let flagged = if PANIC_MACROS.contains(&name) {
            // `panic!(`, `unreachable!(` …
            tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        } else if PANIC_METHODS.contains(&name) {
            // `.unwrap()` / `.expect("…")` method calls only — a local
            // fn named `unwrap` would be odd but is not the target.
            i > 0 && tokens[i - 1].is_punct('.') && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        } else {
            false
        };
        if flagged {
            report.violations.push(Violation {
                rule: "panic-free-hot-path",
                file: rel(root, path),
                line: t.line,
                message: format!(
                    "`{name}` in a hot-path file: the reactor/codec must return errors, not panic"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R4: no blocking I/O while holding a lock
// ---------------------------------------------------------------------------

/// Directories (relative to the root) whose lock scopes are checked.
pub const LOCK_SCOPE_DIRS: &[&str] = &["crates/serve/src", "crates/cache/src"];

/// Identifiers that block the calling thread on I/O or time. Bare
/// `write`/`read` are excluded on purpose: the reactor's wake-pipe
/// nudge is a 1-byte `write` on a non-blocking fd.
const BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "accept",
    "connect",
    "connect_timeout",
    "sleep",
    "recv",
    "recv_from",
    "send_to",
    "sync_all",
    "sync_data",
    "wait",
    "wait_timeout",
    "join",
    "copy",
];

fn rule_no_blocking_under_lock(root: &Path, path: &Path, tokens: &[Token], report: &mut Report) {
    let spans = cfg_test_spans(tokens);
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || in_spans(&spans, t.line) {
            i += 1;
            continue;
        }
        let is_method = i > 0 && tokens[i - 1].is_punct('.');
        if is_method
            && t.text == "lock"
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            // `.lock()` — guard lives to end of statement, or to end
            // of the enclosing block when bound with `let`.
            let end = lock_guard_scope_end(tokens, i);
            scan_lock_scope(root, path, tokens, i + 3, end, &spans, report);
            i += 3;
        } else {
            i += 1;
        }
    }
}

/// Index of the punct closing the group opened at `open_idx`.
fn matching_close(tokens: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// End of the scope a `.lock()` guard at `lock_idx` lives for.
fn lock_guard_scope_end(tokens: &[Token], lock_idx: usize) -> usize {
    // Walk backwards to the start of the statement; if it begins with
    // `let`, the guard is named and lives to the end of the enclosing
    // block. Otherwise it is a temporary dropped at the `;`.
    let mut j = lock_idx;
    let mut let_bound = false;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            let_bound = true;
            break;
        }
    }
    if let_bound {
        // Scope: to the `}` that closes the enclosing block.
        let mut depth = 0i32;
        for (k, t) in tokens.iter().enumerate().skip(lock_idx) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
        }
        tokens.len()
    } else {
        // Scope: to the `;` ending this statement (at group depth 0
        // relative to the lock call).
        let mut paren = 0i32;
        let mut brace = 0i32;
        for (k, t) in tokens.iter().enumerate().skip(lock_idx) {
            match t.kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren -= 1,
                TokenKind::Punct('{') => brace += 1,
                TokenKind::Punct('}') => brace -= 1,
                TokenKind::Punct(';') if paren <= 0 && brace <= 0 => return k,
                _ => {}
            }
        }
        tokens.len()
    }
}

fn scan_lock_scope(
    root: &Path,
    path: &Path,
    tokens: &[Token],
    from: usize,
    to: usize,
    spans: &[(usize, usize)],
    report: &mut Report,
) {
    for j in from..to.min(tokens.len()) {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident || in_spans(spans, t.line) {
            continue;
        }
        if BLOCKING_CALLS.contains(&t.text.as_str())
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            report.violations.push(Violation {
                rule: "no-blocking-io-under-lock",
                file: rel(root, path),
                line: t.line,
                message: format!(
                    "`{}` called while a lock is held: blocking I/O under a lock \
                     stalls every thread waiting for it",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R5: lock-free, I/O-free serve path and store backend
// ---------------------------------------------------------------------------

/// The files that stay lock-free and I/O-free, each with the method
/// calls it may not make: the data path (every operation on owned
/// shards) none of `lock`/`read`/`write` — `read`/`write` cover `RwLock`
/// guards and, usefully, raw socket I/O — and the store backend, whose
/// own `DataStore` has `read`/`write`, no `lock`.
pub const SERVE_PATH_FILES: &[(&str, &[&str])] = &[
    ("crates/serve/src/datapath.rs", &["lock", "read", "write"]),
    ("crates/core/src/backend.rs", &["lock"]),
];

/// Names the data path must not mention anywhere: locks, the poll set
/// and the wall clock…
const SERVE_PATH_BANNED_NAMES: &[&str] = &["parking_lot", "minipoll", "Instant"];

/// …and, after `std::`, sockets, I/O and file descriptors.
const SERVE_PATH_BANNED_STD: &[&str] = &["net", "io", "os"];

fn rule_lock_free_serve_path(
    root: &Path,
    path: &Path,
    lock_calls: &[&str],
    tokens: &[Token],
    report: &mut Report,
) {
    let spans = cfg_test_spans(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_spans(&spans, t.line) {
            continue;
        }
        let name = t.text.as_str();
        let method_call = i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let after_std = i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("std");
        let what = if method_call && lock_calls.contains(&name) {
            format!("`.{name}()`")
        } else if SERVE_PATH_BANNED_NAMES.contains(&name) {
            format!("`{name}`")
        } else if after_std && SERVE_PATH_BANNED_STD.contains(&name) {
            format!("`std::{name}`")
        } else {
            continue;
        };
        report.violations.push(Violation {
            rule: "lock-free-serve-path",
            file: rel(root, path),
            line: t.line,
            message: format!(
                "{what} in a lock-free, I/O-free file: its state is touched through `&mut` \
                 only and it is handed `now` — its caller holds the lock, so a lock here \
                 nests under it; a socket or a clock breaks calling it from a test"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// R6: panic-free reconnect path
// ---------------------------------------------------------------------------

/// Files holding the client-side reconnect machinery.
pub const RECONNECT_PATH_FILES: &[&str] =
    &["crates/serve/src/client.rs", "crates/serve/src/cluster.rs", "crates/serve/src/loadgen.rs"];

/// The functions that run while a peer is dead or the ring is
/// mid-swap. Socket errors here are *expected* — the chaos schedule
/// kills nodes on purpose — so every failure must flow into the
/// retry/backoff loop as a value, never a panic.
pub const RECONNECT_PATH_FNS: &[&str] =
    &["connect", "reconnect", "refresh", "swap_view", "with_owner"];

fn rule_panic_free_reconnect(root: &Path, path: &Path, tokens: &[Token], report: &mut Report) {
    let spans = cfg_test_spans(tokens);
    let mut i = 0;
    while i < tokens.len() {
        let is_reconnect_fn = tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident
                    && RECONNECT_PATH_FNS.contains(&t.text.as_str()));
        if !is_reconnect_fn {
            i += 1;
            continue;
        }
        let fn_name = tokens[i + 1].text.clone();
        let mut open = i + 2;
        while open < tokens.len() && !tokens[open].is_punct('{') {
            open += 1;
        }
        let end = matching_close(tokens, open, '{', '}');
        for k in open..end.min(tokens.len()) {
            let t = &tokens[k];
            if t.kind != TokenKind::Ident || in_spans(&spans, t.line) {
                continue;
            }
            if PANIC_METHODS.contains(&t.text.as_str())
                && k > 0
                && tokens[k - 1].is_punct('.')
                && tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                report.violations.push(Violation {
                    rule: "panic-free-reconnect",
                    file: rel(root, path),
                    line: t.line,
                    message: format!(
                        "`.{}()` inside `{fn_name}`: a socket failure on the reconnect \
                         path must feed the retry loop as an error — a panic here turns \
                         one dead node into a dead client",
                        t.text
                    ),
                });
            }
        }
        i = end.max(i + 1);
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run every rule over the workspace at `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    rule_wire_tags(root, &mut report);
    let mut uses = MessageUses::default();

    let files = collect_rs_files(root);
    let hot: Vec<PathBuf> = HOT_PATH_FILES.iter().map(|f| root.join(f)).collect();
    let lock_dirs: Vec<PathBuf> = LOCK_SCOPE_DIRS.iter().map(|d| root.join(d)).collect();

    for path in &files {
        let Ok(src) = fs::read_to_string(path) else { continue };
        report.files_scanned += 1;
        let tokens = tokenize(&src);
        if is_protocol_user(&rel(root, path)) {
            scan_message_uses(&tokens, &mut uses);
        }
        rule_safety_comments(root, path, &src, &tokens, &mut report);
        if hot.iter().any(|h| h == path) {
            rule_panic_free(root, path, &tokens, &mut report);
        }
        if lock_dirs.iter().any(|d| path.starts_with(d)) {
            rule_no_blocking_under_lock(root, path, &tokens, &mut report);
        }
        if let Some((_, calls)) = SERVE_PATH_FILES.iter().find(|(f, _)| *path == root.join(f)) {
            rule_lock_free_serve_path(root, path, calls, &tokens, &mut report);
        }
        if RECONNECT_PATH_FILES.iter().any(|f| *path == root.join(f)) {
            rule_panic_free_reconnect(root, path, &tokens, &mut report);
        }
    }
    rule_wire_tag_liveness(root, &uses, &mut report);
    report.violations.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    report
}
