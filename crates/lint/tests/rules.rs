//! Rule-by-rule tests for `fresca-lint`: each seeds a fixture
//! workspace with a deliberate violation and asserts the linter
//! reports it at the right `file:line` — plus a self-check that the
//! real tree is clean (the acceptance gate CI enforces).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fresca_lint::{
    lint_workspace, parse_doc_tags, parse_wire_tags, tag_message_name, tokenize, Report, TokenKind,
};

static FIXTURE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A throwaway workspace tree under the target dir (kept out of the
/// real source tree so the self-clean test never scans fixtures).
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let seq = FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "fresca-lint-fixture-{}-{name}-{seq}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        // A minimal workspace manifest so `find_workspace_root` works.
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
        Self { root }
    }

    fn file(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
        self
    }

    fn lint(&self) -> Report {
        lint_workspace(&self.root)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Codec + doc + user triple with no drift and no dead tag, used as the
/// clean baseline the seeded fixtures then perturb.
const CLEAN_CODEC: &str = "\
const TAG_READ_REQ: u8 = 1;
const TAG_READ_RESP: u8 = 2;
const TAG_GET_REQ: u8 = 12;
";

/// Non-test code outside `crates/net` that builds and matches every
/// message of [`CLEAN_CODEC`].
const CLEAN_USER: &str = "\
fn ask(conn: &mut Conn) {
    conn.send(&Message::ReadReq { key: 1 });
    conn.send(&Message::GetReq { id, key: 1 });
}
fn answer(conn: &mut Conn, msg: Message) {
    match msg {
        Message::ReadReq { key } | Message::GetReq { key, .. } => {
            conn.send(&Message::ReadResp { key, version: 1 })
        }
        Message::ReadResp { .. } => {}
    }
}
";

const CLEAN_DOC: &str = "\
# Protocol

| Tag | Message | Direction | Body |
|----:|---------|-----------|------|
| 1 | `ReadReq` | a | b |
| 2 | `ReadResp` | a | b |
| 12 | `GetReq` | a | b |

| Value | Status | Meaning |
|------:|--------|---------|
| 0 | `Fresh` | not a wire tag |
";

fn violations<'r>(report: &'r Report, rule: &str) -> Vec<&'r fresca_lint::Violation> {
    report.violations.iter().filter(|v| v.rule == rule).collect()
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[test]
fn tokenizer_skips_comments_strings_and_lifetimes() {
    let src = r####"
// unsafe in a line comment
/* unsafe in /* a nested */ block */
let s = "unsafe in a string";
let r = r#"unsafe in a raw string"#;
let b = b"unsafe bytes";
let c = 'u';
fn f<'a>(x: &'a str) {}
let real = unsafe { 1 };
"####;
    let toks = tokenize(src);
    let unsafes: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.text == "unsafe")
        .collect();
    assert_eq!(unsafes.len(), 1, "only the code `unsafe` may lex as an ident");
    assert_eq!(unsafes[0].line, 9);
    // The lifetime's `a` must not swallow following tokens.
    assert!(toks.iter().any(|t| t.kind == TokenKind::Ident && t.text == "str"));
}

#[test]
fn tokenizer_tracks_lines_through_multiline_strings() {
    let src = "let a = \"line\none\ntwo\";\nlet later = unsafe_marker;\n";
    let toks = tokenize(src);
    let marker = toks.iter().find(|t| t.text == "unsafe_marker").expect("marker");
    assert_eq!(marker.line, 4);
}

#[test]
fn tag_names_map_consts_to_doc_messages() {
    assert_eq!(tag_message_name("TAG_READ_REQ"), "ReadReq");
    assert_eq!(tag_message_name("TAG_ACK"), "Ack");
    assert_eq!(tag_message_name("TAG_PUT_RESP"), "PutResp");
}

// ---------------------------------------------------------------------------
// R1: wire tags
// ---------------------------------------------------------------------------

#[test]
fn clean_tag_pair_passes() {
    let fx = Fixture::new("tags-clean");
    fx.file("crates/net/src/codec.rs", CLEAN_CODEC)
        .file("docs/PROTOCOL.md", CLEAN_DOC)
        .file("crates/serve/src/peer.rs", CLEAN_USER);
    let report = fx.lint();
    assert!(
        violations(&report, "wire-tags").is_empty(),
        "clean pair must not fire: {:?}",
        report.violations
    );
}

#[test]
fn duplicate_tag_value_is_flagged_at_the_colliding_const() {
    let fx = Fixture::new("tags-dup");
    fx.file(
        "crates/net/src/codec.rs",
        "const TAG_READ_REQ: u8 = 1;\nconst TAG_WRITE_REQ: u8 = 1;\n",
    )
    .file(
        "docs/PROTOCOL.md",
        "| Tag | Message | d |\n|--|--|--|\n| 1 | `ReadReq` | a |\n",
    );
    let report = fx.lint();
    let v = violations(&report, "wire-tags");
    let dup = v
        .iter()
        .find(|v| v.message.contains("duplicate wire tag 1"))
        .expect("duplicate must be reported");
    assert_eq!(dup.file, "crates/net/src/codec.rs");
    assert_eq!(dup.line, 2, "flagged at the second (colliding) const");
    assert!(dup.message.contains("TAG_WRITE_REQ") && dup.message.contains("TAG_READ_REQ"));
}

#[test]
fn doc_name_drift_is_flagged_at_the_doc_row() {
    let fx = Fixture::new("tags-drift");
    fx.file("crates/net/src/codec.rs", CLEAN_CODEC).file("crates/serve/src/peer.rs", CLEAN_USER).file(
        "docs/PROTOCOL.md",
        "| Tag | Message | d |\n|--|--|--|\n| 1 | `ReadRequest` | a |\n| 2 | `ReadResp` | a |\n| 12 | `GetReq` | a |\n",
    );
    let report = fx.lint();
    let v = violations(&report, "wire-tags");
    assert_eq!(v.len(), 1, "exactly the drifted row: {v:?}");
    assert_eq!(v[0].file, "docs/PROTOCOL.md");
    assert_eq!(v[0].line, 3);
    assert!(v[0].message.contains("`ReadRequest`") && v[0].message.contains("`ReadReq`"));
}

#[test]
fn missing_and_phantom_doc_rows_are_flagged() {
    let fx = Fixture::new("tags-missing");
    fx.file("crates/net/src/codec.rs", CLEAN_CODEC).file(
        "docs/PROTOCOL.md",
        // Tag 2 undocumented; tag 9 documented but not in the codec.
        "| Tag | Message | d |\n|--|--|--|\n| 1 | `ReadReq` | a |\n| 9 | `GetResp` | a |\n| 12 | `GetReq` | a |\n",
    );
    let report = fx.lint();
    let v = violations(&report, "wire-tags");
    assert!(v.iter().any(|v| v.message.contains("tag 2") && v.message.contains("missing")));
    assert!(v.iter().any(|v| v.message.contains("tag 9") && v.message.contains("not defined")));
}

#[test]
fn tag_with_no_speaker_or_no_listener_is_flagged_by_the_missing_half() {
    // The mutation the liveness check exists to catch: a tag with a
    // constant and a doc row that nothing outside the wire crate uses.
    // Mentions in crates/net itself, in test code and in comments or
    // strings do not bring it to life.
    let fx = Fixture::new("tags-ghost");
    let doc = format!("{CLEAN_DOC}\n| Tag | Message | d |\n|--|--|--|\n| 30 | `Ghost` | a |\n");
    fx.file("crates/net/src/codec.rs", &format!("{CLEAN_CODEC}const TAG_GHOST: u8 = 30;\n"))
        .file("docs/PROTOCOL.md", &doc)
        .file("crates/serve/src/peer.rs", CLEAN_USER)
        .file("crates/net/src/simnet.rs", "fn filler() -> Message { Message::Ghost }\n")
        .file("tests/e2e.rs", "fn rogue(c: &mut Conn) { c.send(&Message::Ghost); }\n")
        .file(
            "crates/serve/src/notes.rs",
            "// Message::Ghost => nothing\nconst S: &str = \"Message::Ghost\";\n\
             #[cfg(test)]\nmod tests { fn f() -> Message { Message::Ghost } }\n",
        );
    let report = fx.lint();
    let v = violations(&report, "wire-tags");
    assert_eq!(v.len(), 2, "one violation per missing half: {v:?}");
    assert!(v.iter().all(|v| v.file == "crates/net/src/codec.rs" && v.line == 4));
    assert!(v.iter().all(|v| v.message.contains("TAG_GHOST")));
    assert!(v[0].message.contains("no speaker") && v[1].message.contains("no listener"));
}

#[test]
fn status_code_table_is_not_mistaken_for_wire_tags() {
    // CLEAN_DOC carries a second numeric table (status codes); the
    // clean fixture passing proves the parser anchors on the header.
    let rows = parse_doc_tags(CLEAN_DOC);
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.message != "Fresh"));
}

#[test]
fn wire_tag_parser_reads_real_shaped_consts() {
    let tags = parse_wire_tags("pub(crate) const TAG_ACK: u8 = 7; const OTHER: u8 = 9;");
    assert_eq!(tags.len(), 1);
    assert_eq!(tags[0].value, 7);
    assert_eq!(tags[0].message, "Ack");
}

// ---------------------------------------------------------------------------
// R2: SAFETY comments
// ---------------------------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged_at_its_line() {
    let fx = Fixture::new("safety-missing");
    fx.file(
        "crates/x/src/lib.rs",
        "fn f() -> i32 {\n    let p = &1 as *const i32;\n    unsafe { *p }\n}\n",
    );
    let report = fx.lint();
    let v = violations(&report, "safety-comments");
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].file, "crates/x/src/lib.rs");
    assert_eq!(v[0].line, 3);
}

#[test]
fn safety_comment_satisfies_the_rule_even_through_attributes() {
    let fx = Fixture::new("safety-ok");
    fx.file(
        "crates/x/src/lib.rs",
        "struct W(*const i32);\n\
         // SAFETY: the pointer is only dereferenced on the owning thread.\n\
         #[allow(clippy::non_send_fields_in_send_ty)]\n\
         unsafe impl Send for W {}\n",
    );
    let report = fx.lint();
    assert!(
        violations(&report, "safety-comments").is_empty(),
        "SAFETY above an attribute must count: {:?}",
        report.violations
    );
}

#[test]
fn unsafe_in_comments_and_strings_never_fires() {
    let fx = Fixture::new("safety-strings");
    fx.file(
        "crates/x/src/lib.rs",
        "// this mentions unsafe code but has none\nfn f() -> &'static str { \"unsafe\" }\n",
    );
    assert!(violations(&fx.lint(), "safety-comments").is_empty());
}

// ---------------------------------------------------------------------------
// R3: panic-free hot path
// ---------------------------------------------------------------------------

#[test]
fn unwrap_in_hot_path_is_flagged_but_test_mod_is_exempt() {
    let fx = Fixture::new("panic-hot");
    fx.file(
        "crates/serve/src/server.rs",
        "fn serve(x: Option<u8>) -> u8 {\n\
         \x20   x.unwrap()\n\
         }\n\
         fn decode(x: Result<u8, ()>) -> u8 {\n\
         \x20   x.expect(\"decode\")\n\
         }\n\
         fn never() {\n\
         \x20   unreachable!(\"boom\")\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn ok() { None::<u8>.unwrap(); panic!(\"fine in tests\"); }\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "panic-free-hot-path");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![2, 5, 8], "exactly the three production sites: {v:?}");
    assert!(v.iter().all(|v| v.file == "crates/serve/src/server.rs"));
}

#[test]
fn unwrap_in_the_files_cut_from_the_reactor_is_flagged_too() {
    let fx = Fixture::new("panic-hot-cut");
    let cut = ["datapath.rs", "handoff.rs", "mailbox.rs", "stats.rs"]
        .map(|file| format!("crates/serve/src/{file}"));
    for file in &cut {
        fx.file(file, "fn f(x: Option<u8>) -> u8 {\n\x20   x.unwrap()\n}\n");
    }
    let v = fx.lint();
    let files: Vec<&str> =
        violations(&v, "panic-free-hot-path").iter().map(|v| v.file.as_str()).collect();
    assert_eq!(files, cut);
}

#[test]
fn expect_in_the_framed_transport_is_flagged() {
    let fx = Fixture::new("panic-hot-frame-io");
    fx.file(
        "crates/net/src/frame_io.rs",
        "fn consume(q: &mut Vec<u8>) -> u8 {\n\x20   q.pop().expect(\"queued\")\n}\n",
    );
    let v = fx.lint();
    let v = violations(&v, "panic-free-hot-path");
    assert_eq!(
        v.iter().map(|v| (v.file.as_str(), v.line)).collect::<Vec<_>>(),
        [("crates/net/src/frame_io.rs", 2)]
    );
}

#[test]
fn panic_outside_hot_path_files_is_allowed() {
    let fx = Fixture::new("panic-cold");
    fx.file("crates/serve/src/loadgen.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    assert!(violations(&fx.lint(), "panic-free-hot-path").is_empty());
}

// ---------------------------------------------------------------------------
// R4: no blocking I/O under a lock
// ---------------------------------------------------------------------------

#[test]
fn blocking_write_under_let_bound_guard_is_flagged() {
    let fx = Fixture::new("lock-letbound");
    fx.file(
        "crates/serve/src/conn.rs",
        "fn flush_all(m: &Mutex<Vec<u8>>, sock: &mut TcpStream) {\n\
         \x20   let buf = m.lock();\n\
         \x20   sock.write_all(&buf);\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "no-blocking-io-under-lock");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 3);
    assert!(v[0].message.contains("write_all"));
}

#[test]
fn partition_guard_held_across_a_connection_flush_is_flagged() {
    // The reactor's partition locks: applying an op under one is the
    // point, flushing a socket before the guard drops is the bug.
    let fx = Fixture::new("lock-partition");
    fx.file(
        "crates/serve/src/server.rs",
        "fn route(&mut self, i: usize, conn: &mut Conn, op: Op) {\n\
         \x20   let p = self.shared.owners[i].lock();\n\
         \x20   conn.io.queue(&p.apply(op));\n\
         \x20   conn.io.flush();\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "no-blocking-io-under-lock");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("flush"));
}

#[test]
fn origin_dial_under_an_inbox_guard_is_flagged() {
    // A dial thread posts its result to the loop's inbox; dialing with
    // the inbox's guard held stalls every sender for the whole connect.
    let fx = Fixture::new("lock-dial");
    fx.file(
        "crates/serve/src/server.rs",
        "fn dial(addr: SocketAddr, to: &Mailbox) {\n\
         \x20   let mut inbox = to.inbox.lock();\n\
         \x20   inbox.dialed = Some(TcpStream::connect_timeout(&addr, ORIGIN_CONNECT_TIMEOUT));\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "no-blocking-io-under-lock");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 3);
    assert!(v[0].message.contains("connect_timeout"));
}

#[test]
fn statement_temporary_guard_does_not_leak_into_the_next_statement() {
    // The reactor's actual shape: push under the lock (a temporary,
    // dropped at the `;`), then nudge the wake pipe.
    let fx = Fixture::new("lock-temporary");
    fx.file(
        "crates/serve/src/conn.rs",
        "fn enqueue(m: &Mutex<Vec<u8>>, wake: &mut File, b: u8) {\n\
         \x20   m.lock().push(b);\n\
         \x20   wake.write_all(&[1]);\n\
         }\n",
    );
    assert!(
        violations(&fx.lint(), "no-blocking-io-under-lock").is_empty(),
        "guard temporary dies at the semicolon; the write is lock-free"
    );
}

#[test]
fn lock_rules_only_apply_to_serving_and_cache_dirs() {
    let fx = Fixture::new("lock-elsewhere");
    fx.file(
        "crates/store/src/lib.rs",
        "fn f(m: &Mutex<Vec<u8>>, s: &mut TcpStream) { let g = m.lock(); s.write_all(&g); }\n",
    );
    assert!(violations(&fx.lint(), "no-blocking-io-under-lock").is_empty());
}

// ---------------------------------------------------------------------------
// R5: lock-free, I/O-free data path
// ---------------------------------------------------------------------------

#[test]
fn lock_in_the_data_path_is_flagged_at_its_line() {
    // The mutation the rule exists to catch: someone reintroduces a
    // shard lock into the owner-local read path.
    let fx = Fixture::new("servepath-lock");
    fx.file(
        "crates/serve/src/datapath.rs",
        "fn get(&mut self, key: u64) -> Option<Message> {\n\
         \x20   let shard = self.cache.shard(key).lock();\n\
         \x20   shard.get_bounded(key)\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "lock-free-serve-path");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].file, "crates/serve/src/datapath.rs");
    assert_eq!(v[0].line, 2);
    assert!(v[0].message.contains(".lock()"), "{}", v[0].message);
}

#[test]
fn rwlock_guards_anywhere_in_the_data_path_are_flagged() {
    // File-scoped: a helper nobody listed (`park`, `count_outcome`) is
    // on the path as much as `apply` is.
    let fx = Fixture::new("servepath-rwlock");
    fx.file(
        "crates/serve/src/datapath.rs",
        "fn put(&mut self, key: u64) -> u64 {\n\
         \x20   self.shared.index.write().insert(key)\n\
         }\n\
         fn park(&mut self, keys: &[u64]) -> u64 {\n\
         \x20   self.shared.index.read().count(keys)\n\
         }\n\
         fn count_outcome(&self, op: Op) {\n\
         \x20   self.shared.membership.lock().serve(op)\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "lock-free-serve-path");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![2, 5, 8], "every guard acquisition: {v:?}");
}

#[test]
fn sockets_poll_sets_lock_crates_and_clocks_in_the_data_path_are_flagged() {
    let fx = Fixture::new("servepath-io");
    fx.file(
        "crates/serve/src/datapath.rs",
        "use parking_lot::Mutex;\n\
         use std::net::TcpStream;\n\
         use std::sync::Arc;\n\
         use fresca_net::Message;\n\
         fn apply(&mut self, link: &mut std::io::Cursor<u8>) {\n\
         \x20   let now = std::time::Instant::now();\n\
         \x20   let fd: std::os::fd::RawFd = 0;\n\
         \x20   minipoll::PollSet::new();\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "lock-free-serve-path");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![1, 2, 5, 6, 7, 8], "`std::sync` and `fresca_net` are fine: {v:?}");
    assert!(v[1].message.contains("`std::net`") && v[3].message.contains("`Instant`"));
}

#[test]
fn locks_sockets_and_clocks_in_the_store_backend_are_flagged() {
    // The backend's own `DataStore` reads and writes; a lock, a socket
    // or a wall clock would stop the simulator and the store-push node
    // sharing it.
    let fx = Fixture::new("servepath-backend");
    fx.file(
        "crates/core/src/backend.rs",
        "fn write(&mut self, key: u64) -> Record {\n\
         \x20   let rec = self.store.write(key, 8, now);\n\
         \x20   self.store.read(key, 8);\n\
         \x20   let g = self.shared.lock();\n\
         \x20   let t = std::time::Instant::now();\n\
         \x20   let s: std::net::TcpStream = connect();\n\
         \x20   let m: parking_lot::Mutex<u8> = lock();\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "lock-free-serve-path");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![4, 5, 6, 7], "store `read`/`write` calls are fine: {v:?}");
    assert!(v.iter().all(|v| v.file == "crates/core/src/backend.rs"));
    assert!(v[0].message.contains(".lock()"), "{}", v[0].message);
}

#[test]
fn locks_and_sockets_outside_the_data_path_file_are_allowed() {
    // The reactor legitimately locks (the mailbox) and owns every
    // socket; other files lock freely — the rule is scoped to
    // datapath.rs.
    let fx = Fixture::new("servepath-elsewhere");
    fx.file(
        "crates/serve/src/server.rs",
        "use std::net::TcpStream;\n\
         fn post(&self) {\n\
         \x20   self.inbox.lock().msgs.push(1);\n\
         }\n",
    )
    .file(
        "crates/serve/src/push.rs",
        "fn apply(m: &Mutex<u64>) -> u64 { *m.lock() }\n",
    );
    assert!(
        violations(&fx.lint(), "lock-free-serve-path").is_empty(),
        "only datapath.rs is in scope"
    );
}

#[test]
fn data_path_test_modules_are_exempt() {
    let fx = Fixture::new("servepath-testmod");
    fx.file(
        "crates/serve/src/datapath.rs",
        "fn get(&mut self) -> u64 { 1 }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   use std::time::Instant;\n\
         \x20   fn get(m: &Mutex<u64>) -> u64 { *m.lock() }\n\
         }\n",
    );
    assert!(violations(&fx.lint(), "lock-free-serve-path").is_empty());
}

// ---------------------------------------------------------------------------
// R6: panic-free reconnect path
// ---------------------------------------------------------------------------

#[test]
fn unwrap_on_reconnect_path_is_flagged_at_its_line() {
    // The mutation the rule exists to catch: someone "simplifies" the
    // retry loop by unwrapping the reconnect attempt — correct until
    // the first chaos kill, then the whole client dies with the node.
    let fx = Fixture::new("reconnect-unwrap");
    fx.file(
        "crates/serve/src/cluster.rs",
        "fn with_owner(&mut self, key: u64) -> u64 {\n\
         \x20   let conn = PipelinedClient::connect(self.addr_for(key)).unwrap();\n\
         \x20   conn.id()\n\
         }\n\
         fn refresh(&mut self) -> bool {\n\
         \x20   self.probe().expect(\"ring reply\")\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "panic-free-reconnect");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![2, 6], "both panicking sites: {v:?}");
    assert!(v[0].message.contains("with_owner") && v[0].message.contains(".unwrap()"));
    assert!(v[1].message.contains("refresh") && v[1].message.contains(".expect()"));
}

#[test]
fn unwrap_in_the_load_drivers_reconnect_is_flagged() {
    // The chaos driver reconnects to nodes the schedule just killed: a
    // panic there ends the run the chaos gates exist to judge.
    let fx = Fixture::new("reconnect-loadgen");
    fx.file(
        "crates/serve/src/loadgen.rs",
        "fn reconnect(&mut self, i: usize) {\n\
         \x20   self.conn = Some(PipelinedClient::connect(self.addr).unwrap());\n\
         }\n\
         fn connect(nodes: &[Node]) -> Driver {\n\
         \x20   Driver::dial(nodes).expect(\"every node up\")\n\
         }\n",
    );
    let report = fx.lint();
    let v = violations(&report, "panic-free-reconnect");
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![2, 5], "both panicking sites: {v:?}");
    assert!(v[0].message.contains("`reconnect`") && v[0].message.contains(".unwrap()"));
    assert!(v[1].message.contains("`connect`") && v[1].message.contains(".expect()"));
}

#[test]
fn reconnect_rule_is_scoped_to_its_fns_files_and_production_code() {
    // `connect` in push.rs, an unrelated fn in client.rs, and test-mod
    // unwraps are all out of scope — the rule polices exactly the
    // client/cluster reconnect machinery.
    let fx = Fixture::new("reconnect-elsewhere");
    fx.file(
        "crates/serve/src/push.rs",
        "fn connect(addr: &str) -> Conn { Conn::dial(addr).unwrap() }\n",
    )
    .file(
        "crates/serve/src/client.rs",
        "fn parse_probe(line: &str) -> u64 {\n\
         \x20   line.parse().unwrap()\n\
         }\n\
         fn refresh(&mut self) -> u32 {\n\
         \x20   self.attempts + 1\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn connect() { TcpStream::connect(\"x\").unwrap(); }\n\
         }\n",
    );
    assert!(
        violations(&fx.lint(), "panic-free-reconnect").is_empty(),
        "only reconnect-path fns in client.rs/cluster.rs are in scope"
    );
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

#[test]
fn json_report_carries_every_field_and_escapes() {
    let fx = Fixture::new("json");
    fx.file("crates/net/src/codec.rs", CLEAN_CODEC)
        .file("docs/PROTOCOL.md", CLEAN_DOC)
        .file("crates/serve/src/peer.rs", CLEAN_USER)
        .file("crates/x/src/lib.rs", "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n");
    let report = fx.lint();
    assert!(!report.is_clean());
    let json = report.to_json();
    assert!(json.contains("\"violation_count\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"safety-comments\""), "{json}");
    assert!(json.contains("\"file\": \"crates/x/src/lib.rs\""), "{json}");
    assert!(json.contains("\"line\": 1"), "{json}");
    assert!(json.contains("\"files_scanned\""), "{json}");
    // Escaping: backticks are fine, but quotes in messages must not
    // break the document. Cheap structural sanity check: balanced
    // braces and an even number of unescaped quotes.
    let unescaped_quotes = json.replace("\\\"", "").matches('"').count();
    assert_eq!(unescaped_quotes % 2, 0, "quotes must pair up: {json}");
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// The acceptance gate: the tree this crate ships in must be clean.
/// CI runs the binary; this test keeps `cargo test` equivalent.
#[test]
fn the_workspace_itself_is_clean() {
    let report = lint_workspace(&repo_root());
    assert!(report.files_scanned > 50, "must actually scan the tree");
    for v in &report.violations {
        eprintln!("{v}");
    }
    assert!(report.is_clean(), "the shipped tree must pass its own linter");
}
