//! The structural contract: what DESIGN.md says is written once is written
//! once. Each check counts the non-test lines (each file up to its first
//! `#[cfg(test)]`) holding a row's patterns, and its counts and line totals
//! must equal its section of `tests/golden/structure.txt`: a rise and a fall
//! both show as a golden diff. A row that names a marker lets a line opt out
//! with a trailing `// <marker>: <non-empty reason>`.

use std::collections::{HashMap, HashSet};
use std::fs;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const LEDGER: &str = "tests/golden/structure.txt";
const ALL: &str = "crates/*/src src";
const TESTBED: &str = "crates/testbed/src";
const SERVERS: &str = "crates/servers/src";
const SERVERS_BUT_CONTROL: &str = "crates/servers/src !crates/servers/src/control.rs";
const RECENCY: &str = concat!(
    "crates/core/src/cache.rs crates/simfs/src/cache.rs",
    " crates/sim/src/ghost.rs crates/sim/src/recency.rs"
);
/// Where `pub_items_have_callers` looks for callers and `pub_fields_have_readers` for
/// readers: every non-test line of the program, hostbench's seams included (it pins the
/// API the benchmark drives).
const CALLERS: &str = "crates/*/src src examples crates/bench/benches benchmark/src";
/// Where both also look for users of the test harness's (`crates/check`) items and
/// fields, with the unit tests of every other crate.
const TESTS: &str = "tests crates/*/tests";
/// Table 1's untouched layers: none of them may depend on the module.
const UNTOUCHED: [&str; 4] = ["blockdev", "netbuf", "proto", "simfs"];

fn read(path: &str) -> String {
    fs::read_to_string(format!("{ROOT}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The sorted `.rs` files and subdirectories of a directory; none for a file.
fn entries(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    for e in fs::read_dir(format!("{ROOT}/{dir}")).into_iter().flatten() {
        let path = format!("{dir}/{}", e.expect("entry").file_name().to_string_lossy());
        if path.ends_with(".rs") || !path.contains('.') {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The files a spec names, sorted. Each word is a file (`file#name`: the body
/// of its `fn name` or `struct name`), a directory searched for `.rs` files
/// (`crates/*/src` is every crate's), or `!` and a path prefix left out.
fn files(spec: &str) -> Vec<String> {
    let (skip, take): (Vec<&str>, Vec<&str>) = spec.split(' ').partition(|w| w.starts_with('!'));
    let mut todo = Vec::new();
    for word in take {
        match word.split_once("/*/") {
            Some((dir, sub)) => todo.extend(entries(dir).iter().map(|c| format!("{c}/{sub}"))),
            None => todo.push(word.to_string()),
        }
    }
    let mut out = Vec::new();
    while let Some(path) = todo.pop() {
        match entries(&path) {
            inner if inner.is_empty() => out.push(path),
            inner => todo.extend(inner),
        }
    }
    out.retain(|f| !skip.iter().any(|s| f.starts_with(&s[1..])));
    out.sort();
    out
}

/// The numbered lines of `text` before its first `#[cfg(test)]`.
fn nontest(text: &str) -> Vec<(usize, &str)> {
    let lines = text.lines().enumerate().map(|(n, l)| (n + 1, l));
    let test = |l: &str| l.trim_start().starts_with("#[cfg(test)]");
    lines.take_while(|(_, l)| !test(l)).collect()
}

/// The lines of the first `fn name` or `struct name`, from its head to the
/// brace that closes the first one it opens.
fn body<'a>(lines: &[(usize, &'a str)], name: &str) -> Vec<(usize, &'a str)> {
    let heads = [format!(r"fn {name}\b"), format!(r"struct {name}\b")];
    let at = lines
        .iter()
        .position(|(_, l)| heads.iter().any(|h| matches(l, h)));
    let at = at.unwrap_or_else(|| panic!("no fn or struct {name}"));
    lines[at..=at + end(&lines[at..])].to_vec()
}

/// Where `line`'s `//` comment starts (its length if none), and the braces it
/// opens and closes, all outside string and char literals.
fn scan(line: &str) -> (usize, isize, isize) {
    let (b, mut quoted, mut i) = (line.as_bytes(), false, 0);
    let (mut opens, mut closes) = (0, 0);
    while i < b.len() {
        match b[i] {
            b'\\' if quoted => i += 1,
            b'"' => quoted = !quoted,
            b'\'' if !quoted && b.get(i + 2) == Some(&b'\'') => i += 2,
            b'\'' if !quoted && b.get(i + 1) == Some(&b'\\') => i += 3,
            b'/' if !quoted && b.get(i + 1) == Some(&b'/') => return (i, opens, closes),
            b'{' if !quoted => opens += 1,
            b'}' if !quoted => closes += 1,
            _ => {}
        }
        i += 1;
    }
    (line.len(), opens, closes)
}

/// The index in `lines` of the line that ends what `lines[0]` starts: the brace
/// closing the first one it opens, or a `;` before any opens.
fn end(lines: &[(usize, &str)]) -> usize {
    let (mut depth, mut opened) = (0, false);
    for (i, (_, l)) in lines.iter().enumerate() {
        let (cut, opens, closes) = scan(l);
        opened |= opens > 0;
        depth += opens - closes;
        if (opened && depth <= 0) || (!opened && l[..cut].trim_end().ends_with(';')) {
            return i;
        }
    }
    lines.len() - 1
}

/// Whether `line` holds `pat`: literal text in which `*` stands for any run of
/// characters and a trailing `\b` for the end of an identifier.
fn matches(line: &str, pat: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let (word, pat) = pat.strip_suffix(r"\b").map_or((false, pat), |p| (true, p));
    let (head, tail) = pat.split_once('*').unwrap_or((pat, ""));
    line.match_indices(head).any(|(at, _)| {
        let mut rest = Some(&line[at + head.len()..]);
        for part in tail.split('*') {
            rest = rest.and_then(|r| r.find(part).map(|i| &r[i + part.len()..]));
        }
        rest.is_some_and(|r| !(word && ident(r.chars().next())))
    })
}

/// The non-test lines of `text` (of `item`'s body, if given) that hold one of
/// `pats` and do not opt out with `// <marker>: <non-empty reason>`.
fn hits(path: &str, text: &str, item: Option<&str>, pats: &[&str], marker: &str) -> Vec<String> {
    let (lines, mut out) = (nontest(text), Vec::new());
    for (n, l) in item.map_or(lines.clone(), |name| body(&lines, name)) {
        let why = l.split_once(&format!("// {marker}:")).map_or("", |w| w.1);
        if pats.iter().any(|p| matches(l, p)) && (marker.is_empty() || why.trim().is_empty()) {
            out.push(format!("{path}:{n}: {}", l.trim()));
        }
    }
    out
}

/// A ledger row, and the lines it counted: `spec`'s non-test lines holding one of `pats`
/// (` | `-separated, then ` // ` and an opt-out marker), or with no patterns all of them.
fn row(spec: &str, pats: &str) -> (String, Vec<String>) {
    let mut found = Vec::new();
    if pats.is_empty() {
        let n: usize = files(spec).iter().map(|f| nontest(&read(f)).len()).sum();
        return (format!("{spec}: non-test lines = {n}"), found);
    }
    let (alts, marker) = pats.split_once(" // ").unwrap_or((pats, ""));
    let alts: Vec<&str> = alts.split(" | ").collect();
    for f in files(spec) {
        let (file, item) = f.split_once('#').map_or((&*f, None), |(f, i)| (f, Some(i)));
        found.extend(hits(file, &read(file), item, &alts, marker));
    }
    (format!("{spec}: {pats} = {}", found.len()), found)
}

/// Fails unless `rows` are `check`'s section of the golden ledger.
fn holds(check: &str, rows: &[(String, Vec<String>)]) {
    let (golden, head) = (read(LEDGER), format!("{check}: "));
    let want: Vec<&str> = golden.lines().filter(|l| l.starts_with(&head)).collect();
    let (mut got, mut stale) = (String::new(), String::new());
    for (row, found) in rows {
        let line = format!("{head}{row}");
        if !want.contains(&line.as_str()) {
            found.iter().for_each(|f| stale += &format!("\n{f}"));
        }
        got += &format!("\n{line}");
    }
    let same = want.join("\n") == got.trim_start();
    assert!(
        same,
        "{LEDGER} does not hold {check}; now:{got}\ncounted where it differs:{stale}"
    );
}

/// A manifest's package name and its dependency edges, `(line, table, crate)`.
fn edges(manifest: &str) -> (&str, Vec<(usize, &str, &str)>) {
    let (mut name, mut table, mut out) = ("", "", Vec::new());
    for (n, line) in manifest.lines().map(str::trim).enumerate() {
        let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
        if line.starts_with('[') {
            table = line;
        } else if table == "[package]" && key == "name" {
            name = line.split('"').nth(1).unwrap_or_default();
        } else if table.ends_with("dependencies]") && !key.is_empty() && !key.starts_with('#') {
            out.push((n + 1, table, key));
        }
    }
    (name, out)
}

/// Where an untouched layer's manifest names the module, as `path:line`.
fn module_edge(path: &str, manifest: &str) -> Option<String> {
    let (name, edges) = edges(manifest);
    let untouched = UNTOUCHED.contains(&name);
    let (n, ..) = edges.into_iter().find(|e| untouched && e.2 == "ncache")?;
    Some(format!("{path}:{n}: {name} -> ncache (Table 1: untouched)"))
}

/// One `#[test]` per check, named after its ledger section; rows as `row` reads them.
macro_rules! checks {
    ($($(#[$doc:meta])* $name:ident: [$(($spec:expr, $pats:expr)),* $(,)?])*) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            holds(stringify!($name), &[$(row($spec, $pats)),*]);
        }
    )*};
}

checks! {
    /// Request-path maps hash with `sim::MixMap`: a std `HashMap` probe costs ~20 ns
    /// more than one `mix64`, several per missed block; key types are inferred.
    hasher_lint: [
        ("crates/core/src crates/simfs/src crates/netbuf/src crates/servers/src/target.rs",
            "HashMap // siphash-ok"),
    ]
    /// One recency map (DESIGN.md §11, §14): `sim::RecencyMap` alone owns the
    /// stamps, filings and class heaps of all three caches. An ordered map cost
    /// a tree node every few inserts, a `Vec<Segment>` in `Chunk` an allocation
    /// per block (a `SegChain` holds one inline); one op tally, `sim::epoch`'s.
    one_recency_map: [
        ("crates/*/src src !crates/sim/src/recency.rs",
            r"RecencyHeap | fn settle_head\b | fn filed\b | order_seq"),
        (RECENCY, "BTreeMap"),
        ("crates/core/src/chunk.rs#Chunk", "Vec<Segment>"),
        ("crates/*/src src !crates/check/", "thread_local!"),
        (RECENCY, ""),
    ]
    /// One hit walk, one range path (DESIGN.md §9.2, §15): one resident walk, one
    /// per-block read walk and one allocating write walk in the file system, each
    /// interface supplying only its per-block step; one keyed READ body for NFS,
    /// kHTTPd and the lane hit path (`read_keyed`), one commit point, one block
    /// admission loop for every NCache WRITE.
    one_hit_walk_one_range_path: [
        ("crates/simfs/src/fs.rs", concat!(r"fn probe_read\b | fn read_logical_shared\b",
            r" | fn peek_inode\b | fn peek_map_block\b | fn map_block_shared\b",
            r" | fn walk_block_path\b | fn get_resident\b | fn read_resident\b")),
        ("crates/simfs/src/fs.rs", r"fn map_and_fetch\b | fn read_logical_per_block_into\b"),
        ("crates/simfs/src/fs.rs", ".fetch_block("),
        ("crates/simfs/src/fs.rs", ".map_block_alloc("),
        (ALL, concat!(r"fn unaligned_ncache_write\b | fn page_hit\b",
            r" | fn page_fetched\b | fn on_flush_write\b")),
        (SERVERS, ".walk_resident( | :walk_resident( // walk-ok"),
        (SERVERS, ".resolve_fetched( | :resolve_fetched( // walk-ok"),
        (SERVERS, ".on_nfs_write( | :on_nfs_write( // walk-ok"),
        (SERVERS, ".resolve_reply( | :resolve_reply( // walk-ok"),
    ]
    /// The daemons name no build (Table 1; DESIGN.md §3): `ServerHost` owns each build's
    /// read, write, remove, sendfile and transmit bodies; nfsd and kHTTPd keep protocol.
    daemons_name_no_build: [
        ("crates/servers/src/nfs.rs crates/servers/src/khttpd.rs",
            "ServerMode | ncache:: | use ncache | netbuf::key | .mode"),
        (SERVERS, "ServerMode | ncache:: | use ncache"),
    ]
    /// One backplane (DESIGN.md §3, §10, §12): one `Observation` literal (beside
    /// its type and a return type), a request and a reply `deliver_faulty`, each
    /// rig and host method once (generic rig code sees only the host, so a
    /// daemon's `enable_control` would be shadowed), one session body.
    one_backplane: [
        (TESTBED, "Observation { // dup-ok"),
        (TESTBED, "deliver_faulty( // dup-ok"),
        (TESTBED, r"fn adaptive_tick\b // dup-ok"),
        (TESTBED, r"fn enable_adaptive\b // dup-ok"),
        (TESTBED, r"fn metrics_report\b // dup-ok"),
        (TESTBED, r"fn new_faulted\b // dup-ok"),
        (TESTBED, r"fn quiesce\b // dup-ok"),
        (TESTBED, r"fn maybe_poison\b // dup-ok"),
        (TESTBED, r"fn set_recorder\b // dup-ok"),
        (SERVERS_BUT_CONTROL, r"fn pressure\b // dup-ok"),
        (SERVERS_BUT_CONTROL, r"fn set_fault_recovery\b // dup-ok"),
        (SERVERS_BUT_CONTROL, r"fn control_rejections\b // dup-ok"),
        (SERVERS_BUT_CONTROL, r"fn control_stats\b // dup-ok"),
        (SERVERS_BUT_CONTROL, r"fn enable_control\b // dup-ok"),
        (TESTBED, r"fn faulted_lane_op\b // dup-ok"),
        ("crates/testbed/src/sessions.rs", "faulted_exchange_with( // dup-ok"),
        (TESTBED, "+ 1) << 20"),
        ("crates/testbed/src crates/servers/src", ""),
    ]
    /// One reply path (DESIGN.md §9.2, §10, §12): one in-step `&self` hook finishes every
    /// reply (`NetCacheShards::transmit`); one materializer (`ServerHost::materialize`).
    one_reply_path: [
        ("crates/*/src", concat!("handle_message_deferred | absorb_substitution",
            " | finish_out_of_step | substitute_out_of_step | fn substituted | with_resolver",
            " | struct Metered | materialize_range | materialize_page // dup-ok")),
        ("crates/core/src", r"fn transmit\b // dup-ok"),
        (SERVERS, r"fn materialize\b // dup-ok"),
        ("crates/core/src crates/servers/src crates/testbed/src", ""),
    ]
    /// One evaluation (DESIGN.md §4): one `pub fn name(x: &Exp)` per experiment, one cell
    /// sweep (`Exp::sweep`), one list (`experiments::ALL`) that `repro` dispatches from.
    /// What an experiment claims is a tier-1 assertion over its tables
    /// (`tests/golden_figures.rs`): no `scripts/ci.sh` gate greps or awks the stdout it
    /// captured (`$TRACE_DIR/*.txt`), on the line that names the file or the one that
    /// closes an awk program. The shard count is no knob of a run: only rig params set it.
    one_evaluation: [
        ("crates/testbed/src/experiments.rs", "run_cells( // dup-ok"),
        ("crates/testbed/src/experiments.rs",
            "pub fn *_with( | pub fn *_faulted( | pub fn *_impl( // dup-ok"),
        ("crates/bench/src/bin/repro.rs", "SELECTORS // dup-ok"),
        ("crates/bench/src/bin/repro.rs", "experiments::*( // dup-ok"),
        ("scripts/ci.sh", r#"grep *.txt | awk *.txt | }' "$TRACE_DIR/ | }' \"#),
        (concat!("crates/testbed/src/experiments.rs crates/testbed/src/ablations.rs",
            " crates/bench/src/bin/repro.rs"), "shards"),
        (concat!("crates/testbed/src/experiments.rs crates/testbed/src/ablations.rs",
            " crates/bench/src/bin/repro.rs crates/bench/benches/figures.rs"), ""),
    ]
    /// Per request, not per entry (DESIGN.md §9.1): allocations do not grow with
    /// the slots a lookup walks, the frames landed or the blocks a tracker follows.
    per_request_not_per_entry: [
        (concat!("crates/simfs/src/dir.rs#find_in_block crates/simfs/src/dir.rs#free_slot",
            " crates/simfs/src/fs.rs#dir_find"), "decode_entry( | DirEntry { // dup-ok"),
        ("crates/servers/src/stack.rs",
            "header().to_vec() | header()[*].to_vec() | Segment::from_vec( // dup-ok"),
        ("crates/core/src/tracker.rs", "fn feed*(*->*Vec< // dup-ok"),
        (SERVERS, "HttpTxTracker::new() // dup-ok"),
    ]
    /// Placeholders are keys (DESIGN.md §9.1): a placeholder stores its stamp, not a slab;
    /// outside `netbuf` read it with `Segment::stamp` (`as_slice()` panics on a key-only block).
    placeholders_are_keys: [
        (ALL, "seg_written(*encode() // dup-ok"),
        ("crates/*/src src !crates/netbuf/", "KeyStamp::decode(*as_slice() // dup-ok"),
    ]
    /// One event queue (DESIGN.md §5, §14): a slab of chains under one heap, the
    /// open-loop schedule read by a cursor: spawned, arrivals would fill the heap
    /// for the whole run, the shape in which a heap lost to the tree.
    one_event_queue: [
        ("crates/testbed/src/engine.rs", "BTreeMap | Box<Chain> // dup-ok"),
        ("crates/testbed/src/engine.rs#schedule_arrivals", "spawn("),
        ("crates/testbed/src/engine.rs", ""),
    ]
}

/// Table 1 (DESIGN.md §4 T1): no untouched layer's manifest names the module; the
/// ledger holds every crate's dependency edges and non-test lines.
#[test]
fn table1() {
    let (mut rows, mut names) = (Vec::new(), Vec::new());
    for dir in entries("crates") {
        let path = format!("{dir}/Cargo.toml");
        let manifest = read(&path);
        assert_eq!(module_edge(&path, &manifest), None);
        let (name, edges) = edges(&manifest);
        for (_, table, dep) in edges {
            rows.push((format!("{name} {table} {dep}"), vec![]));
        }
        rows.push(row(&format!("{dir}/src"), ""));
        names.push(name.to_string());
    }
    rows.push(row("src", ""));
    holds("table1", &rows);
    assert!(UNTOUCHED.iter().all(|u| names.contains(&u.to_string())));
}

/// `line`'s code: the text before its `//` comment.
fn code(line: &str) -> &str {
    &line[..scan(line).0]
}

/// The identifiers (and numbers) in `code`.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `lines`' code: comments cut, `use` statements blanked.
fn code_lines(mut lines: Vec<(usize, &str)>) -> Vec<(usize, &str)> {
    let mut in_use = false;
    for (_, l) in &mut lines {
        let c = code(l);
        let t = c.trim_start();
        in_use |= t.starts_with("use ") || t.starts_with("pub use ");
        *l = if in_use { "" } else { c };
        in_use &= !c.contains(';');
    }
    lines
}

/// The kind and name of the `pub` item `code` defines, if it defines one
/// (`pub mod`, `pub use` and `pub(crate)` define none).
fn pub_item(code: &str) -> Option<(&str, &str)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let (kind, name) = rest.split_once(' ')?;
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    let ident = name.starts_with(|c: char| c.is_alphabetic() || c == '_');
    (kinds.contains(&kind) && ident).then(|| (kind, idents(name).next().unwrap_or_default()))
}

/// The type the `impl` block whose head is `code` is for.
fn impl_for(code: &str) -> Option<&str> {
    let t = code.trim_start();
    let rest = t
        .strip_prefix("unsafe ")
        .unwrap_or(t)
        .strip_prefix("impl")?;
    let rest = match rest.strip_prefix('<') {
        Some(r) => {
            let mut depth = 1;
            let at = r.find(|c| {
                depth += (c == '<') as i32 - (c == '>') as i32;
                depth == 0
            })?;
            &r[at + 1..]
        }
        None => rest.strip_prefix(' ')?,
    };
    let target = rest
        .rsplit_once(" for ")
        .map_or(rest, |(_, t)| t)
        .trim_start_matches(['&', ' ']);
    idents(target.split(['<', ' ', '{']).next()?).last()
}

/// The crate a path is in (`crates/<name>/…`), or its top directory.
fn krate(path: &str) -> &str {
    path.strip_prefix("crates/")
        .unwrap_or(path)
        .split('/')
        .next()
        .unwrap_or_default()
}

/// The `.rs` files a spec names, each with its text.
fn sources(spec: &str) -> Vec<(String, String)> {
    let rs = files(spec).into_iter().filter(|f| f.ends_with(".rs"));
    rs.map(|f| (read(&f), f)).map(|(t, f)| (f, t)).collect()
}

/// Where `code` names a path `Q::name` (`Q::<T>::name` too), as `(Q, name)`, and a method
/// call `.name(` (`.name::<T>(` too), as `(".", name)`.
fn path_uses(code: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for (at, sep) in code.match_indices("::").chain(code.match_indices('.')) {
        let Some(name) = ident_at(&code[at + sep.len()..]) else {
            continue;
        };
        let after = &code[at + sep.len() + name.len()..];
        if sep == "." {
            if !code[..at].ends_with('.') && (after.starts_with('(') || after.starts_with("::<")) {
                out.push((".", name));
            }
            continue;
        }
        let mut head = &code[..at];
        if head.ends_with('>') {
            let mut depth = 0;
            let open = head.rfind(|c| {
                depth += (c == '>') as i32 - (c == '<') as i32;
                depth == 0
            });
            head = open.and_then(|o| head[..o].strip_suffix("::")).unwrap_or("");
        }
        let q = head.rsplit(|c: char| !(c.is_alphanumeric() || c == '_')).next();
        if let Some(q) = q.filter(|q| !q.is_empty()) {
            out.push((q, name));
        }
    }
    out
}

/// The type aliases of `srcs`' non-test code, alias to type: `type A = B<…>;`, and
/// `B as A` in a `use` statement.
fn aliases(srcs: &[(String, String)]) -> HashMap<&str, &str> {
    let mut out = HashMap::new();
    for (_, text) in srcs {
        let mut in_use = false;
        for (_, l) in nontest(text) {
            let c = code(l);
            let t = c.trim_start().trim_start_matches("pub ");
            in_use |= t.starts_with("use ");
            if let Some((alias, ty)) = t.strip_prefix("type ").and_then(|r| r.split_once('=')) {
                let ty = idents(ty.split('<').next().unwrap_or_default()).last();
                out.extend(ident_at(alias).zip(ty));
            }
            for (at, _) in c.match_indices(" as ").filter(|_| in_use) {
                let ty = c[..at].rsplit(|ch: char| !(ch.is_alphanumeric() || ch == '_')).next();
                out.extend(ident_at(&c[at + 4..]).zip(ty));
            }
            in_use &= !c.contains(';');
        }
    }
    out
}

/// Whether the `fn` whose definition starts `lines` takes a receiver (`self`,
/// `&self`, `&mut self`, `self: T`).
fn has_receiver(lines: &[(usize, &str)]) -> bool {
    let sig: String = lines.iter().map(|(_, l)| *l).collect::<Vec<_>>().join(" ");
    let Some(at) = sig.find("fn ") else {
        return false;
    };
    let rest = &sig[at..];
    let mut depth = 0;
    let open = rest.find(|c| {
        depth += (c == '<') as i32 - (c == '>') as i32;
        c == '(' && depth == 0
    });
    let params = open.map_or("", |o| rest[o + 1..].trim_start());
    let params = params.trim_start_matches('&').trim_start();
    let params = match params.strip_prefix('\'') {
        Some(life) => life.split_once(' ').map_or("", |(_, r)| r),
        None => params,
    };
    let params = params.trim_start_matches("mut ");
    params.starts_with("self") && ident_at(params) == Some("self")
}

/// The `pub` items of `srcs`' `crates/*/src` files that no caller names, as
/// `path:line: definition`: `[without a reason, with one, reasons on named items]`.
/// A caller is a non-test code line of `srcs`, outside `use` statements and the
/// item's own body (for a type, its definition and its `impl` blocks), that names it
/// by path: a `fn` of an `impl Type` block needs `Type::f`, `Alias::f` or, in its own
/// file, `Self::f`; one with a receiver may be called as `.f(` instead. Any other item
/// needs its name. For the test harness (`crates/check`), any code line of `tests`
/// names its items too. An item opts out with `// test-api: <non-empty reason>` on its
/// definition line.
fn surface(srcs: &[(String, String)], tests: &[String]) -> [Vec<String>; 3] {
    let code: Vec<_> = srcs.iter().map(|(_, t)| code_lines(nontest(t))).collect();
    let lines = tests
        .iter()
        .flat_map(|t| code_lines(t.lines().enumerate().collect()));
    let tested: HashSet<&str> = lines.flat_map(|(_, l)| idents(l)).collect();
    let alias = aliases(srcs);
    let (mut named, mut paths) = (HashMap::<_, Vec<_>>::new(), HashMap::<_, Vec<_>>::new());
    let mut impls = HashMap::<_, Vec<_>>::new();
    for (f, lines) in code.iter().enumerate() {
        for (i, &(n, l)) in lines.iter().enumerate() {
            idents(l).for_each(|w| named.entry(w).or_default().push((f, n)));
            for (q, name) in path_uses(l) {
                paths.entry((q, name)).or_default().push((f, n));
            }
            if let Some(ty) = impl_for(l) {
                let last = lines[i + end(&lines[i..])].0;
                impls
                    .entry((krate(&srcs[f].0), ty))
                    .or_default()
                    .push((f, n, last));
            }
        }
    }
    let mut out = [vec![], vec![], vec![]];
    for (f, lines) in code.iter().enumerate() {
        let (path, raw) = (&srcs[f].0, srcs[f].1.lines().collect::<Vec<_>>());
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        for (i, &(n, l)) in lines.iter().enumerate() {
            let Some((kind, name)) = pub_item(l) else {
                continue;
            };
            let def = &lines[i..=i + end(&lines[i..])];
            let mut own = vec![(f, n, def[def.len() - 1].0)];
            if !["fn", "const", "static"].contains(&kind) {
                own.extend(impls.get(&(krate(path), name)).into_iter().flatten());
            }
            let outside = |&(g, m): &(usize, usize)| {
                !own.iter().any(|&(h, a, b)| g == h && (a..=b).contains(&m))
            };
            let owner = impls
                .iter()
                .filter(|((k, _), _)| *k == krate(path))
                .flat_map(|((_, ty), at)| at.iter().map(move |a| (*ty, a)))
                .filter(|(_, &(h, a, b))| h == f && a < n && n <= b)
                .max_by_key(|(_, &(_, a, _))| a)
                .map(|(ty, _)| ty);
            let uses: Vec<(usize, usize)> = match owner.filter(|_| kind == "fn") {
                Some(ty) => {
                    let quals = alias.iter().filter(|(_, t)| **t == ty).map(|(a, _)| *a);
                    let quals: Vec<&str> = quals.chain([ty, "Self"]).collect();
                    let method = has_receiver(def).then_some(".");
                    let found = quals.into_iter().chain(method).flat_map(|q| {
                        let at = paths.get(&(q, name)).into_iter().flatten();
                        at.filter(move |&&(g, _)| q != "Self" || g == f)
                    });
                    found.copied().collect()
                }
                None => named[name].clone(),
            };
            let called = uses.iter().any(outside)
                || (krate(path) == "check" && tested.contains(name));
            file_under(&mut out, path, n, raw[n - 1], called);
        }
    }
    out
}

/// Files the definition on line `n` of `path`, `raw`, under `[unused without a
/// reason, unused with one, used with one]` (a used one without a reason is fine).
fn file_under(out: &mut [Vec<String>; 3], path: &str, n: usize, raw: &str, used: bool) {
    let why = raw.split_once("// test-api:").map_or("", |w| w.1.trim());
    let at = format!("{path}:{n}: {}", raw.trim());
    match (used, why.is_empty()) {
        (false, true) => out[0].push(at),
        (false, false) => out[1].push(at),
        (true, false) => out[2].push(at),
        (true, true) => {}
    }
}

/// `check`'s three ledger rows over `found`, in its order: `head` entries that no user
/// uses (`uses.0`, e.g. `no caller names`) without and with a test-api reason, and
/// reasons on used ones (`uses.1`).
fn holds_surface(check: &str, head: &str, uses: (&str, &str), found: [Vec<String>; 3]) {
    let [bare, marked, stale] = found;
    let (none, some) = uses;
    holds(
        check,
        &[
            (format!("{head} {none} // test-api = {}", bare.len()), bare),
            (
                format!("{head} {none}, with a test-api reason = {}", marked.len()),
                marked,
            ),
            (
                format!("{head} {some}, with a test-api reason = {}", stale.len()),
                stale,
            ),
        ],
    );
}

/// The root and crate integration tests, and every crate's unit tests but the harness's.
fn test_texts() -> Vec<String> {
    let mut tests: Vec<String> = sources(TESTS).into_iter().map(|(_, t)| t).collect();
    for (_, text) in sources("crates/*/src !crates/check/") {
        let skip = nontest(&text).len();
        tests.push(text.lines().skip(skip).collect::<Vec<_>>().join("\n"));
    }
    tests
}

/// Public surface = what the system uses (DESIGN.md §3): every `pub` item is named by
/// non-test code outside its own body, or says why a test needs it; the ledger holds
/// how many do, so new test-only API shows as a golden diff.
#[test]
fn pub_items_have_callers() {
    let found = surface(&sources(CALLERS), &test_texts());
    let uses = ("no caller names", "a caller names");
    holds_surface(
        "pub_items_have_callers",
        "crates/*/src: pub items",
        uses,
        found,
    );
}

/// `code` with the insides of its string literals blanked: `"openloop.shed"` reads no field.
fn unquoted(code: &str) -> String {
    let (mut b, mut quoted, mut i) = (code.as_bytes().to_vec(), false, 0);
    let len = b.len();
    while i < len {
        match b[i] {
            b'"' => quoted = !quoted,
            b'\\' if quoted => {
                b[i..(i + 2).min(len)].fill(b' ');
                i += 1;
            }
            b'\'' if !quoted && b.get(i + 2) == Some(&b'\'') => i += 2,
            b'\'' if !quoted && b.get(i + 1) == Some(&b'\\') => i += 3,
            _ if quoted => b[i] = b' ',
            _ => {}
        }
        i += 1;
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// The leading identifier of `s`, if it is one (not a number).
fn ident_at(s: &str) -> Option<&str> {
    let name = idents(s).next().filter(|w| s.starts_with(w))?;
    name.starts_with(|c: char| c.is_alphabetic() || c == '_')
        .then_some(name)
}

/// The fields `line` reads: each `.name` that is not a method call or an assignment's
/// target (indexed too: `x.n[i] = …`, `x.n[i] += …`), unless the line writes `name` too
/// or starts a `name:` initialiser — a line that folds a field into its namesake
/// (`x.n += y.n`, `n: x.n - y.n`) reads nothing.
fn field_reads(line: &str) -> Vec<&str> {
    let (mut read, mut written) = (Vec::new(), Vec::new());
    for (at, _) in line.match_indices('.') {
        let Some(name) = ident_at(&line[at + 1..]) else {
            continue;
        };
        let after = line[at + 1 + name.len()..].trim_start();
        let mut place = after;
        while let Some(inner) = place.strip_prefix('[') {
            let mut depth = 1;
            let Some(close) = inner.find(|c| {
                depth += (c == '[') as i32 - (c == ']') as i32;
                depth == 0
            }) else {
                break;
            };
            place = inner[close + 1..].trim_start();
        }
        let ops = ["+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="];
        if after.starts_with('(') || after.starts_with("::") || line[..at].ends_with('.') {
            continue;
        } else if place.starts_with('=') && !place.starts_with("==")
            || ops.iter().any(|op| place.starts_with(op))
        {
            written.push(name);
        } else {
            read.push(name);
        }
    }
    let t = line.trim_start();
    read.retain(|n| !written.contains(n) && !t.strip_prefix(n).is_some_and(typed));
    read
}

/// Whether `rest`, what follows a name, starts its type or value (`: `, not `::`).
fn typed(rest: &str) -> bool {
    rest.starts_with(':') && !rest.starts_with("::")
}

/// The fields the struct patterns of `code` bind (`let S { a, b: c, .. } = …`, a
/// `S { a, .. } =>` arm): the field names in the braces after a capitalised name,
/// when an `=` follows the closing brace.
fn destructured(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices(" {") {
        let name = code[..at]
            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next();
        let path = code[..at].ends_with(|c: char| c.is_alphanumeric())
            && code[..at - name.map_or(0, str::len)].ends_with("::");
        if path || !name.is_some_and(|w| w.starts_with(char::is_uppercase)) {
            continue;
        }
        let inner = &code[at + 2..];
        let mut depth = 1;
        let Some(close) = inner.find(|c| {
            depth += (c == '{') as i32 - (c == '}') as i32;
            depth == 0
        }) else {
            continue;
        };
        let rest = inner[close + 1..].trim_start();
        if rest.starts_with('=') && !rest.starts_with("==") {
            let parts = inner[..close].split(',').map(str::trim);
            let parts = parts.map(|p| p.trim_start_matches("ref ").trim_start_matches("mut "));
            out.extend(parts.filter_map(ident_at));
        }
    }
    out
}

/// The `pub name: T` fields of the struct bodies in `lines`, as `(index, name)`.
fn pub_fields<'a>(lines: &[(usize, &'a str)]) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    for (i, &(_, l)) in lines.iter().enumerate() {
        let t = l.trim_start();
        let t = t
            .strip_prefix("pub(crate) ")
            .or(t.strip_prefix("pub "))
            .unwrap_or(t);
        if !t.starts_with("struct ") {
            continue;
        }
        for (j, &(_, f)) in lines
            .iter()
            .enumerate()
            .take(i + end(&lines[i..]) + 1)
            .skip(i + 1)
        {
            let rest = f.trim_start().strip_prefix("pub ").unwrap_or_default();
            let Some(name) = ident_at(rest) else {
                continue;
            };
            if typed(rest[name.len()..].trim_start()) {
                out.push((j, name));
            }
        }
    }
    out
}

/// The `pub` fields of `srcs`' `crates/*/src` files that no reader reads, as
/// `path:line: definition`: `[without a reason, with one, reasons on read fields]`.
/// A reader is a non-test code line of `srcs` that reads `.name` (`field_reads`) or
/// binds it in a struct pattern (`destructured`); for the test harness (`crates/check`),
/// any code line of `tests` too. A field opts out with `// test-api: <non-empty reason>`
/// on its line.
fn field_surface(srcs: &[(String, String)], tests: &[String]) -> [Vec<String>; 3] {
    let code: Vec<Vec<(usize, String)>> = srcs
        .iter()
        .map(|(_, t)| {
            let lines = code_lines(nontest(t)).into_iter();
            lines.map(|(n, l)| (n, unquoted(l))).collect()
        })
        .collect();
    let read: HashSet<String> = code
        .iter()
        .flat_map(|f| readers(f.iter().map(|(_, l)| l.as_str())))
        .collect();
    let test_code: Vec<String> = tests
        .iter()
        .flat_map(|t| code_lines(t.lines().enumerate().collect()))
        .map(|(_, l)| unquoted(l))
        .collect();
    let tested = readers(test_code.iter().map(String::as_str));
    let mut out = [vec![], vec![], vec![]];
    for ((path, text), lines) in srcs.iter().zip(&code) {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        let lines: Vec<(usize, &str)> = lines.iter().map(|(n, l)| (*n, l.as_str())).collect();
        let raw: Vec<&str> = text.lines().collect();
        for (i, name) in pub_fields(&lines) {
            let n = lines[i].0;
            let read = read.contains(name) || (krate(path) == "check" && tested.contains(name));
            file_under(&mut out, path, n, raw[n - 1], read);
        }
    }
    out
}

/// The fields `lines` read (`field_reads`) or bind in a struct pattern (`destructured`).
fn readers<'a>(lines: impl Iterator<Item = &'a str>) -> HashSet<String> {
    let lines: Vec<&str> = lines.collect();
    let mut out: HashSet<String> = lines
        .iter()
        .flat_map(|l| field_reads(l))
        .map(String::from)
        .collect();
    out.extend(destructured(&lines.join(" ")).into_iter().map(String::from));
    out
}

/// Public fields = what the system reads (DESIGN.md §3): every `pub` field is read by
/// non-test code (a fold into its own namesake or an assignment is no read), or says
/// why a test needs it; the ledger holds how many do.
#[test]
fn pub_fields_have_readers() {
    let found = field_surface(&sources(CALLERS), &test_texts());
    let uses = ("no reader reads", "a reader reads");
    holds_surface(
        "pub_fields_have_readers",
        "crates/*/src: pub fields",
        uses,
        found,
    );
}

/// Where `option_fields` looks for option structs: the program, not the test harness
/// (`crates/check`'s `Config` tunes the property runner, not a run).
const OPTIONS: &str = "crates/*/src !crates/check/";
/// The name endings of an option struct.
const OPTION_SUFFIXES: [&str; 5] = ["Options", "Config", "Params", "Policy", "Spec"];

/// Options = what a run sets (DESIGN.md §3): one row per option struct (a `pub struct`
/// whose name ends in one of `OPTION_SUFFIXES`) with its `pub` fields, and their total.
/// A new knob shows as a golden diff; a knob that every caller sets to one value is a
/// constant instead.
#[test]
fn option_fields() {
    let (mut rows, mut all) = (Vec::new(), Vec::new());
    for (path, text) in sources(OPTIONS) {
        let lines = code_lines(nontest(&text));
        for (i, &(_, l)) in lines.iter().enumerate() {
            let Some(("struct", name)) = pub_item(l) else {
                continue;
            };
            if !OPTION_SUFFIXES.iter().any(|s| name.ends_with(s)) {
                continue;
            }
            let body = &lines[i..=i + end(&lines[i..])];
            let fields: Vec<String> = pub_fields(body)
                .into_iter()
                .map(|(j, field)| format!("{path}:{}: {name}::{field}", body[j].0))
                .collect();
            rows.push((format!("{path}#{name}: pub fields = {}", fields.len()), fields.clone()));
            all.extend(fields);
        }
    }
    rows.push((format!("{OPTIONS}: option fields = {}", all.len()), all));
    holds("option_fields", &rows);
}

/// Whether `text`'s first `#[cfg(test)]`, if it has one, gates a `mod … {` that
/// closes at the end of the file.
fn tests_trail(text: &str) -> bool {
    let lines: Vec<(usize, &str)> = text.lines().enumerate().collect();
    let Some(rest) = lines.get(nontest(text).len() + 1..) else {
        return true;
    };
    let head = rest.first().map_or("", |(_, l)| code(l).trim());
    head.starts_with("mod ")
        && head.ends_with('{')
        && rest[end(rest) + 1..]
            .iter()
            .all(|(_, l)| l.trim().is_empty())
}

/// `nontest` stops at a file's first `#[cfg(test)]`, so that must gate the test `mod`
/// that ends the file: a helper gated mid-file would hide the rest of the file from
/// every row above. (`benchmark/` is its own workspace and no ledger row counts it.)
#[test]
fn the_first_cfg_test_gates_the_trailing_test_mod() {
    let spec = "crates/*/src src examples crates/bench/benches";
    let early: Vec<String> = sources(spec)
        .into_iter()
        .filter(|(_, t)| !tests_trail(t))
        .map(|f| f.0)
        .collect();
    assert!(
        early.is_empty(),
        "a #[cfg(test)] that is not the file's trailing test mod: {early:?}"
    );
}

#[test]
fn a_cfg_test_before_the_trailing_mod_fails() {
    assert!(tests_trail(
        "fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n"
    ));
    assert!(tests_trail("fn a() {}\n"));
    assert!(!tests_trail(
        "#[cfg(test)]\nfn helper() {}\npub fn hidden() {}\n"
    ));
    assert!(!tests_trail(
        "#[cfg(test)]\nmod tests {\n}\npub fn hidden() {}\n"
    ));
}

#[test]
fn an_item_named_only_by_a_use_its_own_impl_or_a_test_has_no_caller() {
    let lib = concat!(
        "pub struct A;\nimpl Default for A {\n    fn default() -> A {\n        A\n    }\n}\n",
        "pub fn b() {}\npub fn c() {}\npub fn d() {} // test-api:\npub fn e() {} // test-api: why\n",
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        super::c();\n    }\n}\n",
    );
    let uses = "pub use x::b;\nuse x::{\n    A,\n};\n";
    let srcs =
        [("crates/x/src/lib.rs", lib), ("src/lib.rs", uses)].map(|(f, t)| (f.into(), t.into()));
    let at = |n: usize, line: &str| format!("crates/x/src/lib.rs:{n}: {line}");
    let [bare, marked, stale] = surface(&srcs, &[]);
    let want = [
        at(1, "pub struct A;"),
        at(7, "pub fn b() {}"),
        at(8, "pub fn c() {}"),
    ];
    assert_eq!(
        bare,
        [&want[..], &[at(9, "pub fn d() {} // test-api:")]].concat()
    );
    assert_eq!(
        (marked, stale),
        (vec![at(10, "pub fn e() {} // test-api: why")], vec![])
    );
}

#[test]
fn a_caller_in_the_benchmark_an_example_or_a_harness_test_counts() {
    let lib = "pub fn f() {} // test-api: stale\npub fn g() {}\npub fn h() {}\n";
    let srcs = [
        ("crates/x/src/lib.rs", lib),
        ("benchmark/src/main.rs", "fn main() {\n    x::f();\n}\n"),
        ("examples/e.rs", "fn main() {\n    x::g();\n}\n"),
        ("crates/check/src/gen.rs", "pub fn k() {}\n"),
    ];
    let srcs = srcs.map(|(f, t)| (f.into(), t.into()));
    let [bare, marked, stale] = surface(&srcs, &["fn t() {\n    k();\n}\n".into()]);
    assert_eq!(bare, ["crates/x/src/lib.rs:3: pub fn h() {}"]);
    assert_eq!(
        (marked, stale),
        (
            vec![],
            vec!["crates/x/src/lib.rs:1: pub fn f() {} // test-api: stale".into()]
        )
    );
}

#[test]
fn a_same_named_local_or_field_is_no_caller() {
    let lib = concat!(
        "pub struct S {\n    len: u64,\n}\n",
        "impl S {\n    pub fn new() -> S {\n        S { len: 0 }\n    }\n",
        "    pub fn open() -> S {\n        Self::new()\n    }\n",
        "    pub fn len(&self) -> u64 {\n        self.len\n    }\n",
        "    pub fn count(&self) -> u64 {\n        0\n    }\n",
        "    pub fn stale() {}\n    pub fn by_alias() {}\n",
        "    pub fn by_path(&self) {}\n    pub fn by_turbofish() {}\n}\n",
    );
    let user = concat!(
        "type Alias = x::S;\nfn main() {\n    let s = x::S::open();\n",
        "    let count = s.len;\n    let stale = count;\n    Alias::by_alias();\n",
        "    [&s].map(S::by_path);\n    S::<u8>::by_turbofish();\n}\n",
    );
    let srcs = [("crates/x/src/lib.rs", lib), ("src/main.rs", user)];
    let srcs = srcs.map(|(f, t)| (f.into(), t.into()));
    let [bare, marked, stale] = surface(&srcs, &[]);
    let at = |n: usize, line: &str| format!("crates/x/src/lib.rs:{n}: {line}");
    let want = [
        at(11, "pub fn len(&self) -> u64 {"),
        at(14, "pub fn count(&self) -> u64 {"),
        at(17, "pub fn stale() {}"),
    ];
    assert_eq!(bare, want);
    assert_eq!((marked, stale), (vec![], vec![]));
}

#[test]
fn a_field_only_written_folded_or_tested_has_no_reader() {
    let lib = concat!(
        "pub struct S {\n    pub tested: u64,\n    pub written: u64,\n    pub folded: u64,\n",
        "    pub quoted: u64,\n    pub bare: u64, // test-api:\n",
        "    pub stale: u64, // test-api: read below\n}\n",
        "impl S {\n    pub fn absorb(&mut self, o: &S) {\n        self.folded += o.folded;\n",
        "        self.written = 1;\n    }\n",
        "    pub fn delta_since(&self, p: &S) -> S {\n        S {\n",
        "            folded: self.folded - p.folded,\n            ..*self\n        }\n    }\n",
        "    pub fn log(&self) {\n        emit(\"s.quoted\", self.stale <= 1);\n    }\n}\n",
        "#[cfg(test)]\nmod tests {\n    fn t(s: super::S) -> u64 {\n        s.tested\n    }\n}\n",
    );
    let srcs = [("crates/x/src/lib.rs".into(), lib.into())];
    let at = |n: usize, line: &str| format!("crates/x/src/lib.rs:{n}: {line}");
    let [bare, marked, stale] =
        field_surface(&srcs, &["fn t(s: S) -> u64 {\n    s.tested\n}\n".into()]);
    let want = [
        at(2, "pub tested: u64,"),
        at(3, "pub written: u64,"),
        at(4, "pub folded: u64,"),
        at(5, "pub quoted: u64,"),
        at(6, "pub bare: u64, // test-api:"),
    ];
    assert_eq!(bare, want);
    assert_eq!(
        (marked, stale),
        (
            vec![],
            vec![at(7, "pub stale: u64, // test-api: read below")]
        )
    );
}

#[test]
fn an_indexed_write_is_no_read() {
    let lib = concat!(
        "pub struct S {\n    pub set: Vec<u64>,\n    pub bumped: Vec<u64>,\n",
        "    pub nested: Vec<Vec<u64>>,\n    pub read: Vec<u64>,\n}\n",
        "impl S {\n    pub fn f(&mut self, i: usize) -> u64 {\n",
        "        self.set[i] = 1;\n        self.bumped[i] += 1;\n",
        "        self.nested[i][self.read[i] as usize] = 2;\n        self.read[i] == 0\n    }\n}\n",
    );
    let srcs = [("crates/x/src/lib.rs".into(), lib.into())];
    let at = |n: usize, line: &str| format!("crates/x/src/lib.rs:{n}: {line}");
    let [bare, marked, stale] = field_surface(&srcs, &[]);
    let want = [
        at(2, "pub set: Vec<u64>,"),
        at(3, "pub bumped: Vec<u64>,"),
        at(4, "pub nested: Vec<Vec<u64>>,"),
    ];
    assert_eq!(bare, want);
    assert_eq!((marked, stale), (vec![], vec![]));
}

#[test]
fn a_field_exported_destructured_or_read_by_the_benchmark_has_a_reader() {
    let lib = concat!(
        "pub struct Snap {\n    pub hits: u64,\n    pub misses: u64,\n    pub bench: u64,\n",
        "    pub example: u64,\n    pub kept: u64, // test-api: a reason\n}\n",
        "impl StatsSnapshot for Snap {\n    fn counters(&self) -> Vec<(&'static str, u64)> {\n",
        "        vec![(\"hits\", self.hits)]\n    }\n}\n",
        "pub fn misses(s: &Snap) -> u64 {\n    let Snap {\n        misses, ..\n    } = *s;\n",
        "    misses\n}\n",
    );
    let srcs = [
        ("crates/x/src/lib.rs", lib),
        (
            "benchmark/src/main.rs",
            "fn main() {\n    let _ = x::snap().bench;\n}\n",
        ),
        (
            "examples/e.rs",
            "fn main() {\n    assert!(x::snap().example >= 1);\n}\n",
        ),
        (
            "crates/check/src/gen.rs",
            "pub struct G {\n    pub k: u64,\n}\n",
        ),
    ];
    let srcs = srcs.map(|(f, t)| (f.into(), t.into()));
    let [bare, marked, stale] = field_surface(&srcs, &["fn t(g: G) -> u64 {\n    g.k\n}\n".into()]);
    assert_eq!(bare, Vec::<String>::new());
    assert_eq!(
        (marked, stale),
        (
            vec!["crates/x/src/lib.rs:6: pub kept: u64, // test-api: a reason".into()],
            vec![]
        )
    );
}

#[test]
fn a_marker_without_a_reason_does_not_opt_out() {
    let text = "HashMap // siphash-ok:\nHashMap // siphash-ok: a reason\n";
    let found = hits("x.rs", text, None, &["HashMap"], "siphash-ok");
    assert_eq!(found, ["x.rs:1: HashMap // siphash-ok:"]);
    assert_eq!(hits("x.rs", text, None, &["HashMap"], "").len(), 2);
}

#[test]
fn text_after_the_first_cfg_test_is_not_scanned() {
    let text = "use std::collections::BTreeMap;\n#[cfg(test)]\nmod t {\n    use BTreeMap;\n}\n";
    assert_eq!(hits("x.rs", text, None, &["BTreeMap"], "").len(), 1);
}

#[test]
fn the_body_extractor_stops_at_the_matching_brace() {
    let text = "fn f(x: u8) {\n    if x {\n        { spawn(1); }\n    }\n}\nfn g() { spawn(2); }\n";
    let found = hits("x.rs", text, Some("f"), &["spawn("], "");
    assert_eq!(found, ["x.rs:3: { spawn(1); }"]);
    assert_eq!(body(&nontest(text), "f").len(), 5);
}

#[test]
fn an_untouched_layer_depending_on_the_module_fails() {
    for name in ["blockdev", "netbuf", "proto", "simfs", "servers"] {
        let manifest = format!("[package]\nname = \"{name}\"\n[dependencies]\nsim = \"1\"\n");
        assert_eq!(module_edge("x", &manifest), None);
        let edge = module_edge("x", &format!("{manifest}ncache.workspace = true\n"));
        assert_eq!(edge.is_some(), name != "servers", "{name}: {edge:?}");
    }
}
