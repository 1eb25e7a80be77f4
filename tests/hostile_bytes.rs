//! Hostile bytes into both daemons and into the trace reader.
//!
//! Valid NFS calls of every procedure and valid HTTP GETs, then mutated:
//! byte flips, truncations, appended junk and edits of their length
//! fields. Every datagram goes through `NfsRig::handle_raw` /
//! `KhttpdRig::handle_raw` in all three builds, and each must leave the
//! server standing: no panic, a reply that decodes as an RPC reply or an
//! HTTP status line, and an NCache shard set whose invariants hold.
//!
//! Exported traces, mutated the same way or replaced by arbitrary text,
//! go through `obs::json::parse` and both trace validators, which must
//! return, never panic or overflow the stack.

use check::gen::*;
use check::{prop_assert, property, PropResult};
use netbuf::{CopyLedger, NetBuf, Segment};
use obs::{EventKind, StageNs};
use proto::http::HttpResponseHeader;
use proto::nfs;
use proto::rpc::{RpcCall, RpcReply, REPLY_LEN};
use servers::initiator::IscsiInitiator;
use servers::nfs::ino_to_fh;
use servers::ServerMode;
use simfs::Filesystem;
use testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use testbed::nfs_rig::{NfsRig, NfsRigParams};

/// One datagram: `(request, mutation, position, byte, junk)`.
type Step = (u8, u8, u64, u8, Vec<u8>);

/// The valid requests: the eight NFS procedures, then two GETs.
const NFS_REQUESTS: u8 = 8;
const REQUESTS: u8 = NFS_REQUESTS + 2;

/// Length-field values worth trying: empty, tiny, huge, sign-flipped.
const LENGTHS: [u32; 6] = [0, 1, 4097, 0x7fff_ffff, 0x8000_0000, u32::MAX];

fn step() -> impl Gen<Value = Step> {
    (
        ints(0u8..REQUESTS),
        ints(0u8..5),
        any_u64(),
        any_u8(),
        bytes(0..40),
    )
}

/// A buffer's bytes as they travel: built headers, then payload.
fn flatten(buf: &NetBuf, ledger: &CopyLedger) -> Vec<u8> {
    servers::stack::deliver(buf, ledger).copy_payload_to_vec()
}

/// `bytes` as a datagram shaped like the one they came from: the first
/// `header` bytes landed, the rest one payload segment.
fn rebuild(bytes: &[u8], header: usize, ledger: &CopyLedger) -> NetBuf {
    let mut buf = NetBuf::new(ledger);
    let split = header.min(bytes.len());
    buf.land(&bytes[..split]);
    if split < bytes.len() {
        buf.append_segment(Segment::from_vec(bytes[split..].to_vec()));
    }
    buf
}

/// Applies `mutation` to `bytes`. Mutation 4 edits a length field: for
/// an NFS call, any 32-bit word past the RPC header (the counts, offsets
/// and name lengths sit there); for a GET, a `Content-Length` header.
fn mutate(bytes: &mut Vec<u8>, nfs: bool, (mutation, pos, byte, junk): (u8, u64, u8, &[u8])) {
    let at = |len: usize| (pos % len.max(1) as u64) as usize;
    match mutation {
        1 if !bytes.is_empty() => {
            let i = at(bytes.len());
            bytes[i] ^= byte | 1;
        }
        2 => bytes.truncate(at(bytes.len() + 1)),
        3 => bytes.extend_from_slice(junk),
        4 if nfs => {
            let words = bytes.len().saturating_sub(proto::rpc::CALL_LEN) / 4;
            if words > 0 {
                let i = proto::rpc::CALL_LEN + 4 * at(words);
                let value = LENGTHS[usize::from(byte) % LENGTHS.len()];
                bytes[i..i + 4].copy_from_slice(&value.to_be_bytes());
            }
        }
        4 => {
            let line_end = bytes
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| i + 1);
            let value = LENGTHS[usize::from(byte) % LENGTHS.len()];
            let field = format!("Content-Length: {value}\r\n");
            bytes.splice(line_end..line_end, field.into_bytes());
        }
        _ => {}
    }
}

/// The NCache shard set's invariants, under that build.
fn ncache_holds(module: Option<sim::Shared<ncache::NcacheModule>>) -> PropResult {
    if let Some(module) = module {
        let verdict = module.borrow().cache_handle().check_invariants();
        prop_assert!(verdict.is_ok(), "NCache invariants: {:?}", verdict);
    }
    Ok(())
}

fn nfs_request(rig: &mut NfsRig, which: u8, fh: u64, xid: u32) -> NetBuf {
    let root = ino_to_fh(Filesystem::<IscsiInitiator>::ROOT);
    let client = rig.client_mut();
    match which {
        0 => {
            let mut b = NetBuf::new(&CopyLedger::new());
            b.push_header(&RpcCall::nfs(xid, nfs::proc::NULL).encode_array());
            b
        }
        1 => client.getattr_request(fh),
        2 => client.lookup_request(root, "f"),
        3 => client.read_request(fh, 4096, 8192),
        4 => client.write_request(fh, 8192, &[0x5a; 600]),
        5 => client.create_request(root, "scratch"),
        6 => client.remove_request(root, "scratch"),
        _ => client.readdir_request(root, 0, 4096),
    }
}

fn nfs_survives(mode: ServerMode, steps: &[Step]) -> PropResult {
    let mut rig = NfsRig::new(
        mode,
        NfsRigParams {
            volume_blocks: 4096,
            fs_cache_blocks: 32,
            ncache_bytes: 256 << 10,
            inode_count: 256,
            ..NfsRigParams::default()
        },
    );
    let fh = rig.create_file("f", 64 << 10);
    let ledger = CopyLedger::new();
    for (i, (which, mutation, pos, byte, junk)) in steps.iter().enumerate() {
        let req = nfs_request(&mut rig, which % NFS_REQUESTS, fh, i as u32);
        let mut bytes = flatten(&req, &ledger);
        mutate(&mut bytes, true, (*mutation, *pos, *byte, junk));
        let reply = rig.handle_raw(rebuild(&bytes, req.linear().len(), &ledger));
        let reply = flatten(&reply, &ledger);
        let decoded = RpcReply::decode(&reply);
        prop_assert!(decoded.is_ok(), "{}: datagram {} got no RPC reply", mode, i);
        // An unmutated GETATTR or READ of the file is served.
        if *mutation == 0 && matches!(which % NFS_REQUESTS, 1 | 3) {
            let status = reply.get(REPLY_LEN..REPLY_LEN + 4);
            prop_assert!(
                status == Some(&nfs::NFS_OK.to_be_bytes()[..]),
                "{}: valid call failed",
                mode
            );
        }
        ncache_holds(rig.module())?;
    }
    Ok(())
}

fn http_survives(mode: ServerMode, steps: &[Step]) -> PropResult {
    let mut rig = KhttpdRig::new(
        mode,
        KhttpdRigParams {
            volume_blocks: 4096,
            fs_cache_blocks: 32,
            ncache_bytes: 256 << 10,
            inode_count: 256,
            ..KhttpdRigParams::default()
        },
    );
    rig.publish("index.html", 20_000);
    let ledger = CopyLedger::new();
    let client = servers::khttpd::HttpClient::new(&ledger);
    for (i, (which, mutation, pos, byte, junk)) in steps.iter().enumerate() {
        let path = if which % 2 == 0 {
            "/index.html"
        } else {
            "/missing.html"
        };
        let req = client.get_request(path);
        let mut bytes = flatten(&req, &ledger);
        mutate(&mut bytes, false, (*mutation, *pos, *byte, junk));
        let reply = rig.handle_raw(rebuild(&bytes, req.linear().len(), &ledger));
        let decoded = HttpResponseHeader::decode(&flatten(&reply, &ledger));
        prop_assert!(
            decoded.is_ok(),
            "{}: datagram {} got no HTTP status line",
            mode,
            i
        );
        if *mutation == 0 {
            let want = if which % 2 == 0 { 200 } else { 404 };
            prop_assert!(
                decoded.is_ok_and(|(h, _)| h.status == want),
                "{}: valid GET",
                mode
            );
        }
        ncache_holds(rig.module())?;
    }
    Ok(())
}

property! {
    #![cases(24)]

    /// Every NFS procedure, valid and mutated, in every build.
    fn prop_nfs_daemon_survives_hostile_datagrams(steps in vec_of(step(), 1..24)) {
        for mode in ServerMode::ALL {
            nfs_survives(mode, &steps)?;
        }
    }

    /// GETs of a present and a missing page, valid and mutated, in every
    /// build.
    fn prop_http_daemon_survives_hostile_requests(steps in vec_of(step(), 1..24)) {
        for mode in ServerMode::ALL {
            http_survives(mode, &steps)?;
        }
    }
}

/// Characters JSON is made of, plus a sign and a surrogate's hex digits.
const JSON_CHARS: &str = "[]{}\",:\\/ \nu0123456789abcdefABCDEF+-.eEtrulsn";

/// One trace document: `(mutation, jsonl?, position, byte, text, depth)`.
type TraceStep = (u8, bool, u64, u8, String, u16);

fn trace_step() -> impl Gen<Value = TraceStep> {
    (
        ints(0u8..5),
        any_bool(),
        any_u64(),
        any_u8(),
        string_of(JSON_CHARS, 0..48),
        ints(0u16..20_000),
    )
}

/// A trace holding one event of every kind, exported both ways:
/// `(jsonl, chrome)`.
fn sample_trace() -> (String, String) {
    let r = obs::Recorder::new();
    r.enable(obs::TraceConfig::default());
    r.set_now(1_500);
    let span = r.begin_span("read", "ncache", 4096);
    r.emit(EventKind::CacheAccess { tier: "fs", hit: false });
    r.emit(EventKind::CacheInsert { tier: "ncache", dirty: true });
    r.emit(EventKind::Eviction { tier: "ncache", class: "lbn", dirty: false });
    r.emit(EventKind::Remap);
    r.emit(EventKind::Substitution { substituted: 2, missing: 1 });
    r.emit(EventKind::Writeback { blocks: 8 });
    r.emit(EventKind::Copy { category: "payload", bytes: 4096 });
    r.end_span(span);
    r.emit(EventKind::Request {
        op: "read",
        path: "disk",
        start_ns: 1_500,
        end_ns: 9_000,
        stages: vec![
            StageNs { stage: "app-cpu", queue_ns: 500, service_ns: 2_000 },
            StageNs { stage: "disk", queue_ns: 0, service_ns: 5_000 },
        ],
    });
    r.emit(EventKind::ResourceBusy {
        resource: "app-cpu".to_string(),
        slot: 0,
        start_ns: 2_000,
        end_ns: 4_000,
    });
    r.emit(EventKind::Gauge { name: "throughput_mbs", value: 12.5 });
    let events = r.events();
    (obs::export_jsonl(&events), obs::export_chrome_trace(&events))
}

/// Applies a [`TraceStep`] to the exported documents.
fn hostile_trace(
    (jsonl, chrome): &(String, String),
    (mutation, pick_jsonl, pos, byte, text, depth): &TraceStep,
) -> String {
    let mut bytes = if *pick_jsonl { jsonl } else { chrome }.clone().into_bytes();
    let at = (*pos % (bytes.len() as u64 + 1)) as usize;
    match mutation {
        0 => return text.clone(),
        1 => {
            let i = at.min(bytes.len() - 1);
            bytes[i] ^= byte | 1;
        }
        2 => bytes.truncate(at),
        3 => {
            bytes.splice(at..at, text.bytes());
        }
        _ => {
            let open = if byte % 2 == 0 { "[" } else { "{\"k\":" };
            let mut nested = open.repeat(usize::from(*depth)).into_bytes();
            nested.extend_from_slice(&bytes[..at]);
            bytes = nested;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

property! {
    #![cases(256)]

    /// Arbitrary text and mutated exports never panic the trace reader:
    /// the parser and both validators return `Ok` or `Err`.
    fn prop_trace_reader_survives_hostile_files(steps in vec_of(trace_step(), 1..8)) {
        let trace = sample_trace();
        prop_assert!(obs::validate_jsonl(&trace.0).is_ok());
        prop_assert!(obs::validate_chrome_trace(&trace.1).is_ok());
        for step in &steps {
            let text = hostile_trace(&trace, step);
            let _ = obs::json::parse(&text);
            if let Ok(n) = obs::validate_jsonl(&text) {
                prop_assert!(n <= text.lines().count());
            }
            let _ = obs::validate_chrome_trace(&text);
        }
    }
}
