//! Witness test for "a cached value owns exactly its bytes": values
//! decoded out of one read chunk and passed through
//! [`fresca_net::pin::repin_small`] (what every cache-install point
//! does) each own an exact, unshared allocation — the 16 KiB one
//! because the codec routed it out of the chunk, the 100 B one because
//! the install copied it — while `GetResp` payloads, which clients
//! decode and drop, stay zero-copy views of the chunk.

use bytes::{Bytes, BytesMut};
use fresca_net::msg::{GetStatus, Message, RequestId};
use fresca_net::payload;
use fresca_net::pin::{repin_small, DEFAULT_PIN_THRESHOLD};
use fresca_net::FrameCodec;

/// Feed `frames` to a decoder as one simulated `read()` chunk and
/// return the decoded messages, exactly like the reactor's
/// scratch-buffer feed.
fn decode_chunk(frames: &[u8]) -> Vec<Message> {
    let mut codec = FrameCodec::new();
    codec.feed(frames);
    let mut out = Vec::new();
    while let Some(msg) = codec.next().expect("well-formed frames") {
        out.push(msg);
    }
    out
}

fn value_of(msg: &Message) -> Bytes {
    match msg {
        Message::PutReq { value, .. } | Message::GetResp { value, .. } => value.clone(),
        other => panic!("expected a value-carrying message, got {other:?}"),
    }
}

#[test]
fn small_and_large_puts_from_one_chunk_are_cached_exact_and_unshared() {
    // One receive chunk carrying a 100 B put and a 16 KiB put — the
    // shape a pipelining client produces and one read() delivers.
    let mut wire = BytesMut::new();
    for (key, len) in [(1, 100), (2, 16 * 1024)] {
        let value = payload::pattern(key, len);
        FrameCodec::encode(&Message::PutReq { id: RequestId(key), key, value, ttl: 0 }, &mut wire);
    }
    let msgs = decode_chunk(&wire);
    assert_eq!(msgs.len(), 2);
    let cached: Vec<Bytes> =
        msgs.iter().map(|m| repin_small(value_of(m), DEFAULT_PIN_THRESHOLD)).collect();

    for (key, value) in [1, 2].into_iter().zip(&cached) {
        assert!(payload::verify(key, value), "key {key}: bytes survive decode and install");
        assert_eq!(
            value.allocation_size(),
            value.len(),
            "key {key}: the cached value owns exactly its bytes"
        );
    }
    assert!(!cached[0].shares_allocation_with(&cached[1]), "no shared chunk between entries");
}

#[test]
fn get_responses_from_one_chunk_still_share_it() {
    let mut wire = BytesMut::new();
    for key in [1, 2] {
        let resp = Message::GetResp {
            id: RequestId(key),
            key,
            version: 1,
            value: payload::pattern(key, 4096),
            age: 0,
            status: GetStatus::Fresh,
        };
        FrameCodec::encode(&resp, &mut wire);
    }
    let msgs = decode_chunk(&wire);
    let (a, b) = (value_of(&msgs[0]), value_of(&msgs[1]));
    assert!(a.shares_allocation_with(&b), "GetResp payloads are sliced, not copied");
    assert!(payload::verify(1, &a) && payload::verify(2, &b));
}
