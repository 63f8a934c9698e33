//! Wire codec throughput — grounds the per-byte serde constants used by
//! the Table 1 cost model.

use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fresca_net::{FrameCodec, Message, UpdateItem};

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let cases: Vec<(&str, Message)> = vec![
        ("ack", Message::Ack { seq: 1 }),
        ("invalidate_32keys", Message::Invalidate { seq: 1, keys: (0..32).collect() }),
        (
            "update_32x512B",
            Message::Update {
                seq: 1,
                items: (0..32)
                    .map(|i| UpdateItem {
                        key: i,
                        version: 1,
                        value: fresca_net::payload::pattern(i, 512),
                    })
                    .collect(),
            },
        ),
        (
            "fetch_resp_4KiB",
            Message::FetchResp { key: 1, version: 1, value: fresca_net::payload::pattern(1, 4096) },
        ),
    ];
    for (name, msg) in cases {
        group.throughput(Throughput::Bytes(msg.wire_size() as u64));
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(msg.wire_size());
                FrameCodec::encode(black_box(&msg), &mut buf);
                black_box(buf)
            });
        });
        let mut encoded = BytesMut::new();
        FrameCodec::encode(&msg, &mut encoded);
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| {
                let mut codec = FrameCodec::new();
                codec.feed(black_box(&encoded));
                black_box(codec.next().unwrap().unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
