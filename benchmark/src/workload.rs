//! The five workloads and their seeded op streams.
//!
//! `--seed` is the only randomness: it drives one SplitMix64 stream per
//! generator (reader, writer). Key identity and per-key value sizes are
//! fixed functions of the key rank, *not* of the seed, so which event
//! loop owns the hot keys and how many bytes the working set holds do not
//! move between seeds — only the order of operations does.

/// Wire staleness bound on every get: far beyond any run, so no read is
/// refusable by age (a tight wire bound would act as a TTL).
pub const GET_BOUND_NS: u64 = 120_000_000_000;
/// TTL on every put: likewise beyond the run, so nothing expires.
pub const PUT_TTL_NS: u64 = 300_000_000_000;
/// Closed-loop load: connections × requests in flight per connection.
pub const CONNS: usize = 2;
pub const WINDOW: usize = 32;
/// Paced stages (ops/s): the end-to-end latency comes from the middle one.
pub const STAGES: [u32; 3] = [20_000, 40_000, 80_000];
/// p99 latency limit for `paced.max_rate_ok`.
pub const LATENCY_LIMIT_US: f64 = 1000.0;
/// Store-push flush interval and the freshness target the oracle judges
/// by (4× the flush interval).
pub const FLUSH_INTERVAL_MS: u64 = 50;
pub const FRESHNESS_TARGET_NS: u64 = 200_000_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sizes {
    Fixed(u32),
    /// Log-uniform over `[lo, hi]`, a fixed function of the key.
    LogUniform {
        lo: u32,
        hi: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `CONNS` × `WINDOW` requests kept in flight by one generator thread.
    Closed,
    /// One paced reader; sends are scheduled regardless of replies.
    Paced,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub load: Load,
    pub event_loops: usize,
    pub capacity_entries: usize,
    /// Node runs with `--origin` (an in-process origin listener).
    pub origin: bool,
    pub keys: u64,
    pub zipf: f64,
    /// Share of ops that are puts.
    pub put_share: f64,
    pub sizes: Sizes,
    /// Keys written (or, with an origin, read) before the window opens.
    pub prefill: u64,
    /// Store writes per second pushed through `StorePusher` (0 = none).
    pub store_writes_per_s: u32,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "hot-small",
        why: "minimal path: per-frame tick/read/decode/slab-hit/encode/writev cost; no forwarding, eviction, origin or big payloads",
        load: Load::Closed,
        event_loops: 1,
        capacity_entries: 65_536,
        origin: false,
        keys: 4096,
        zipf: 0.99,
        put_share: 0.10,
        sizes: Sizes::Fixed(64),
        prefill: 4096,
        store_writes_per_s: 0,
    },
    Spec {
        name: "cross-core-small",
        why: "hot-small traffic on two event loops: differs only by cross-core forwarding, so steering/routing work shows here alone",
        load: Load::Closed,
        event_loops: 2,
        capacity_entries: 65_536,
        origin: false,
        keys: 4096,
        zipf: 0.99,
        put_share: 0.10,
        sizes: Sizes::Fixed(64),
        prefill: 4096,
        store_writes_per_s: 0,
    },
    Spec {
        name: "churn-large",
        why: "writes beside reads, steady eviction (working set 4x capacity), 256 B-16 KiB values through zero-copy decode and writev",
        load: Load::Closed,
        event_loops: 1,
        capacity_entries: 16_384,
        origin: false,
        keys: 65_536,
        zipf: 0.8,
        put_share: 0.50,
        sizes: Sizes::LogUniform { lo: 256, hi: 16_384 },
        prefill: 16_384,
        store_writes_per_s: 0,
    },
    Spec {
        name: "paced-read",
        why: "open loop below saturation: what a real-time reader sees; catches throughput wins (batching, longer ticks) that cost latency",
        load: Load::Paced,
        event_loops: 1,
        capacity_entries: 65_536,
        origin: true,
        keys: 4096,
        zipf: 0.99,
        put_share: 0.0,
        sizes: Sizes::Fixed(64),
        prefill: 4096,
        store_writes_per_s: 0,
    },
    Spec {
        name: "push-refetch",
        why: "paced-read plus store pushes: the paper's loop of per-key invalidate-vs-update and refusals rescued by coalesced origin refetch",
        load: Load::Paced,
        event_loops: 1,
        capacity_entries: 65_536,
        origin: true,
        keys: 4096,
        zipf: 0.99,
        put_share: 0.0,
        sizes: Sizes::Fixed(64),
        prefill: 4096,
        store_writes_per_s: 24000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64: the benchmark's own PRNG (same constants everywhere in
/// the repo, but owned here so the op stream cannot drift with a crate).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key of popularity rank `rank` (0 = hottest). Never 0.
#[inline]
pub fn key_of(rank: u64) -> u64 {
    rank + 1
}

impl Spec {
    /// Value size a put of `key` carries.
    pub fn put_size(&self, key: u64) -> u32 {
        match self.sizes {
            Sizes::Fixed(n) => n,
            Sizes::LogUniform { lo, hi } => {
                let u = (mix(key) >> 11) as f64 / (1u64 << 53) as f64;
                let ln = (lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln());
                (ln.exp() as u32).clamp(lo, hi)
            }
        }
    }

    /// The `serve` command line for this workload's node.
    pub fn serve_args(&self, origin: Option<std::net::SocketAddr>) -> Vec<String> {
        let mut args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--event-loops".to_string(),
            self.event_loops.to_string(),
            "--shards".to_string(),
            NODE_SHARDS.to_string(),
            "--capacity-entries".to_string(),
            self.capacity_entries.to_string(),
            "--stats-every".to_string(),
            "3600".to_string(),
        ];
        if let Some(o) = origin {
            args.push("--origin".to_string());
            args.push(o.to_string());
        }
        args
    }
}

/// `serve --shards`: the node's default, stated so the slab replay can
/// size its one shard the same way.
pub const NODE_SHARDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get { key: u64 },
    Put { key: u64, len: u32 },
}

impl Op {
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get { key } | Op::Put { key, .. } => key,
        }
    }
}

/// The client op stream of one workload: Zipf-ranked keys through a CDF
/// table scaled to `u64`, a put/get coin, both from one SplitMix stream.
pub struct OpGen {
    spec: Spec,
    rng: SplitMix,
    cdf: Vec<u64>,
    /// `guide[b]` is the rank of the smallest draw whose top `GUIDE_BITS`
    /// bits are `b`, so a draw's rank is searched for only between two
    /// neighbouring guide entries instead of across the whole table.
    guide: Vec<u32>,
    put_below: u64,
}

const GUIDE_BITS: u32 = 12;

fn rank_in(cdf: &[u64], r: u64) -> usize {
    cdf.partition_point(|&c| c < r)
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let weights: Vec<f64> =
            (0..spec.keys).map(|r| 1.0 / ((r + 1) as f64).powf(spec.zipf)).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                cum += w;
                (cum / total * u64::MAX as f64) as u64
            })
            .collect();
        *cdf.last_mut().expect("a workload has keys") = u64::MAX;
        let mut guide: Vec<u32> =
            (0..1u64 << GUIDE_BITS).map(|b| rank_in(&cdf, b << (64 - GUIDE_BITS)) as u32).collect();
        guide.push(cdf.len() as u32 - 1);
        OpGen {
            spec: *spec,
            rng: SplitMix::new(seed ^ 0x00C1_1E47),
            cdf,
            guide,
            put_below: (spec.put_share * u64::MAX as f64) as u64,
        }
    }

    #[inline]
    pub fn next(&mut self) -> Op {
        let r = self.rng.next();
        let b = (r >> (64 - GUIDE_BITS)) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let rank = lo + rank_in(&self.cdf[lo..=hi], r);
        let key = key_of(rank as u64);
        if self.put_below > 0 && self.rng.next() < self.put_below {
            Op::Put { key, len: self.spec.put_size(key) }
        } else {
            Op::Get { key }
        }
    }
}

/// The store-side write stream of `push-refetch`: uniform keys. The n-th
/// write of a key carries `64 + (n mod 64)` bytes, so a served value's
/// length names the write that produced it (the freshness oracle's
/// ground truth survives `Update` pushes and `FetchResp` installs).
pub struct WriteGen {
    rng: SplitMix,
    keys: u64,
    counts: Vec<u32>,
}

/// Length of the value the `n`-th write of any key stores (`n = 0` is
/// the origin's default for a never-written key).
pub fn oracle_len(n: u32) -> u32 {
    64 + n % 64
}

impl WriteGen {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        WriteGen {
            rng: SplitMix::new(seed ^ 0x5708_E000),
            keys: spec.keys,
            counts: vec![0; spec.keys as usize + 1],
        }
    }

    /// Next write: `(key, n, value_size)`.
    pub fn next(&mut self) -> (u64, u32, u32) {
        let key = key_of(self.rng.next() % self.keys);
        let n = &mut self.counts[key as usize];
        *n += 1;
        (key, *n, oracle_len(*n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the first `n` ops of the workload's generators: what the
    /// determinism test pins for seed 42.
    fn op_stream_fnv(spec: &Spec, seed: u64, n: usize) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let mut ops = OpGen::new(spec, seed);
        for _ in 0..n {
            match ops.next() {
                Op::Get { key } => eat(key << 1),
                Op::Put { key, len } => {
                    eat(key << 1 | 1);
                    eat(len as u64);
                }
            }
        }
        if spec.store_writes_per_s > 0 {
            let mut writes = WriteGen::new(spec, seed);
            for _ in 0..n {
                let (key, count, len) = writes.next();
                eat(key);
                eat((count as u64) << 32 | len as u64);
            }
        }
        hash
    }

    /// `--seed` is the only randomness: the first 100 k generated ops of
    /// every workload are pinned for seed 42.
    #[test]
    fn op_streams_are_pinned_for_seed_42() {
        let pinned: [(&str, u64); 5] = [
            ("hot-small", 0xb48e_5811_3776_813c),
            ("cross-core-small", 0xb48e_5811_3776_813c),
            ("churn-large", 0x52d7_e61c_c5fb_ddd8),
            ("paced-read", 0xdc66_8cb9_49a0_b111),
            ("push-refetch", 0x04ad_5a17_e3a6_440f),
        ];
        for (name, want) in pinned {
            let got = op_stream_fnv(spec(name).unwrap(), 42, 100_000);
            assert_eq!(got, want, "{name}: op stream changed (got {got:#018x})");
        }
    }

    #[test]
    fn guided_lookup_equals_a_plain_search() {
        for s in &SPECS {
            let g = OpGen::new(s, 1);
            let mut rng = SplitMix::new(99);
            for i in 0..200_000u64 {
                // Random draws, plus the table's own edges.
                let r = match i % 4 {
                    0 => g.cdf[(rng.next() % s.keys) as usize],
                    1 => g.cdf[(rng.next() % s.keys) as usize].wrapping_add(1),
                    _ => rng.next(),
                };
                let b = (r >> (64 - GUIDE_BITS)) as usize;
                let (lo, hi) = (g.guide[b] as usize, g.guide[b + 1] as usize);
                assert_eq!(
                    lo + rank_in(&g.cdf[lo..=hi], r),
                    rank_in(&g.cdf, r),
                    "{}: r={r:#x}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn another_seed_gives_another_stream_same_seed_the_same() {
        let s = spec("hot-small").unwrap();
        assert_eq!(op_stream_fnv(s, 7, 10_000), op_stream_fnv(s, 7, 10_000));
        assert_ne!(op_stream_fnv(s, 7, 10_000), op_stream_fnv(s, 42, 10_000));
    }

    #[test]
    fn mixes_and_sizes_match_the_spec() {
        let s = spec("churn-large").unwrap();
        let mut g = OpGen::new(s, 42);
        let (mut puts, mut top) = (0u32, 0u32);
        for _ in 0..100_000 {
            let op = g.next();
            if let Op::Put { key, len } = op {
                puts += 1;
                assert!((256..=16_384).contains(&len));
                assert_eq!(len, s.put_size(key), "size is a function of the key");
            }
            assert!((1..=s.keys).contains(&op.key()));
            top += (op.key() == key_of(0)) as u32;
        }
        assert!((48_000..52_000).contains(&puts), "half the ops are puts: {puts}");
        assert!(top > 100, "rank 0 is the hottest key: {top}");
        let hot = spec("hot-small").unwrap();
        assert_eq!(hot.put_size(9), 64);
    }

    #[test]
    fn write_lengths_name_the_write() {
        let s = spec("push-refetch").unwrap();
        let mut w = WriteGen::new(s, 42);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let (key, n, len) = w.next();
            let prev = seen.insert(key, n).unwrap_or(0);
            assert_eq!(n, prev + 1, "per-key write counts are consecutive");
            assert_eq!(len, oracle_len(n));
        }
    }
}
