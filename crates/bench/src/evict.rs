//! The eviction sweep: which replacement policy a node's shards run,
//! chosen by replaying a grid of traffic shapes through [`SlabCache`]
//! with the node's sharding.
//!
//! Every cell replays one seeded SplitMix op stream over [`KEYS`] keys
//! through [`SHARDS`] shards routed by the node's shard hash
//! ([`Topology::shard_of`]), each holding its share of the entry
//! capacity — what `serve --shards 16 --capacity-entries N` builds. A get
//! is a bounded read whose miss inserts nothing; a put installs (over a
//! resident key it is a hit): exactly what the node's data path does to
//! a shard. The first third of each stream warms the shards up; the hit
//! ratio is fresh hits over the gets after it.
//!
//! Traffic is Zipf over popularity ranks, a put/get coin per op, and a
//! hot set that may move: [`HotSet::Swap10`] swaps 10 % of the top
//! [`HOT_RANKS`] ranks with colder keys every [`SHIFT_EVERY`] ops,
//! [`HotSet::Reshuffle`] redraws every rank's key as often. A TTL'd cell
//! gives every put a [`TTL`] and every get the same bound, and also
//! reports the share of gets refused as too old.
//!
//! **The default rule**: a policy may be a node's default when its worst
//! row is no more than one point below LRU's and it beats LRU by more
//! than 2 % on the `churn-large`-shaped row ([`CHURN_LARGE`]).

use bytes::Bytes;
use fresca_cache::slab::SlabCache;
use fresca_cache::{BoundedGet, CacheConfig, Capacity, EvictionPolicy};
use fresca_serve::datapath::Topology;
use fresca_sim::rng::splitmix64;
use fresca_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Keys every cell draws from.
pub const KEYS: u64 = 65_536;
/// Shards the capacity is split across (`serve`'s default).
pub const SHARDS: usize = 16;
/// The ranks [`HotSet::Swap10`] draws its hot keys from.
pub const HOT_RANKS: u64 = 16_384;
/// Ops between two moves of the hot set.
pub const SHIFT_EVERY: usize = 100_000;
/// The TTL of a TTL'd cell's puts and the bound of its gets; one op
/// advances the clock by 1 µs.
pub const TTL: SimDuration = SimDuration::from_micros(65_536);
/// The sweep's stream seed.
pub const SEED: u64 = 0x5EED_E71C;

/// The policies the sweep compares, LRU first (the baseline every row
/// is judged against).
pub const POLICIES: [(&str, EvictionPolicy); 7] = [
    ("lru", EvictionPolicy::Lru),
    ("fifo", EvictionPolicy::Fifo),
    ("slru-50", EvictionPolicy::Slru { protected_pct: 50 }),
    ("slru-80", EvictionPolicy::Slru { protected_pct: 80 }),
    ("slru-90", EvictionPolicy::Slru { protected_pct: 90 }),
    ("freshness-aware-16", EvictionPolicy::FreshnessAware { probe_depth: 16 }),
    ("arc", EvictionPolicy::Adaptive),
];

/// How the popular keys move over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum HotSet {
    /// Rank `r` is key `r + 1` for the whole run.
    Static,
    /// Every [`SHIFT_EVERY`] ops, 10 % of the top [`HOT_RANKS`] ranks
    /// swap keys with ranks below them.
    Swap10,
    /// Every [`SHIFT_EVERY`] ops, every rank gets a new key.
    Reshuffle,
}

/// One row of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Cell {
    /// Keys per cache entry: 4 means the node holds a quarter of them.
    pub keys_per_entry: u64,
    /// Zipf exponent of key popularity.
    pub zipf: f64,
    /// Share of ops that are puts.
    pub put_share: f64,
    /// How the hot set moves.
    pub hot_set: HotSet,
    /// Puts carry [`TTL`] and gets the same bound.
    pub ttl: bool,
}

/// The row shaped like the benchmark's `churn-large` workload: 65,536
/// keys over 16,384 entries, Zipf 0.8, half puts, a static hot set.
pub const CHURN_LARGE: Cell =
    Cell { keys_per_entry: 4, zipf: 0.8, put_share: 0.5, hot_set: HotSet::Static, ttl: false };

/// The full grid: keys/capacity 2, 4, 16 × Zipf 0.6, 0.8, 0.99 × put
/// share 0.1, 0.5 × the three hot sets, then one TTL'd `churn-large`
/// shaped row per capacity. Cells that share traffic are adjacent, so
/// [`sweep`] draws each stream once.
pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for zipf in [0.6, 0.8, 0.99] {
        for put_share in [0.1, 0.5] {
            for hot_set in [HotSet::Static, HotSet::Swap10, HotSet::Reshuffle] {
                for keys_per_entry in [2, 4, 16] {
                    cells.push(Cell { keys_per_entry, zipf, put_share, hot_set, ttl: false });
                }
            }
        }
    }
    for keys_per_entry in [2, 4, 16] {
        cells.push(Cell { keys_per_entry, ttl: true, ..CHURN_LARGE });
    }
    cells
}

/// Marks a put in a stream word (keys are below 2^63).
const PUT: u64 = 1 << 63;

/// The op stream of `cell`'s traffic: `ops` words, each a key with its
/// top bit set for a put. Capacity and TTL do not enter, so cells that
/// differ only in those replay the same stream.
pub fn stream(cell: &Cell, ops: usize, seed: u64) -> Vec<u64> {
    let weights: Vec<f64> = (0..KEYS).map(|r| ((r + 1) as f64).powf(-cell.zipf)).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    let mut cdf: Vec<u64> = weights
        .iter()
        .map(|w| {
            cum += w;
            (cum / total * u64::MAX as f64) as u64
        })
        .collect();
    cdf[KEYS as usize - 1] = u64::MAX;
    let put_below = (cell.put_share * u64::MAX as f64) as u64;
    let mut rng = seed;
    let mut key_of: Vec<u64> = (1..=KEYS).collect();
    (0..ops)
        .map(|i| {
            if i > 0 && i % SHIFT_EVERY == 0 {
                move_hot_set(&mut key_of, cell.hot_set, &mut rng);
            }
            let draw = splitmix64(&mut rng);
            let rank = cdf.partition_point(|&c| c < draw);
            let key = key_of[rank];
            if splitmix64(&mut rng) < put_below {
                key | PUT
            } else {
                key
            }
        })
        .collect()
}

fn move_hot_set(key_of: &mut [u64], hot_set: HotSet, rng: &mut u64) {
    match hot_set {
        HotSet::Static => {}
        HotSet::Swap10 => {
            for _ in 0..HOT_RANKS / 10 {
                let hot = splitmix64(rng) % HOT_RANKS;
                let cold = HOT_RANKS + splitmix64(rng) % (KEYS - HOT_RANKS);
                key_of.swap(hot as usize, cold as usize);
            }
        }
        HotSet::Reshuffle => {
            for i in (1..key_of.len()).rev() {
                key_of.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
            }
        }
    }
}

/// What one policy did on one cell, over the gets after the warm-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Outcome {
    /// Gets served fresh.
    pub hit: f64,
    /// Gets refused as older than their bound (TTL'd cells only).
    pub refused: Option<f64>,
}

/// Replay `ops` (a [`stream`] of `cell`'s traffic) through the node's
/// shards under `policy`.
pub fn replay(policy: EvictionPolicy, cell: &Cell, ops: &[u64]) -> Outcome {
    let topo = Topology::new(SHARDS, 1);
    let per_shard = (KEYS / cell.keys_per_entry) as usize / topo.total_shards();
    let config = CacheConfig { capacity: Capacity::Entries(per_shard), eviction: policy };
    let mut shards: Vec<SlabCache> =
        (0..topo.total_shards()).map(|_| SlabCache::with_config(config)).collect();
    let bound = cell.ttl.then_some(TTL);
    let warmup = ops.len() / 3;
    let (mut gets, mut hits, mut refused) = (0u64, 0u64, 0u64);
    for (i, &op) in ops.iter().enumerate() {
        let now = SimTime::from_micros(i as u64);
        let key = op & !PUT;
        let shard = &mut shards[topo.shard_of(key)];
        if op & PUT != 0 {
            shard.insert_value(key, i as u64, Bytes::new(), now, bound.map(|ttl| now + ttl));
            continue;
        }
        let read = shard.get_bounded(key, now, bound);
        if i >= warmup {
            gets += 1;
            match read {
                BoundedGet::Fresh(_) => hits += 1,
                BoundedGet::Refused(_) => refused += 1,
                BoundedGet::ServedStale(_) | BoundedGet::Miss => {}
            }
        }
    }
    let share = |n: u64| n as f64 / gets.max(1) as f64;
    Outcome { hit: share(hits), refused: cell.ttl.then(|| share(refused)) }
}

/// One cell's outcomes, one per swept policy in sweep order.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// The cell.
    pub cell: Cell,
    /// Outcomes in the order of the policies swept.
    pub outcomes: Vec<Outcome>,
}

/// Replay every cell under every policy, `ops` ops per cell.
pub fn sweep(cells: &[Cell], policies: &[EvictionPolicy], ops: usize) -> Vec<Row> {
    let traffic = |c: &Cell| (c.zipf, c.put_share, c.hot_set);
    let mut drawn: Option<(Cell, Vec<u64>)> = None;
    cells
        .iter()
        .map(|cell| {
            if drawn.as_ref().is_none_or(|(c, _)| traffic(c) != traffic(cell)) {
                drawn = Some((*cell, stream(cell, ops, SEED)));
            }
            let (_, ops) = drawn.as_ref().expect("a stream was drawn above");
            Row { cell: *cell, outcomes: policies.iter().map(|&p| replay(p, cell, ops)).collect() }
        })
        .collect()
}

/// How one policy fares against LRU under the default rule.
#[derive(Debug, Clone, Serialize)]
pub struct Verdict {
    /// The policy's sweep name.
    pub policy: String,
    /// Its hit ratio on the `churn-large`-shaped row.
    pub churn_large: f64,
    /// That hit ratio over LRU's.
    pub churn_large_vs_lru: f64,
    /// Its worst hit ratio minus LRU's over the rows without a TTL, in
    /// points.
    pub worst_row_pt: f64,
    /// The row where that worst happens.
    pub worst_row: Cell,
    /// The same over the TTL'd rows, which the rule does not judge
    /// (`None` without any).
    pub ttl_worst_row_pt: Option<f64>,
    /// Worst row ≥ LRU − 1 point and `churn-large` > LRU × 1.02.
    pub passes: bool,
}

/// Judge column `policy` of `rows` against column `lru` by the default
/// rule. The rows must include [`CHURN_LARGE`].
pub fn verdict(rows: &[Row], name: &str, policy: usize, lru: usize) -> Verdict {
    let gain = |row: &Row| 100.0 * (row.outcomes[policy].hit - row.outcomes[lru].hit);
    let worst = |ttl: bool| {
        rows.iter().filter(|r| r.cell.ttl == ttl).min_by(|a, b| gain(a).total_cmp(&gain(b)))
    };
    let churn = rows.iter().find(|r| r.cell == CHURN_LARGE).expect("the churn-large row");
    let worst_row = worst(false).expect("the churn-large row has no TTL");
    let churn_large_vs_lru = churn.outcomes[policy].hit / churn.outcomes[lru].hit;
    Verdict {
        policy: name.to_string(),
        churn_large: churn.outcomes[policy].hit,
        churn_large_vs_lru,
        worst_row_pt: gain(worst_row),
        worst_row: worst_row.cell,
        ttl_worst_row_pt: worst(true).map(gain),
        passes: gain(worst_row) >= -1.0 && churn_large_vs_lru > 1.02,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_move_their_hot_set() {
        let cell = Cell { hot_set: HotSet::Reshuffle, ..CHURN_LARGE };
        let a = stream(&cell, 2 * SHIFT_EVERY, SEED);
        assert_eq!(a, stream(&cell, 2 * SHIFT_EVERY, SEED));
        assert!(a.iter().all(|&w| (1..=KEYS).contains(&(w & !PUT))));
        let puts = a.iter().filter(|&&w| w & PUT != 0).count() as f64 / a.len() as f64;
        assert!((puts - 0.5).abs() < 0.01, "put share {puts}");
        // The static stream's hottest key is key 1; after a reshuffle the
        // second window's hottest key is almost surely another.
        let hottest = |ops: &[u64]| {
            let mut counts = vec![0u32; KEYS as usize + 1];
            ops.iter().for_each(|&w| counts[(w & !PUT) as usize] += 1);
            (0..counts.len()).max_by_key(|&k| counts[k]).unwrap_or(0) as u64
        };
        assert_eq!(hottest(&a[..SHIFT_EVERY]), 1);
        assert_ne!(hottest(&a[SHIFT_EVERY..]), 1);
    }

    #[test]
    fn grid_has_every_cell_once() {
        let cells = grid();
        assert_eq!(cells.len(), 3 * 3 * 2 * 3 + 3);
        assert_eq!(cells.iter().filter(|&&c| c == CHURN_LARGE).count(), 1);
    }

    #[test]
    fn ttl_cells_report_refusals() {
        let cell = Cell { ttl: true, ..CHURN_LARGE };
        let ops = stream(&cell, 300_000, SEED);
        let out = replay(EvictionPolicy::Lru, &cell, &ops);
        let refused = out.refused.expect("a TTL'd cell reports refusals");
        assert!(refused > 0.0 && refused + out.hit < 1.0, "{out:?}");
        assert_eq!(replay(EvictionPolicy::Lru, &CHURN_LARGE, &ops).refused, None);
    }
}
