//! A cluster-aware cache client: one [`PipelinedClient`] per node,
//! requests routed by consistent hashing, the ring swapped live when
//! the membership epoch moves.
//!
//! [`ClusterClient`] is the multi-node sibling of
//! [`CacheClient`]: it holds a connection to every
//! member of a [`HashRing`] and routes each `get`/`put` to the node that
//! owns the key. Routing is a pure function of the member list (see
//! [`crate::ring`]), so a cluster client, the load generator, and a
//! store-push node all agree on placement without exchanging any state.
//!
//! ## Live membership
//!
//! The member list the client was constructed with is only its
//! *starting* view. [`ClusterClient::refresh`] asks the reachable
//! members for their current `(epoch, members)` (a `RingReq` per node)
//! and adopts the newest strictly-newer view, rebuilding the ring and
//! the connection set — connections to members present in both views
//! are kept, so a refresh that only drops a dead node costs nothing on
//! the survivors. `put`/`get` do this automatically: a
//! connection-level failure triggers a bounded retry loop
//! ([`Backoff`]-paced) that refreshes the view and re-routes the
//! operation, so a node death costs callers at most the retry budget —
//! not an error — once a survivor has processed the leave.
//!
//! The per-call interface is blocking (submit on the owning node's
//! pipelined connection, then wait for that one completion); callers
//! that want deep pipelining against many nodes drive per-node
//! [`PipelinedClient`]s directly — that is exactly what the load
//! generator's `--addrs` fan-out does.

use crate::client::{Backoff, CacheClient, ConnError, GetOutcome, PipelinedClient, Response};
use crate::ring::{HashRing, DEFAULT_VNODES};
use bytes::Bytes;
use fresca_sim::SimDuration;
use std::collections::HashMap;
use std::io;
use std::time::Duration;

/// A client for a consistent-hash cluster of cache nodes.
///
/// Connect with [`ClusterClient::connect`], passing every member's
/// address; the ring is built from the addresses *as given* (they are
/// the node names), so all participants must use the same spelling of
/// each address.
#[derive(Debug)]
pub struct ClusterClient {
    ring: HashRing,
    /// Epoch of the adopted view; 0 until a refresh learns a newer one.
    epoch: u64,
    /// Member names of the adopted view, in ring order.
    members: Vec<String>,
    /// One pipelined connection per ring member, indexed like
    /// `ring.nodes()`.
    conns: Vec<PipelinedClient>,
    /// Retry pacing for the re-route loop in [`Self::put`]/[`Self::get`].
    retry: Backoff,
}

impl ClusterClient {
    /// Connect to every node of the cluster. The ring is built with
    /// [`DEFAULT_VNODES`] virtual nodes per member, like every other
    /// participant's: the nodes rebalance and hand keys off by that
    /// ring, so a client routing by any other would read from a node
    /// the handoff did not fill.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> io::Result<Self> {
        let ring = HashRing::try_from_members(DEFAULT_VNODES, addrs)?;
        let members: Vec<String> = ring.nodes().to_vec();
        let conns = members
            .iter()
            .map(|addr| PipelinedClient::connect(addr.as_str()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ClusterClient {
            ring,
            epoch: 0,
            members,
            conns,
            // Modest default: 4 attempts, 50ms..1s jittered. Seeded
            // from a constant so default-configured runs reproduce.
            retry: Backoff::new(Duration::from_millis(50), Duration::from_secs(1), 4, 0xC1A5),
        })
    }

    /// Replace the retry policy used by the `put`/`get` re-route loop.
    pub fn set_retry(&mut self, policy: Backoff) {
        self.retry = policy;
    }

    /// The ring this client routes by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Epoch of the adopted membership view (0 = the constructed view,
    /// never refreshed past it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Members of the adopted view, in ring order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.conns.len()
    }

    /// Address of the node that owns `key`. Deterministic: every
    /// `ClusterClient` over the same member list gives the same answer.
    pub fn addr_for(&self, key: u64) -> &str {
        self.members[self.node_index_for(key)].as_str()
    }

    /// Index (into the member list) of the node that owns `key`. The
    /// ring is non-empty by construction (connect and view swaps both
    /// refuse empty lists), so the fallback index is unreachable.
    pub fn node_index_for(&self, key: u64) -> usize {
        self.ring.node_index_for(key).unwrap_or(0)
    }

    /// The pipelined connection to member `index`, for callers that
    /// want to drive a node directly (tests, fan-out loops).
    pub fn node_client(&mut self, index: usize) -> &mut PipelinedClient {
        &mut self.conns[index]
    }

    /// Ask every reachable member for its membership view and adopt the
    /// newest one that is strictly newer than ours, rebuilding the ring
    /// and connections. Returns `true` when the view changed. Members
    /// that cannot be reached or answer garbage are skipped — one live
    /// node is enough to learn the current epoch.
    pub fn refresh(&mut self) -> io::Result<bool> {
        let mut best: Option<(u64, Vec<String>)> = None;
        for member in &self.members {
            let view = CacheClient::connect(member.as_str()).and_then(|mut c| c.ring());
            if let Ok((epoch, members)) = view {
                let newer = epoch > self.epoch
                    && !members.is_empty()
                    && best.as_ref().is_none_or(|(e, _)| epoch > *e);
                if newer {
                    best = Some((epoch, members));
                }
            }
        }
        match best {
            Some((epoch, members)) => self.swap_view(epoch, members).map(|_| true),
            None => Ok(false),
        }
    }

    /// Adopt `(epoch, members)` as the routing view: rebuild the ring,
    /// keep connections to members present in both views, connect to
    /// the new ones. On any failure the old view stays in place.
    pub fn swap_view(&mut self, epoch: u64, members: Vec<String>) -> io::Result<()> {
        let ring = HashRing::try_from_members(DEFAULT_VNODES, &members)?;
        // Pair up surviving connections by member name without tearing
        // them down; drained-but-alive sockets keep their pipelines.
        let mut kept: HashMap<String, PipelinedClient> =
            self.members.drain(..).zip(self.conns.drain(..)).collect();
        let mut conns = Vec::with_capacity(members.len());
        for member in &members {
            let conn = match kept.remove(member) {
                Some(alive) => alive,
                None => PipelinedClient::connect(member.as_str())?,
            };
            conns.push(conn);
        }
        self.ring = ring;
        self.epoch = epoch;
        self.members = members;
        self.conns = conns;
        Ok(())
    }

    /// Write `key` on its owning node; returns the version that node
    /// assigned (monotone per node, hence per key — a key only changes
    /// node when the membership epoch moves). Connection-level failures
    /// are retried through [`Self::refresh`]: the write may be
    /// re-submitted after a re-route, in which case the version
    /// returned is the one the surviving owner assigned.
    pub fn put(
        &mut self,
        key: u64,
        value: impl Into<Bytes>,
        ttl: Option<SimDuration>,
    ) -> io::Result<u64> {
        let value = value.into();
        self.with_owner(key, |conn| {
            let id = conn.submit_put(key, value.clone(), ttl)?;
            let (rid, resp) = conn.complete()?;
            match resp {
                Response::Put { key: k, version } if rid == id && k == key => Ok(version),
                other => Err(route_error(key, &other)),
            }
        })
    }

    /// Staleness-bounded read of `key` from its owning node (`None` =
    /// any age). Connection-level failures re-route like [`Self::put`].
    pub fn get(
        &mut self,
        key: u64,
        max_staleness: Option<SimDuration>,
    ) -> io::Result<GetOutcome> {
        self.with_owner(key, |conn| {
            let id = conn.submit_get(key, max_staleness)?;
            let (rid, resp) = conn.complete()?;
            match resp {
                Response::Get { key: k, outcome } if rid == id && k == key => Ok(outcome),
                other => Err(route_error(key, &other)),
            }
        })
    }

    /// Run `op` against `key`'s owner, retrying through view refreshes
    /// on connection-level failures. Protocol-level surprises
    /// (`InvalidData`) are not retried — a server answering garbage is
    /// a bug, not a blip.
    fn with_owner<T>(
        &mut self,
        key: u64,
        mut op: impl FnMut(&mut PipelinedClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut policy = self.retry.clone();
        let mut last: Option<io::Error> = None;
        for attempt in 0..policy.max_attempts() {
            let delay = policy.delay(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            if attempt > 0 {
                // The owner may have changed (a survivor processed the
                // leave); a failed refresh is fine — we still retry the
                // reconnect below against the old view.
                let _ = self.refresh();
            }
            let node = self.node_index_for(key);
            match op(&mut self.conns[node]) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => {
                    // The connection is suspect; replace it in place so
                    // the next attempt starts clean. If the node is
                    // down this fails and the refresh above re-routes.
                    if let Ok(fresh) = PipelinedClient::connect(self.members[node].as_str()) {
                        self.conns[node] = fresh;
                    }
                    last = Some(e);
                }
            }
        }
        let attempts = policy.max_attempts();
        let last = last.unwrap_or_else(|| io::Error::other("retry loop made no attempt"));
        Err(ConnError::RetriesExhausted { attempts, last }.into())
    }
}

fn route_error(key: u64, resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected completion for key {key}: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{self, ServerConfig};

    fn spawn_cluster(n: usize) -> (Vec<server::ServerHandle>, Vec<String>) {
        let handles: Vec<_> = (0..n)
            .map(|_| server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind"))
            .collect();
        let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
        (handles, addrs)
    }

    #[test]
    fn rejects_empty_and_duplicate_member_lists() {
        let err = ClusterClient::connect::<&str>(&[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let (handles, addrs) = spawn_cluster(1);
        let dup = [addrs[0].clone(), addrs[0].clone()];
        let err = ClusterClient::connect(&dup).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn routing_is_deterministic_across_clients() {
        let (handles, addrs) = spawn_cluster(3);
        let a = ClusterClient::connect(&addrs).unwrap();
        let b = ClusterClient::connect(&addrs).unwrap();
        for key in 0..2_000u64 {
            assert_eq!(a.addr_for(key), b.addr_for(key), "key {key}");
            assert_eq!(a.node_index_for(key), b.node_index_for(key));
            // The client's routing is exactly the ring's.
            assert_eq!(a.addr_for(key), a.ring().node_for(key).unwrap());
        }
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn puts_and_gets_land_on_the_owning_node() {
        let (handles, addrs) = spawn_cluster(2);
        let mut client = ClusterClient::connect(&addrs).unwrap();
        for key in 0..64u64 {
            let v = client.put(key, fresca_net::payload::pattern(key, 16), None).unwrap();
            assert!(v > 0);
            let got = client.get(key, None).unwrap();
            assert!(got.is_served(), "key {key}");
            assert_eq!(got.version, v);
            assert!(fresca_net::payload::verify(key, &got.value), "key {key} payload intact");
        }
        // Each node served exactly the keys the ring assigns it.
        let ring = client.ring().clone();
        let per_node = ring.partition(0..64u64);
        for (i, h) in handles.into_iter().enumerate() {
            let stats = h.shutdown();
            assert_eq!(stats.puts, per_node[i].len() as u64, "node {i} put count");
            assert_eq!(stats.gets, per_node[i].len() as u64, "node {i} get count");
        }
    }

    #[test]
    fn refresh_adopts_newer_views_and_swap_keeps_survivor_conns() {
        let (handles, addrs) = spawn_cluster(3);
        let mut client = ClusterClient::connect(&addrs).unwrap();
        assert_eq!(client.epoch(), 0);
        // Seed the cluster's own membership to match the client's list.
        let mut admin = CacheClient::connect(addrs[0].as_str()).unwrap();
        for a in &addrs {
            admin.join(a).unwrap();
        }
        // The servers are now at epoch 3; the client learns it on refresh.
        assert!(client.refresh().unwrap());
        assert_eq!(client.epoch(), 3);
        assert_eq!(client.members(), addrs.as_slice());
        // A second refresh at the same epoch is a no-op.
        assert!(!client.refresh().unwrap());
        // An operator removes node 2; the client's next refresh drops it.
        admin.leave(&addrs[2]).unwrap();
        assert!(client.refresh().unwrap());
        assert_eq!(client.epoch(), 4);
        assert_eq!(client.members(), &addrs[..2]);
        // Routing and the blocking API still work over the shrunken ring.
        for key in 0..32u64 {
            let v = client.put(key, fresca_net::payload::pattern(key, 8), None).unwrap();
            assert!(client.get(key, None).unwrap().version >= v);
            assert!(client.node_index_for(key) < 2);
        }
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn node_death_reroutes_after_leave() {
        let (mut handles, addrs) = spawn_cluster(3);
        let mut client = ClusterClient::connect(&addrs).unwrap();
        let mut admin = CacheClient::connect(addrs[0].as_str()).unwrap();
        for a in &addrs {
            admin.join(a).unwrap();
        }
        client.refresh().unwrap();
        // Write everything once while all three are up.
        for key in 0..96u64 {
            client.put(key, fresca_net::payload::pattern(key, 8), None).unwrap();
        }
        // Kill node 2 abruptly, then tell a survivor it left.
        let victim = addrs[2].clone();
        handles.remove(2).shutdown();
        admin.leave(&victim).unwrap();
        // Every key is still reachable: keys owned by the dead node
        // re-route to survivors (as misses — cold is fine, stale is
        // not), the rest are served where they were.
        for key in 0..96u64 {
            let got = client.get(key, None).unwrap();
            assert!(
                got.is_served() || got.status == fresca_net::GetStatus::Miss,
                "key {key}: {got:?}"
            );
        }
        assert_eq!(client.node_count(), 2, "dead node dropped from the view");
        for h in handles {
            h.shutdown();
        }
    }
}
