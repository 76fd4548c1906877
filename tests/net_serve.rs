//! Acceptance tests for the out-of-process TCP serving front.
//!
//! Pins the networked contract end to end:
//!
//! 1. **Wire ≡ direct** — every answer that comes back over the socket
//!    bitwise-matches the direct [`StoreReader`] evaluation for the
//!    same store version, and its advertised bound holds against the
//!    exact raw-data value.
//! 2. **No batch poisoning** — concurrent clients mix malformed queries
//!    into their batches; each malformed query errors individually with
//!    its pinned wire status code while every co-batched sibling is
//!    answered.
//! 3. **No torn snapshots** — a publish swap lands mid-traffic; every
//!    response's slots all carry the response's single version, and
//!    that version is a version that was actually published.
//! 4. **Replicated routing survives a node kill** — with replication 2
//!    a dead node is invisible to clients; with replication 1 only the
//!    dead node's shards error, individually.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig, DGreedyAbsResult};
use dwmaxerr::datagen::uniform;
use dwmaxerr::runtime::{Cluster, ClusterConfig, NodeTopology};
use dwmaxerr::serve::error::status;
use dwmaxerr::serve::net::QueryResponse;
use dwmaxerr::serve::{
    NetClient, NetServer, NetServerConfig, Query, ShardRouter, SlotResult, StoreReader,
    SynopsisStore,
};

const N: usize = 256;
const BASE: usize = 16;
const SHARDS: usize = 16;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4, 2);
    cfg.task_startup = Duration::from_millis(1);
    cfg.job_setup = Duration::from_millis(1);
    Cluster::new(cfg)
}

fn abs_cfg() -> DGreedyAbsConfig {
    DGreedyAbsConfig {
        base_leaves: BASE,
        bucket_width: 1e-9,
        reducers: 2,
        max_candidates: None,
    }
}

fn build(data: &[f64], budget: usize) -> DGreedyAbsResult {
    dgreedy_abs(&cluster(), data, budget, &abs_cfg()).unwrap()
}

fn prefix_sums(data: &[f64]) -> Vec<f64> {
    let mut p = vec![0.0; data.len() + 1];
    for (i, &v) in data.iter().enumerate() {
        p[i + 1] = p[i] + v;
    }
    p
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministic mixed batch: mostly valid points/ranges, roughly one
/// in six queries malformed (out-of-range point or inverted range).
fn mixed_batch(state: &mut u64, len: usize) -> Vec<Query> {
    (0..len)
        .map(|_| {
            let kind = lcg(state) % 6;
            let a = lcg(state) as usize;
            let b = lcg(state) as usize;
            match kind {
                0..=2 => Query::Point { x: a % N },
                3 | 4 => {
                    let l = a % N;
                    let h = (l + b % 64).min(N - 1);
                    Query::RangeSum { l, h }
                }
                _ if a.is_multiple_of(2) => Query::Point { x: N + a % 10 },
                _ => Query::RangeSum {
                    l: 4 + b % 100,
                    h: 2,
                },
            }
        })
        .collect()
}

fn is_malformed(q: Query) -> bool {
    match q {
        Query::Point { x } => x >= N,
        Query::RangeSum { l, h } => l > h || h >= N,
    }
}

/// Checks one response against the direct readers: single version per
/// response, per-slot errors for malformed queries only, and every
/// answer bitwise-equal to the direct single evaluation for that
/// version, with its bound holding against the exact value.
fn check_response(
    queries: &[Query],
    response: &QueryResponse,
    readers: &[(u64, StoreReader)],
    prefix: &[f64],
    data: &[f64],
) {
    assert_eq!(response.status, status::OK);
    assert_eq!(response.slots.len(), queries.len());
    let (_, reader) = readers
        .iter()
        .find(|(v, _)| *v == response.version)
        .unwrap_or_else(|| panic!("response version {} was never published", response.version));
    for (slot, &q) in response.slots.iter().zip(queries) {
        if is_malformed(q) {
            let SlotResult::Error { code, .. } = slot else {
                panic!("malformed query {q:?} was answered");
            };
            let want = match q {
                Query::RangeSum { l, h } if l > h => status::INVERTED_RANGE,
                _ => status::OUT_OF_RANGE,
            };
            assert_eq!(*code, want, "wire status for {q:?}");
            continue;
        }
        let a = slot
            .as_answer()
            .unwrap_or_else(|| panic!("valid query {q:?} poisoned by a co-batched sibling"));
        // (3) no torn snapshot: the whole batch carries one version.
        assert_eq!(a.version, response.version, "torn snapshot in batch");
        // (1) bitwise ≡ direct, bound holds.
        let (direct, exact) = match q {
            Query::Point { x } => (reader.point(x).unwrap(), data[x]),
            Query::RangeSum { l, h } => {
                (reader.range_sum(l, h).unwrap(), prefix[h + 1] - prefix[l])
            }
        };
        assert_eq!(a.value.to_bits(), direct.value.to_bits(), "{q:?}");
        assert_eq!(a.err_abs, direct.err_abs, "{q:?}");
        assert!(a.bounds_hold(exact, 1e-6), "{q:?}: {} vs {exact}", a.value);
    }
}

/// The headline end-to-end test: concurrent clients, mixed batches,
/// a publish swap mid-traffic.
#[test]
fn concurrent_mixed_batches_across_a_publish_swap() {
    let data = uniform(N, 1000.0, 42);
    let prefix = prefix_sums(&data);
    let (build1, build2) = (build(&data, 24), build(&data, 48));

    let store = SynopsisStore::new("net-accept", SHARDS);
    store
        .publish(&build1.synopsis, build1.bound, 1.0, 1)
        .unwrap();
    let reader_v1 = store.reader().unwrap();

    let topology = NodeTopology {
        nodes: 4,
        slots_per_node: 2,
    };
    let router = ShardRouter::new(SHARDS, topology, 2).unwrap();
    let cfg = NetServerConfig {
        read_timeout: Duration::from_secs(2),
        threads: 2,
        ..NetServerConfig::default()
    };
    let server = NetServer::spawn(store.clone(), Some(router), cfg).unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const REQUESTS_PER_HALF: usize = 12;
    // Clients pause at the barrier so the publish swap provably lands
    // between their first and second halves of traffic.
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            let mut state = 0x9e37_79b9 ^ (c as u64) << 32;
            let mut log: Vec<(Vec<Query>, QueryResponse)> = Vec::new();
            for half in 0..2 {
                for r in 0..REQUESTS_PER_HALF {
                    let batch = mixed_batch(&mut state, 8 + (c + r) % 17);
                    let response = client.request(&batch).unwrap();
                    log.push((batch, response));
                }
                if half == 0 {
                    barrier.wait(); // half done; wait for the swap
                    barrier.wait(); // swap published
                }
            }
            log
        }));
    }

    barrier.wait(); // all clients sent their first half
    store
        .publish(&build2.synopsis, build2.bound, 2.0, 2)
        .unwrap();
    let reader_v2 = store.reader().unwrap();
    assert_eq!(reader_v2.version(), 2);
    barrier.wait(); // release the second half

    let readers = vec![(1u64, reader_v1), (2u64, reader_v2)];
    let mut total = 0usize;
    let mut malformed = 0usize;
    let mut saw_v1 = false;
    let mut saw_v2 = false;
    for handle in handles {
        for (queries, response) in handle.join().unwrap() {
            check_response(&queries, &response, &readers, &prefix, &data);
            saw_v1 |= response.version == 1;
            saw_v2 |= response.version == 2;
            total += queries.len();
            malformed += queries.iter().filter(|&&q| is_malformed(q)).count();
        }
    }
    assert!(saw_v1 && saw_v2, "traffic must span the publish swap");
    assert!(
        malformed > 0,
        "the mix must actually contain malformed queries"
    );
    let stats = server.stats();
    assert_eq!(
        stats.requests,
        (CLIENTS * 2 * REQUESTS_PER_HALF) as u64,
        "every batch executed"
    );
    assert_eq!(stats.failed_queries, malformed as u64);
    assert_eq!(stats.answered, (total - malformed) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.bad_frames, 0);
    server.shutdown();
}

/// Replication keeps shards servable across a node kill; without
/// replication only the dead node's shards error — individually, never
/// poisoning siblings on live nodes.
#[test]
fn node_kill_with_replication_stays_servable() {
    let data = uniform(N, 1000.0, 7);
    let b = build(&data, 32);
    let topology = NodeTopology {
        nodes: 4,
        slots_per_node: 2,
    };
    // One query per shard: leaf s*BASE lives in shard s.
    let queries: Vec<Query> = (0..SHARDS).map(|s| Query::Point { x: s * BASE }).collect();

    for replication in [2usize, 1] {
        let store = SynopsisStore::new("net-kill", SHARDS);
        store.publish(&b.synopsis, b.bound, 1.0, 1).unwrap();
        let router = ShardRouter::new(SHARDS, topology, replication).unwrap();
        let cfg = NetServerConfig {
            read_timeout: Duration::from_secs(2),
            threads: 1,
            ..NetServerConfig::default()
        };
        let server = NetServer::spawn(store, Some(router), cfg).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        let healthy = client.request(&queries).unwrap();
        assert!(healthy.slots.iter().all(SlotResult::is_ok));

        server.mark_node_down(1);
        let after = client.request(&queries).unwrap();
        assert_eq!(after.status, status::OK);
        for (s, slot) in after.slots.iter().enumerate() {
            let on_dead_node = s % 4 == 1; // shard s's primary is node s % 4
            match (replication, on_dead_node) {
                (2, _) | (1, false) => assert!(
                    slot.is_ok(),
                    "replication {replication}, shard {s}: must stay servable"
                ),
                (1, true) => assert!(
                    matches!(
                        slot,
                        SlotResult::Error {
                            code: status::SHARD_UNAVAILABLE,
                            ..
                        }
                    ),
                    "replication 1, shard {s}: expected ShardUnavailable"
                ),
                _ => unreachable!(),
            }
        }

        // A range reads the shards of both its endpoints: one that ends
        // in dead shard 1 errors like the point beside it, one inside
        // live shard 0 still answers.
        let across = [
            Query::RangeSum {
                l: BASE - 1,
                h: BASE,
            },
            Query::Point { x: BASE },
            Query::RangeSum { l: 0, h: BASE - 1 },
        ];
        let ranges = client.request(&across).unwrap();
        assert_eq!(ranges.status, status::OK);
        assert!(ranges.slots[2].is_ok(), "a range inside a live shard");
        for slot in &ranges.slots[..2] {
            match (replication, slot) {
                (2, slot) => assert!(slot.is_ok(), "replication 2 hides the kill"),
                (_, SlotResult::Error { code, message }) => {
                    assert_eq!(*code, status::SHARD_UNAVAILABLE);
                    assert!(message.contains("shard 1"), "{message}");
                }
                (_, slot) => panic!("read dead shard 1 and answered: {slot:?}"),
            }
        }

        // Recovery restores full service.
        server.mark_node_up(1);
        let recovered = client.request(&queries).unwrap();
        assert!(recovered.slots.iter().all(SlotResult::is_ok));
        server.shutdown();
    }
}

/// Integer data under a wide bucket (`e_b = 0.5`): a build's estimate can
/// fall short of the error it actually makes by up to one bucket, and
/// only the served bound's widening covers the gap. Every point of each
/// build, requested over `DWQ2`, must hold its bound. The case is not
/// vacuous: on at least one build the measured max-abs error exceeds the
/// bare estimate, so a bound that dropped `e_b` fails here.
#[test]
fn wide_bucket_bound_holds_for_every_point_over_the_wire() {
    let data: Vec<f64> = uniform(N, 1000.0, 23).iter().map(|v| v.round()).collect();
    let cfg = DGreedyAbsConfig {
        bucket_width: 0.5,
        ..abs_cfg()
    };
    let store = SynopsisStore::new("net-wide-bucket", SHARDS);
    let server_cfg = NetServerConfig {
        read_timeout: Duration::from_secs(2),
        threads: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::spawn(store.clone(), None, server_cfg).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let points: Vec<Query> = (0..N).map(|x| Query::Point { x }).collect();
    let mut gap_seen = false;
    for (version, budget) in [(1u64, 24usize), (2, 32), (3, 48)] {
        let b = dgreedy_abs(&cluster(), &data, budget, &cfg).unwrap();
        store
            .publish(&b.synopsis, b.bound, version as f64, version)
            .unwrap();
        let response = client.request(&points).unwrap();
        assert_eq!(response.status, status::OK);
        assert_eq!(response.version, version);
        let mut measured = 0.0f64;
        for (x, slot) in response.slots.iter().enumerate() {
            let a = slot
                .as_answer()
                .unwrap_or_else(|| panic!("point {x}: {slot:?}"));
            assert!(
                a.bounds_hold(data[x], 1e-6),
                "point {x}: {} vs {}",
                a.value,
                data[x]
            );
            measured = measured.max((a.value - data[x]).abs());
        }
        gap_seen |= measured > b.estimated_error;
    }
    assert!(gap_seen, "no build's measured error exceeded its estimate");
    drop(client);
    server.shutdown();
}

/// Shutdown does not wait out an idle connection's read timeout: a client
/// kept open across `shutdown` under the default config (a 5 s timeout)
/// holds it up for well under a second, and then sees its connection
/// closed.
#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let store = SynopsisStore::new("net-shutdown", SHARDS);
    let b = build(&uniform(N, 1000.0, 29), 32);
    store.publish(&b.synopsis, b.bound, 1.0, 1).unwrap();
    let server = NetServer::spawn(store, None, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let point = [Query::Point { x: 3 }];
    assert_eq!(client.request(&point).unwrap().status, status::OK);
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(client.request(&point).is_err(), "connection still open");
}
