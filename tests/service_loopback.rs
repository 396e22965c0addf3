//! End-to-end loopback tests of the advisor daemon: a real TCP server,
//! real concurrent clients, and three production-hardening guarantees —
//!
//! 1. **Fidelity**: 64+ concurrent mixed `recommend`/`price`/`drift`
//!    requests return answers bit-identical to direct library calls;
//! 2. **Load shedding**: with a tiny admission queue, a thundering herd is
//!    rejected with `overloaded` + `retry_after_ms` instead of stalling.
//!    The configured `retry_after_ms` is only the cold-start fallback;
//!    once a request has finished, the hint scales with the measured
//!    drain rate, so over real TCP only its [1 ms, 10 s] clamp is checked
//!    (the exact values are pinned in the simulator:
//!    `sim::tests::shed_retry_hints_follow_the_documented_formula`);
//! 3. **Graceful drain**: `shutdown` stops admission but every already
//!    admitted request still gets its response. Which requests are
//!    admitted before the drain depends on the interleaving, so the exact
//!    per-frame contracts are pinned in the simulator (`sim::tests::a_*`)
//!    and only their interleaving-free consequences are checked here.

use snakes_sandwiches::core::cost::CostModel;
use snakes_sandwiches::core::dp::IncrementalDp;
use snakes_sandwiches::core::lattice::LatticeShape;
use snakes_sandwiches::core::schema::{Hierarchy, StarSchema};
use snakes_sandwiches::core::workload::{VersionedWorkload, WeightUpdate, Workload, WorkloadDelta};
use snakes_sandwiches::curves::{aggregate_class_costs, snaked_path_curve, CompactHilbert};
use snakes_sandwiches::prelude::{recommend, LatticePath};
use snakes_sandwiches::service::protocol::{
    DeltaSpec, MeasureSpec, SchemaSpec, StrategySpec, WorkloadSpec,
};
use snakes_sandwiches::service::{Client, Request, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// A deterministic per-thread workload: irregular weights keyed by `salt`
/// so every thread prices a different distribution.
fn salted_workload(shape: &LatticeShape, salt: usize) -> Workload {
    let n = shape.num_classes();
    Workload::from_weights(
        shape.clone(),
        (0..n)
            .map(|r| 1.0 + ((r * (salt + 2) + salt) % 11) as f64 * 0.17)
            .collect(),
    )
    .expect("positive weights")
}

#[test]
fn sixty_four_concurrent_mixed_requests_are_bit_identical_to_direct_calls() {
    const CLIENTS: usize = 64;
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr();
    let schema = StarSchema::paper_toy();
    let shape = LatticeShape::of_schema(&schema);
    let checked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let schema = &schema;
            let shape = &shape;
            let checked = &checked;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let w = salted_workload(shape, i);
                let spec = |w: &Workload| (SchemaSpec::of(schema), WorkloadSpec::of(w));
                match i % 3 {
                    0 => {
                        // recommend ≡ core::advisor::recommend
                        let (s, ws) = spec(&w);
                        let resp = client.call(Request::recommend(s, ws)).expect("call");
                        assert!(resp.ok, "{:?}", resp.error);
                        let body = resp.recommendation.unwrap();
                        let direct = recommend(schema, &w);
                        assert_eq!(body.path_dims, direct.optimal_path.dims().to_vec());
                        assert_eq!(
                            body.expected_cost_plain.to_bits(),
                            direct.plain_cost.to_bits()
                        );
                        assert_eq!(
                            body.expected_cost_snaked.to_bits(),
                            direct.snaked_cost.to_bits()
                        );
                        for (got, want) in body.row_majors.iter().zip(&direct.row_majors) {
                            assert_eq!(got.order_innermost_first, want.0);
                            assert_eq!(got.cost_plain.to_bits(), want.1.to_bits());
                            assert_eq!(got.cost_snaked.to_bits(), want.2.to_bits());
                        }
                    }
                    1 => {
                        // price ≡ curves::aggregate_class_costs + expected_cost
                        let dims = vec![i % 2, 1 - i % 2, i % 2, 1 - i % 2];
                        let (s, ws) = spec(&w);
                        let resp = client
                            .call(Request::price(
                                s,
                                ws,
                                StrategySpec::snaked_path(dims.clone()),
                            ))
                            .expect("call");
                        assert!(resp.ok, "{:?}", resp.error);
                        let body = resp.price.unwrap();
                        let path = LatticePath::from_dims(shape.clone(), dims).unwrap();
                        let curve = snaked_path_curve(schema, &path);
                        let direct = aggregate_class_costs(schema, &curve).expected_cost(&w);
                        assert_eq!(body.expected_cost.to_bits(), direct.to_bits());
                    }
                    _ => {
                        // drift ≡ VersionedWorkload + IncrementalDp, coalesced
                        let session = format!("session-{i}");
                        let mut init = Request::drift(&session, vec![]);
                        let (s, ws) = spec(&w);
                        init.schema = Some(s);
                        init.workload = Some(ws);
                        let r0 = client.call(init).expect("call");
                        assert!(r0.ok, "{:?}", r0.error);
                        let update = WeightUpdate {
                            rank: i % shape.num_classes(),
                            weight: 0.9,
                        };
                        let r1 = client
                            .call(Request::drift(
                                &session,
                                vec![DeltaSpec {
                                    updates: vec![update],
                                }],
                            ))
                            .expect("call");
                        assert!(r1.ok, "{:?}", r1.error);
                        let body = r1.drift.unwrap();
                        // Replay the session directly.
                        let mut versioned = VersionedWorkload::new(w.clone());
                        let mut dp = IncrementalDp::new(CostModel::of_schema(schema));
                        let first = dp.reoptimize(versioned.workload());
                        let d0 = r0.drift.unwrap();
                        assert_eq!(d0.cost.to_bits(), first.cost.to_bits());
                        let tv = versioned
                            .apply(&WorkloadDelta::new(vec![update]).unwrap())
                            .unwrap();
                        let second = dp.reoptimize(versioned.workload());
                        assert_eq!(body.version, 1);
                        assert_eq!(body.coalesced, 1);
                        assert_eq!(body.drift_tv.to_bits(), tv.to_bits());
                        assert_eq!(body.path_dims, second.path.dims().to_vec());
                        assert_eq!(body.cost.to_bits(), second.cost.to_bits());
                        assert_eq!(body.reused, second.reused);
                    }
                }
                checked.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(checked.load(Ordering::Relaxed), CLIENTS as u64);
    // The shared caches saw real cross-connection traffic.
    let stats = server.engine().stats_body();
    let price_stats = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "price")
        .unwrap();
    assert!(price_stats.requests > 0);
    assert_eq!(stats.sessions, (CLIENTS / 3) as u64);
    server.join();
}

#[test]
fn a_cold_hilbert_price_on_a_million_cells_is_answered_in_seconds() {
    // 1200 × 10 × 84 = 1 008 000 cells, under the cell bound, pads to
    // 2048^3 ≈ 8.6·10^9 Hilbert ranks: a sweep of the padded cube held a
    // shard for over ten minutes. The pruned descent visits only the
    // cells and the boundary sub-cubes.
    let schema = StarSchema::new(vec![
        Hierarchy::new("parts", vec![1200]).unwrap(),
        Hierarchy::new("supp", vec![10]).unwrap(),
        Hierarchy::new("time", vec![84]).unwrap(),
    ])
    .unwrap();
    let w = salted_workload(&LatticeShape::of_schema(&schema), 5);
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let started = std::time::Instant::now();
    let resp = client
        .call(Request::price(
            SchemaSpec::of(&schema),
            WorkloadSpec::of(&w),
            StrategySpec::hilbert(),
        ))
        .expect("call");
    let elapsed = started.elapsed();
    assert!(resp.ok, "{:?}", resp.error);
    let body = resp.price.unwrap();
    assert!(!body.cache_hit);
    let curve = CompactHilbert::new(schema.grid_shape());
    let direct = aggregate_class_costs(&schema, &curve).expected_cost(&w);
    assert_eq!(body.expected_cost.to_bits(), direct.to_bits());
    assert!(
        elapsed.as_secs() < 60,
        "cold hilbert price took {elapsed:?}"
    );
    server.join();
}

/// A schema whose uniform measurement grid is large enough that a `price`
/// + `measure` request holds a worker for a while.
fn big_schema() -> StarSchema {
    StarSchema::new(vec![
        Hierarchy::new("a", vec![32, 16]).unwrap(),
        Hierarchy::new("b", vec![32, 16]).unwrap(),
    ])
    .unwrap()
}

fn slow_price_request(salt: usize) -> Request {
    let schema = big_schema();
    let shape = LatticeShape::of_schema(&schema);
    let w = salted_workload(&shape, salt);
    let mut req = Request::price(
        SchemaSpec::of(&schema),
        WorkloadSpec::of(&w),
        StrategySpec::snaked_path(vec![0, 1, 0, 1]),
    );
    // Distinct records_per_cell per caller defeats the cost memo, so every
    // request does real packing + measurement work.
    req.measure = Some(MeasureSpec {
        records_per_cell: 1 + (salt as u64 % 7),
        page_size: 4_096,
        record_size: 125,
        physical: false,
    });
    req
}

#[test]
fn thundering_herd_is_shed_not_stalled() {
    const HERD: usize = 16;
    let server = Server::spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 42,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let addr = server.local_addr();
    let barrier = Barrier::new(HERD);
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for i in 0..HERD {
            let barrier = &barrier;
            let (ok, shed) = (&ok, &shed);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let req = slow_price_request(i);
                barrier.wait();
                let resp = client.call(req).expect("shed replies arrive immediately");
                if resp.ok {
                    ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    let err = resp.error.unwrap();
                    assert_eq!(err.code, "overloaded", "{err:?}");
                    // 42 only until the first price finishes; a client
                    // read after that is shed with (queue depth + 1) ×
                    // the measured service time. Which one a client sees
                    // depends on the interleaving, so only the clamp is
                    // checked here.
                    let hint = err
                        .retry_after_ms
                        .expect("a shed reply carries a retry hint");
                    assert!((1..=10_000).contains(&hint), "retry hint {hint} ms");
                    shed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, HERD as u64);
    assert!(ok >= 1, "at least the admitted requests complete");
    assert!(
        shed >= 1,
        "a {HERD}-client herd against workers=1/queue=1 must shed"
    );
    // The metrics registry agrees with the clients' view.
    let stats = server.engine().stats_body();
    let price_stats = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "price")
        .unwrap();
    assert_eq!(price_stats.shed, shed);
    assert_eq!(price_stats.requests, ok);
    server.join();
}

#[test]
fn deadlines_cancel_queued_and_running_work() {
    let server = Server::spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let addr = server.local_addr();
    // Occupy the single worker, then submit with an already-expired
    // deadline: the request must fail fast without being executed.
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let _ = client.call(slow_price_request(0));
        });
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut client = Client::connect(addr).expect("connect");
            let mut req = slow_price_request(1);
            req.deadline_ms = Some(0);
            let resp = client.call(req).expect("deadline reply arrives");
            assert!(!resp.ok);
            assert_eq!(resp.error.unwrap().code, "deadline_exceeded");
        });
    });
    server.join();
}

/// Two clients send slow prices while a third asks for a drain. Which
/// prices are admitted before the drain depends on the interleaving (the
/// exact contracts are pinned in the simulator: `sim::tests::a_drain_*`
/// and `a_full_queue_sheds_while_shutdown_still_acks_and_drains`), so
/// this checks only what holds on every interleaving:
///
/// - the shutdown acks;
/// - a price is answered ok, shed (`overloaded`) or refused
///   (`shutting_down`), or finds its connection already closed by the
///   drain when its client stalled past the drain grace window;
/// - every price the server admitted is answered ok;
/// - a frame after the ack is refused, or finds the connection closed;
/// - `join` completes: no worker is stuck on a closed queue.
fn drain_under_load(config: ServerConfig) {
    let server = Server::spawn(config).expect("spawn");
    let addr = server.local_addr();
    let delivered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for i in 0..2 {
            let delivered = &delivered;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return; // the drain already closed the listener
                };
                match client.call(slow_price_request(i)) {
                    Ok(resp) if resp.ok => {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(resp) => {
                        let code = resp.error.expect("an error body").code;
                        assert!(code == "overloaded" || code == "shutting_down", "{code}");
                    }
                    Err(_) => {} // closed by the drain before it was read
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let mut client = Client::connect(addr).expect("connect");
            let bye = client.shutdown().expect("shutdown acks");
            assert!(bye.ok, "{:?}", bye.error);
            if let Ok(refused) = client.call(Request::new("ping")) {
                assert!(!refused.ok);
                assert_eq!(refused.error.unwrap().code, "shutting_down");
            }
        });
    });
    let stats = server.engine().stats_body();
    let admitted = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "price")
        .map_or(0, |e| e.requests);
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        admitted,
        "every admitted request keeps its response across the drain"
    );
    server.join();
}

#[test]
fn shutdown_while_the_admission_queue_is_saturated() {
    drain_under_load(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
}

#[test]
fn shutdown_drains_without_losing_admitted_responses() {
    drain_under_load(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
}
