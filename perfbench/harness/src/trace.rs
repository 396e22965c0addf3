//! The traced run's per-layer metrics. Counts come from the daemon's
//! `stats` deltas around the timed phases; times come from replaying the
//! same seeded inputs in-process through each layer's public functions,
//! after the daemon has stopped (so nothing else competes for the CPU).
//!
//! Where a workload never reaches a layer (`price_hot` sends no drift,
//! for instance), that layer's time is measured on the input of the
//! workload that does reach it, built from the same seed — so every
//! column has a value on every workload, and the "should stay flat"
//! workloads of the layer map in `perfbench/README.md` still see the
//! layer's own cost.

use crate::inputs::{self, Call, Strategy};
use crate::oracle::{load_table, Curve};
use crate::run::{copy_dir, Ctx, Run};
use crate::stats::{mean, median};
use crate::Metrics;
use snakes_core::advisor::recommend_with_model;
use snakes_core::cost::CostModel;
use snakes_core::dp::IncrementalDp;
use snakes_core::lattice::LatticeShape;
use snakes_core::parallel::metrics;
use snakes_core::path::LatticePath;
use snakes_core::schema::StarSchema;
use snakes_core::workload::{VersionedWorkload, Workload, WorkloadDelta};
use snakes_curves::{path_curve, snaked_path_curve, CompactHilbert, SignatureCache, StrategyId};
use snakes_service::protocol::{SchemaSpec, StatsBody, WorkloadSpec};
use snakes_service::{Deadline, Engine, Media, Request, Response};
use snakes_storage::{CellData, Migration, PoolStats, StorageConfig, TableFile, Wal};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Per-layer counts that must repeat exactly from run to run (they are
/// fixed by the seeded inputs, never by timing).
pub const EXACT_COUNTS: &[&str] = &[
    "engine.coalesced",
    "pool.evictions",
    "pool.physical_reads",
    "recluster.chunks",
    "recluster.probes",
    "recluster.records_moved",
    "shard.shed",
    "sigcache.hits",
    "sigcache.misses",
    "wal.checkpoints",
    "wal.entries",
];

/// Repetitions of each cheap in-process timing; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] of the mean time (ns) `f` takes per item.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&reps)
}

fn secs_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The first `n` `(call, request)` pairs of `streams` satisfying `pick`:
/// a contiguous run keeps each stream's fixed pattern (and so its mix of
/// request kinds and sizes) intact.
fn sample(
    streams: &[inputs::Stream],
    pick: impl Fn(&Call) -> bool,
    n: usize,
) -> Vec<(&Call, &Request)> {
    streams
        .iter()
        .flat_map(|s| s.calls.iter().zip(&s.requests))
        .filter(|(c, _)| pick(c))
        .take(n)
        .collect()
}

fn is_recommend(c: &Call) -> bool {
    matches!(c, Call::Recommend { .. })
}

fn is_drift(c: &Call) -> bool {
    matches!(c, Call::Drift { .. })
}

fn is_physical(c: &Call) -> bool {
    matches!(
        c,
        Call::Price {
            measure: Some(_),
            ..
        }
    )
}

fn is_path_price(c: &Call) -> bool {
    matches!(
        c,
        Call::Price {
            strategy: Strategy::Path { .. },
            ..
        }
    )
}

fn handle_us(engine: &Engine, reqs: &[&Request]) -> f64 {
    let deadline = Deadline::none();
    let t = Instant::now();
    for req in reqs {
        let resp = engine.handle(req, &deadline);
        assert!(resp.ok, "replayed request failed: {:?}", resp.error);
    }
    secs_ns(t) / 1e3 / reqs.len().max(1) as f64
}

/// Replays the earlier generation's history into `dir` in-process, for
/// workloads whose run seeded no data directory.
fn reference_template(ctx: &Ctx, dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let engine = Engine::new().with_durability(Media::Dir(dir.to_path_buf()))?;
    let deadline = Deadline::none();
    for req in &inputs::seed_history(ctx.seed).requests {
        assert!(engine.handle(req, &deadline).ok, "seed history replays");
    }
    Ok(())
}

pub fn per_layer(workload: &str, ctx: &Ctx, run: &Run, e2e: &Metrics) -> io::Result<Metrics> {
    let own = &run.streams[..];
    // Inputs of the workloads that reach the layers this one does not.
    let ref_cold = [inputs::advise_cold(ctx.seed, 64)];
    let ref_durable = [inputs::durable_mixed(ctx.seed, 4000, true, 1)];
    // The workload's own streams when they hold `pick`'s calls, else the
    // reference streams.
    let pick_source = |pick: fn(&Call) -> bool, reference| {
        if own.iter().any(|s| s.calls.iter().any(pick)) {
            own
        } else {
            reference
        }
    };
    let mut m = Metrics::new();

    // -- service::protocol ------------------------------------------------
    let frames: Vec<String> = sample(own, |_| true, 2000)
        .into_iter()
        .map(|(_, r)| r.to_line())
        .collect();
    let decode_us = ns_per_item(&frames, |f| {
        black_box(Request::parse(f).expect("frames parse"));
    }) / 1e3;
    let responses: Vec<Response> = run
        .kept_lines
        .iter()
        .take(2000)
        .map(|l| Response::parse(l).expect("kept answers parse"))
        .collect();
    let encode_us = ns_per_item(&responses, |r| {
        black_box(r.to_line());
    }) / 1e3;
    let (sent, _, req_bytes, resp_bytes) = run.totals;
    m.insert("protocol.decode_us", (decode_us, "us"));
    m.insert("protocol.encode_us", (encode_us, "us"));
    m.insert(
        "protocol.request_bytes",
        (req_bytes as f64 / sent as f64, "bytes"),
    );
    m.insert(
        "protocol.response_bytes",
        (resp_bytes as f64 / sent as f64, "bytes"),
    );

    // -- service::engine: price ------------------------------------------
    let prices = sample(
        own,
        Call::is_price,
        match workload {
            "price_hot" => 2000,
            // Sixteen whole cycles of the cold mix.
            "advise_cold" => 144,
            _ => 48,
        },
    );
    let price_reqs: Vec<&Request> = prices.iter().map(|(_, r)| *r).collect();
    let engine = Engine::new();
    if workload == "price_hot" {
        // Warm the cache with the set-up keys first, like the daemon.
        let hot = inputs::price_hot(ctx.seed, 1);
        let shape = LatticeShape::of_schema(&hot.schema);
        for strategy in &hot.setup {
            let req = Request::price(
                SchemaSpec::of(&hot.schema),
                WorkloadSpec::of(&Workload::uniform(shape.clone())),
                strategy.spec(),
            );
            assert!(engine.handle(&req, &Deadline::none()).ok);
        }
    }
    // Repeat only when every price hits the cache; a cold price must miss.
    let price_us = if workload == "price_hot" {
        median(
            &(0..REPS)
                .map(|_| handle_us(&engine, &price_reqs))
                .collect::<Vec<_>>(),
        )
    } else {
        handle_us(&engine, &price_reqs)
    };
    m.insert("engine.handle_us.price", (price_us, "us"));

    // -- service::engine: recommend; core::dp ------------------------------
    let recs = sample(pick_source(is_recommend, &ref_cold[..]), is_recommend, 48);
    let rec_reqs: Vec<&Request> = recs.iter().map(|(_, r)| *r).collect();
    let rec_engine = Engine::new();
    let rec_us = median(
        &(0..3)
            .map(|_| handle_us(&rec_engine, &rec_reqs))
            .collect::<Vec<_>>(),
    );
    m.insert("engine.handle_us.recommend", (rec_us, "us"));
    let recommend_ms = ns_per_item(&recs, |(call, _)| {
        if let Call::Recommend { schema, workload } = call {
            black_box(recommend_with_model(
                &CostModel::of_schema(schema),
                workload,
            ));
        }
    }) / 1e6;
    m.insert("dp.recommend_ms", (recommend_ms, "ms"));

    // -- service::engine: drift; service::durability; storage::wal ---------
    let template = ctx.work.join("trace-template");
    match &run.template {
        Some(t) => copy_dir(t, &template)?,
        None => reference_template(ctx, &template)?,
    }
    let live = ctx.work.join("trace-live");
    let mut recover = Vec::new();
    for _ in 0..3 {
        copy_dir(&template, &live)?;
        let t = Instant::now();
        black_box(Engine::new().with_durability(Media::Dir(live.clone()))?);
        recover.push(secs_ns(t) / 1e6);
    }
    m.insert("durability.recover_ms", (median(&recover), "ms"));
    copy_dir(&template, &live)?;
    let durable = Engine::new().with_durability(Media::Dir(live.clone()))?;
    durable.set_group_commit(true);
    let drifts = sample(pick_source(is_drift, &ref_durable[..]), is_drift, 400);
    let (mut handle, mut flush, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Deadline::none();
    for (_, req) in &drifts {
        let before = durable.stats_body().storage;
        let t = Instant::now();
        let resp = durable.handle(req, &deadline);
        handle.push(secs_ns(t) / 1e3);
        assert!(resp.ok, "replayed drift failed: {:?}", resp.error);
        let t = Instant::now();
        durable.flush_wal()?;
        flush.push(secs_ns(t) / 1e3);
        let after = durable.stats_body().storage;
        if after.checkpoints == before.checkpoints {
            bytes.push((after.wal_bytes - before.wal_bytes) as f64);
        }
    }
    drop(durable);
    std::fs::remove_dir_all(&live)?;
    std::fs::remove_dir_all(&template)?;
    m.insert("engine.handle_us.drift", (mean(&handle), "us"));
    m.insert("wal.flush_us", (mean(&flush), "us"));
    m.insert("wal.bytes_per_ack", (mean(&bytes), "bytes"));

    // The same drifts through the incremental DP alone.
    let history = inputs::seed_history(ctx.seed);
    let model = CostModel::of_schema(&inputs::session_schema());
    let mut sessions: Vec<VersionedWorkload> = history
        .initial
        .iter()
        .map(|w| VersionedWorkload::new(w.clone()))
        .collect();
    let apply = |sessions: &mut Vec<VersionedWorkload>, call: &Call| -> Option<usize> {
        let Call::Drift { session, updates } = call else {
            return None;
        };
        let delta = WorkloadDelta::new(updates.clone()).expect("valid delta");
        sessions[*session].apply(&delta).expect("delta applies");
        Some(*session)
    };
    for call in &history.calls {
        apply(&mut sessions, call);
    }
    let mut dps: Vec<IncrementalDp> = (0..inputs::SESSIONS)
        .map(|_| IncrementalDp::new(model.clone()))
        .collect();
    let (mut reopt, mut reused) = (Vec::new(), 0usize);
    for (call, _) in &drifts {
        let s = apply(&mut sessions, call).expect("drift");
        let t = Instant::now();
        let outcome = dps[s].reoptimize(sessions[s].workload());
        reopt.push(secs_ns(t) / 1e3);
        reused += usize::from(outcome.reused);
    }
    m.insert("dp.reopt_us", (mean(&reopt), "us"));
    m.insert(
        "dp.reused_share",
        (reused as f64 / drifts.len().max(1) as f64, "share"),
    );

    // -- curves::aggregate (cache hit path) --------------------------------
    let (hit_schema, hit_strategy) = prices
        .iter()
        .find_map(|(c, _)| match c {
            Call::Price {
                schema,
                strategy: s @ Strategy::Path { .. },
                ..
            } => Some((schema.clone(), s.clone())),
            _ => None,
        })
        .expect("every workload prices a lattice path");
    let Strategy::Path { dims, snaked } = &hit_strategy else {
        unreachable!("picked a path");
    };
    let id = StrategyId::Path {
        dims: dims.clone(),
        snaked: *snaked,
    };
    let mut cache = SignatureCache::new();
    let curve = Curve::build(&hit_schema, &hit_strategy);
    let Curve::Path(path) = &curve else {
        unreachable!("paths build nested loops");
    };
    cache.get_or_compute(&hit_schema, path, &id);
    let shape = LatticeShape::of_schema(&hit_schema);
    let hit_workloads: Vec<&Workload> = sample(own, Call::is_price, 2000)
        .into_iter()
        .filter_map(|(c, _)| match c {
            Call::Price { workload, .. } if workload.shape() == &shape => Some(workload),
            _ => None,
        })
        .collect();
    let hit_us = ns_per_item(&hit_workloads, |w| {
        let table =
            cache.get_or_compute_with(&hit_schema, &id, || -> snakes_curves::NestedLoops {
                unreachable!("the key is cached")
            });
        black_box(table.expected_cost(w));
    }) / 1e3;
    m.insert("sigcache.hit_us", (hit_us, "us"));

    // -- curves: construction ----------------------------------------------
    let builds = sample(own, is_path_price, 16);
    let (mut snaked_ms, mut plain_ms) = (Vec::new(), Vec::new());
    for (call, _) in &builds {
        let Call::Price {
            schema,
            strategy: Strategy::Path { dims, .. },
            ..
        } = call
        else {
            continue;
        };
        let path = LatticePath::from_dims(LatticeShape::of_schema(schema), dims.clone())
            .expect("valid path");
        snaked_ms.push(
            ns_per_item(&[()], |_| {
                black_box(snaked_path_curve(schema, &path));
            }) / 1e6,
        );
        plain_ms.push(
            ns_per_item(&[()], |_| {
                black_box(path_curve(schema, &path));
            }) / 1e6,
        );
    }
    m.insert("curves.build_ms.snaked", (mean(&snaked_ms), "ms"));
    m.insert("curves.build_ms.plain", (mean(&plain_ms), "ms"));
    let hilbert_grids: Vec<StarSchema> = if workload == "durable_mixed" {
        vec![inputs::fits_table().0, inputs::spill_table().0]
    } else {
        vec![inputs::table4()]
    };
    let mut hilbert_ms = Vec::new();
    let mut hilberts = Vec::new();
    for schema in &hilbert_grids {
        let t = Instant::now();
        let curve = CompactHilbert::new(schema.grid_shape());
        hilbert_ms.push(secs_ns(t) / 1e6);
        hilberts.push((schema.clone(), curve));
    }
    m.insert("curves.build_ms.hilbert", (mean(&hilbert_ms), "ms"));

    // -- curves::aggregate (kernels) -----------------------------------------
    // The walks this workload's daemon ran: the set-up keys (price_hot),
    // a sample of the cold prices, or every physically priced key.
    let mut walks: Vec<(StarSchema, Curve)> = Vec::new();
    match workload {
        "price_hot" => {
            let hot = inputs::price_hot(ctx.seed, 1);
            for s in hot.setup.iter().filter(|s| **s != Strategy::Hilbert) {
                walks.push((hot.schema.clone(), Curve::build(&hot.schema, s)));
            }
            let (schema, curve) = hilberts.pop().expect("table-4 hilbert");
            walks.push((schema, Curve::Hilbert(curve)));
        }
        _ => {
            let mut seen = std::collections::HashSet::new();
            for (call, _) in sample(
                own,
                Call::is_price,
                if workload == "advise_cold" { 27 } else { 4000 },
            ) {
                if let Call::Price {
                    schema, strategy, ..
                } = call
                {
                    if seen.insert((schema.fingerprint(), format!("{strategy:?}"))) {
                        walks.push((schema.clone(), Curve::build(schema, strategy)));
                    }
                }
            }
        }
    }
    let before = metrics::snapshot();
    let t = Instant::now();
    let mut walk_ms = Vec::new();
    for (schema, curve) in &walks {
        let w = Instant::now();
        black_box(curve.aggregate(schema));
        walk_ms.push(secs_ns(w) / 1e6);
    }
    let walk_ns = secs_ns(t);
    let d = metrics::snapshot().since(&before);
    let stages = (d.agg_decode_nanos + d.agg_count_nanos + d.agg_prefix_nanos).max(1) as f64;
    m.insert("aggregate.walk_ms", (mean(&walk_ms), "ms"));
    m.insert(
        "aggregate.ns_per_edge",
        (walk_ns / d.agg_edges.max(1) as f64, "ns"),
    );
    m.insert(
        "aggregate.decode_share",
        (d.agg_decode_nanos as f64 / stages, "share"),
    );
    m.insert(
        "aggregate.classify_share",
        (d.agg_count_nanos as f64 / stages, "share"),
    );
    m.insert(
        "aggregate.prefix_share",
        (d.agg_prefix_nanos as f64 / stages, "share"),
    );

    // -- storage::pool / storage::file -------------------------------------
    let physical = sample(pick_source(is_physical, &ref_durable[..]), is_physical, 32);
    let (mut load_ms, mut scan_ms) = (Vec::new(), Vec::new());
    let (mut fits_pool, mut spill_pool) = (PoolStats::default(), PoolStats::default());
    let fits_fp = inputs::fits_table().0.fingerprint();
    for (call, _) in &physical {
        let Call::Price {
            schema,
            workload: w,
            strategy,
            measure: Some(m),
        } = call
        else {
            continue;
        };
        let Curve::Path(curve) = Curve::build(schema, strategy) else {
            continue;
        };
        let t = Instant::now();
        let mut table = load_table(&curve, schema, m);
        load_ms.push(secs_ns(t) / 1e6);
        let t = Instant::now();
        black_box(table.workload_stats(schema, &curve, w)?);
        scan_ms.push(secs_ns(t) / 1e6);
        let pool = if schema.fingerprint() == fits_fp {
            &mut fits_pool
        } else {
            &mut spill_pool
        };
        pool.absorb(table.pool_stats());
    }
    m.insert("file.load_ms", (mean(&load_ms), "ms"));
    m.insert("file.scan_ms", (mean(&scan_ms), "ms"));
    m.insert("pool.hit_rate.fits", (fits_pool.hit_rate(), "share"));
    m.insert("pool.hit_rate.spills", (spill_pool.hit_rate(), "share"));

    // -- storage::recluster --------------------------------------------------
    m.insert("recluster.chunk_us", (chunk_us(ctx)?, "us"));

    // -- daemon counters around the timed phases ------------------------------
    let (b, a, end) = (&run.before, &run.after, &run.end);
    let shed = |s: &StatsBody| -> u64 { s.endpoints.iter().map(|e| e.shed).sum() };
    let checkpoints = a.storage.checkpoints - b.storage.checkpoints;
    // A checkpoint truncates the log after every `CHECKPOINT_EVERY` (64)
    // appends, so entries appended = 64 per checkpoint + what is left.
    let wal_entries = if checkpoints == 0 {
        a.storage.wal_entries - b.storage.wal_entries
    } else {
        64 * checkpoints + a.storage.wal_entries
    };
    let count = |v: u64| (v as f64, "count");
    m.insert(
        "sigcache.hits",
        count(a.signature_cache.hits - b.signature_cache.hits),
    );
    m.insert(
        "sigcache.misses",
        count(a.signature_cache.misses - b.signature_cache.misses),
    );
    m.insert(
        "engine.coalesced",
        count(a.batching.coalesced - b.batching.coalesced),
    );
    m.insert("shard.shed", count(shed(a) - shed(b)));
    m.insert("wal.entries", count(wal_entries));
    m.insert("wal.checkpoints", count(checkpoints));
    m.insert(
        "pool.evictions",
        count(a.storage.pool_evictions - b.storage.pool_evictions),
    );
    m.insert(
        "pool.physical_reads",
        count(a.storage.physical_reads - b.storage.physical_reads),
    );
    m.insert("recluster.chunks", count(end.recluster.chunks_applied));
    m.insert(
        "recluster.records_moved",
        count(end.recluster.records_moved),
    );
    m.insert("recluster.probes", count(end.recluster.probes));
    m.insert(
        "recluster.chunks_per_s",
        (end.recluster.chunks_applied as f64 / run.migration_s, "1/s"),
    );

    // -- where the closed loop's daemon CPU went ------------------------------
    let closed_calls = &own.last().expect("a closed-loop stream").calls;
    let n = run.closed.sent.max(1);
    let share = |pick: fn(&Call) -> bool| {
        (0..n)
            .filter(|&i| pick(&closed_calls[i % closed_calls.len()]))
            .count() as f64
            / n as f64
    };
    let (p_price, p_rec, p_drift) = (share(Call::is_price), share(is_recommend), share(is_drift));
    let engine_us = p_price * price_us + p_rec * rec_us + p_drift * (mean(&handle) + mean(&flush));
    let cpu_us = e2e["cpu_us_per_req"].0;
    m.insert(
        "shard.wire_us",
        (cpu_us - decode_us - encode_us - engine_us, "us"),
    );
    let misses = a.signature_cache.misses - run.closed_before.signature_cache.misses;
    let kernel_us = misses as f64 * mean(&walk_ms) * 1e3 / n as f64;
    m.insert("aggregate.cpu_share", (kernel_us / cpu_us, "share"));
    let dp_us = p_rec * recommend_ms * 1e3 + p_drift * mean(&reopt);
    m.insert("dp.cpu_share", (dp_us / cpu_us, "share"));
    Ok(m)
}

/// Mean time of one logged migration chunk (copy one page, append and
/// sync the fence record) on the reference job's table.
fn chunk_us(ctx: &Ctx) -> io::Result<f64> {
    let schema = inputs::schema(&[("p", &[8, 8]), ("t", &[8, 8])]);
    let shape = LatticeShape::of_schema(&schema);
    let path = |dims: Vec<usize>| LatticePath::from_dims(shape.clone(), dims).expect("valid path");
    let old_curve = snaked_path_curve(&schema, &path(vec![0, 1, 0, 1]));
    let new_curve = snaked_path_curve(&schema, &path(vec![1, 0, 1, 0]));
    let measure = inputs::migration_request(0)
        .measure_spec()
        .cloned()
        .expect("the job carries its geometry");
    let cells = CellData::from_counts(
        schema.grid_shape(),
        vec![measure.records_per_cell; schema.num_cells() as usize],
    );
    let config = StorageConfig {
        page_size: measure.page_size,
        record_size: measure.record_size,
    };
    let record = vec![0u8; measure.record_size as usize];
    let old = TableFile::create_in_memory(&old_curve, &cells, config, |_, _| record.clone())?;
    let mut migration = Migration::begin(old, io::Cursor::new(Vec::new()), &new_curve, &cells, 1)?;
    let wal_path = ctx.work.join("trace-recluster.wal");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&wal_path)?;
    let (mut wal, _) = Wal::open(file)?;
    let mut chunks = Vec::new();
    while !migration.done() {
        let t = Instant::now();
        migration.step_logged(&old_curve, &new_curve, &mut wal)?;
        chunks.push(secs_ns(t) / 1e3);
    }
    drop(wal);
    std::fs::remove_file(&wal_path)?;
    Ok(mean(&chunks))
}
