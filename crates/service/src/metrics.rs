//! Per-endpoint service metrics: lock-free counters and log₂-bucketed
//! latency histograms, surfaced through the `stats` endpoint and the
//! `snakes serve --metrics-every` ticker.

use crate::protocol::{BatchingStatsBody, EndpointStatsBody};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram buckets: bucket `i` counts latencies in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1 µs`). 40 buckets cover
/// up to ~2^39 µs ≈ 6.4 days — far beyond any deadline.
const BUCKETS: usize = 40;

/// A fixed-bucket log₂ latency histogram with relaxed atomic counters.
/// Quantiles are upper bounds of the answering bucket — at most 2× the
/// true value, which is the right fidelity for load-shedding decisions
/// and trend lines, at zero contention.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The maximum recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The upper bound (µs) of the bucket holding the `q`-quantile sample,
    /// for `q` in `[0, 1]`. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.max_us()
    }
}

/// The service endpoints tracked individually. `Other` absorbs unknown
/// endpoint names so a misbehaving client cannot grow the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `recommend`.
    Recommend,
    /// `price`.
    Price,
    /// `drift`.
    Drift,
    /// `explain`.
    Explain,
    /// `recluster`.
    Recluster,
    /// `recluster_status`.
    ReclusterStatus,
    /// `recluster_abort`.
    ReclusterAbort,
    /// `stats`.
    Stats,
    /// `ping`.
    Ping,
    /// `shutdown`.
    Shutdown,
    /// Anything else.
    Other,
}

/// All endpoints, in wire-stable reporting order.
pub const ENDPOINTS: [Endpoint; 11] = [
    Endpoint::Recommend,
    Endpoint::Price,
    Endpoint::Drift,
    Endpoint::Explain,
    Endpoint::Recluster,
    Endpoint::ReclusterStatus,
    Endpoint::ReclusterAbort,
    Endpoint::Stats,
    Endpoint::Ping,
    Endpoint::Shutdown,
    Endpoint::Other,
];

impl Endpoint {
    /// Maps a wire endpoint name.
    pub fn of(name: &str) -> Self {
        match name {
            "recommend" => Endpoint::Recommend,
            "price" => Endpoint::Price,
            "drift" => Endpoint::Drift,
            "explain" => Endpoint::Explain,
            "recluster" => Endpoint::Recluster,
            "recluster_status" => Endpoint::ReclusterStatus,
            "recluster_abort" => Endpoint::ReclusterAbort,
            "stats" => Endpoint::Stats,
            "ping" => Endpoint::Ping,
            "shutdown" => Endpoint::Shutdown,
            _ => Endpoint::Other,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Recommend => "recommend",
            Endpoint::Price => "price",
            Endpoint::Drift => "drift",
            Endpoint::Explain => "explain",
            Endpoint::Recluster => "recluster",
            Endpoint::ReclusterStatus => "recluster_status",
            Endpoint::ReclusterAbort => "recluster_abort",
            Endpoint::Stats => "stats",
            Endpoint::Ping => "ping",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        ENDPOINTS
            .iter()
            .position(|e| *e == self)
            .expect("endpoint listed")
    }
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    /// Completed requests (success or error).
    pub requests: AtomicU64,
    /// Requests answered with an error body.
    pub errors: AtomicU64,
    /// Requests rejected at admission (queue full).
    pub shed: AtomicU64,
    /// Requests that exceeded their deadline.
    pub deadline_exceeded: AtomicU64,
    /// End-to-end latency (admission to response ready).
    pub latency: Histogram,
}

impl EndpointMetrics {
    /// The wire stats body for this endpoint.
    pub fn to_body(&self, endpoint: Endpoint) -> EndpointStatsBody {
        EndpointStatsBody {
            endpoint: endpoint.name().into(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            p50_us: self.latency.quantile_us(0.50),
            p99_us: self.latency.quantile_us(0.99),
            max_us: self.latency.max_us(),
        }
    }
}

/// The per-endpoint metrics registry shared by every connection and
/// worker.
#[derive(Debug, Default)]
pub struct Registry {
    per_endpoint: [EndpointMetrics; ENDPOINTS.len()],
    /// Requests currently admitted and queued (not yet executing).
    pub queue_depth: AtomicU64,
    /// Requests admitted to the queue over the server's lifetime. After a
    /// full drain this must equal [`Registry::jobs_finished`] — an
    /// admitted job that never finishes was dropped on the floor.
    pub admitted: AtomicU64,
    /// Admitted jobs a worker finished (produced a response for, whether
    /// ok, errored, deadline-expired, or panic-contained).
    pub jobs_finished: AtomicU64,
    /// Responses replayed from the idempotency cache.
    pub deduplicated: AtomicU64,
    /// First executions stored under an idempotency key.
    pub idempotency_stored: AtomicU64,
    /// Handler panics caught in workers and surfaced in-band.
    pub panics_caught: AtomicU64,
    /// Distinct same-tick coalescing groups (a leader that gained at
    /// least one follower).
    pub batches: AtomicU64,
    /// Requests that reused a same-tick leader's result instead of
    /// running their own SignatureCache / recommendation pass.
    pub batch_coalesced: AtomicU64,
    /// Exponentially weighted mean of per-request execution time, stored
    /// as `f64` nanoseconds in bits. Zero until the first sample. Feeds
    /// [`Registry::suggested_retry_after_ms`].
    pub service_ns_ewma: AtomicU64,
}

/// EWMA smoothing factor for [`Registry::service_ns_ewma`]: each sample
/// contributes 1/8 — stable under bursts yet tracks load shifts within a
/// few dozen requests.
const EWMA_ALPHA: f64 = 0.125;

/// Ceiling for drain-rate-scaled retry hints (10 s): a saturated queue
/// should back clients off firmly, not strand them for minutes.
const MAX_RETRY_AFTER_MS: u64 = 10_000;

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters for `endpoint`.
    pub fn endpoint(&self, endpoint: Endpoint) -> &EndpointMetrics {
        &self.per_endpoint[endpoint.index()]
    }

    /// Records a completed request.
    pub fn record_completion(&self, endpoint: Endpoint, latency: Duration, ok: bool) {
        let m = self.endpoint(endpoint);
        m.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(latency);
    }

    /// Records an admission rejection (the request never ran).
    pub fn record_shed(&self, endpoint: Endpoint) {
        self.endpoint(endpoint).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a deadline miss.
    pub fn record_deadline(&self, endpoint: Endpoint) {
        self.endpoint(endpoint)
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records an idempotent replay (a stored response was returned).
    pub fn record_deduplicated(&self) {
        self.deduplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a first execution stored under an idempotency key.
    pub fn record_idempotency_stored(&self) {
        self.idempotency_stored.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a caught handler panic.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch follower: a request that reused a same-tick
    /// leader's result. `counted` is the leader entry's "already counted
    /// as a batch" flag — the first follower also counts the group.
    pub fn record_batch_follower(&self, counted: &mut bool) {
        if !*counted {
            *counted = true;
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.batch_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// The `stats.batching` wire body.
    pub fn batching_body(&self) -> BatchingStatsBody {
        BatchingStatsBody {
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.batch_coalesced.load(Ordering::Relaxed),
        }
    }

    /// Folds one measured execution time into the service-time EWMA.
    pub fn record_service_time(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().min(u128::from(u64::MAX)) as f64;
        // Racy read-modify-write is fine: the EWMA feeds an advisory
        // retry hint, and losing a sample under contention skews nothing.
        let prev = f64::from_bits(self.service_ns_ewma.load(Ordering::Relaxed));
        let next = if prev == 0.0 {
            sample
        } else {
            prev + EWMA_ALPHA * (sample - prev)
        };
        self.service_ns_ewma
            .store(next.to_bits(), Ordering::Relaxed);
    }

    /// A load-shed retry hint scaled to the measured queue drain rate:
    /// roughly how long until the `queued` requests ahead of the retry
    /// have been served, given the smoothed per-request service time.
    /// `queued` is the depth of the queue that sheds — a shard's own run
    /// queue on the sharded core, since each shard drains only its own.
    /// Falls back to `fallback` (the configured constant) before any
    /// sample lands; always at least 1 ms and at most 10 s.
    pub fn suggested_retry_after_ms(&self, queued: u64, fallback: u64) -> u64 {
        let ewma_ns = f64::from_bits(self.service_ns_ewma.load(Ordering::Relaxed));
        if ewma_ns <= 0.0 {
            return fallback.clamp(1, MAX_RETRY_AFTER_MS);
        }
        let drain_ms = (queued.saturating_add(1) as f64 * ewma_ns / 1e6).ceil() as u64;
        drain_ms.clamp(1, MAX_RETRY_AFTER_MS)
    }

    /// Wire bodies for every endpoint, in [`ENDPOINTS`] order.
    pub fn to_bodies(&self) -> Vec<EndpointStatsBody> {
        ENDPOINTS
            .iter()
            .map(|&e| self.endpoint(e).to_body(e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 100_000);
        // p50 falls in the bucket holding the 3rd sample (3 µs → [2,4)).
        assert_eq!(h.quantile_us(0.5), 4);
        // p100 upper-bounds the largest sample.
        assert!(h.quantile_us(1.0) >= 100_000);
        // Monotone in q.
        assert!(h.quantile_us(0.99) >= h.quantile_us(0.5));
    }

    #[test]
    fn endpoint_mapping_is_total() {
        assert_eq!(Endpoint::of("price"), Endpoint::Price);
        assert_eq!(Endpoint::of("nope"), Endpoint::Other);
        for e in ENDPOINTS {
            assert_eq!(Endpoint::of(e.name()), e);
        }
    }

    #[test]
    fn registry_counts() {
        let r = Registry::new();
        r.record_completion(Endpoint::Price, Duration::from_micros(10), true);
        r.record_completion(Endpoint::Price, Duration::from_micros(20), false);
        r.record_shed(Endpoint::Price);
        r.record_deadline(Endpoint::Price);
        let body = r.endpoint(Endpoint::Price).to_body(Endpoint::Price);
        assert_eq!(body.requests, 2);
        assert_eq!(body.errors, 1);
        assert_eq!(body.shed, 1);
        assert_eq!(body.deadline_exceeded, 1);
        assert!(body.p50_us > 0);
        let bodies = r.to_bodies();
        assert_eq!(bodies.len(), ENDPOINTS.len());
        assert_eq!(bodies[1].endpoint, "price");
    }

    #[test]
    fn batching_counters_count_groups_and_followers() {
        let r = Registry::new();
        let mut counted = false;
        r.record_batch_follower(&mut counted);
        r.record_batch_follower(&mut counted);
        let mut counted2 = false;
        r.record_batch_follower(&mut counted2);
        let body = r.batching_body();
        assert_eq!(body.batches, 2, "two distinct leader entries");
        assert_eq!(body.coalesced, 3, "three followers total");
    }

    #[test]
    fn retry_hint_scales_with_queue_depth_and_service_time() {
        let r = Registry::new();
        // No samples yet: the configured constant wins.
        assert_eq!(r.suggested_retry_after_ms(9, 50), 50);
        // 2 ms per request, 9 queued ahead → ~20 ms to drain past us.
        for _ in 0..64 {
            r.record_service_time(Duration::from_millis(2));
        }
        let hint = r.suggested_retry_after_ms(9, 50);
        assert!((15..=25).contains(&hint), "hint {hint} ∉ [15, 25]");
        // Deeper queue → proportionally longer hint.
        let deeper = r.suggested_retry_after_ms(99, 50);
        assert!(deeper > hint * 5, "deeper {deeper} vs {hint}");
        // Never below 1 ms, never above the 10 s ceiling.
        assert_eq!(r.suggested_retry_after_ms(u64::MAX, 50), 10_000);
    }
}
