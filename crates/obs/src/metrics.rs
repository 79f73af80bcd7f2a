//! Lock-free metrics: a fixed catalog of atomic counters, gauges and
//! fixed-bucket histograms.
//!
//! The registry is deliberately *not* a string-keyed map: every metric the
//! workspace records is declared up front in [`MetricId`], so a
//! [`MetricsRegistry`] is a plain array of atomics. Recording a sample is a
//! single `fetch_add` / `store` with relaxed ordering — no locks, no
//! allocation, no hashing — which is what lets instrumentation stay in the
//! stage-2 hot path without measurable overhead.
//!
//! Two registries matter in practice:
//!
//! - a **per-compilation** registry owned by an
//!   `ObsCollector`, whose totals are deterministic for a
//!   given program (and thread-count-independent — the proptests in
//!   `phoenix-core` enforce this);
//! - the **process-global** registry ([`global`]), fed by substrate crates
//!   (router swap insertions, simulator gate applications, pool fan-outs)
//!   that have no compilation context to thread a collector through. It
//!   always records, at one relaxed add per sample.
//!
//! Each counter belongs to one of the two ([`MetricId::process_wide`]);
//! gauges and histograms belong to the per-compilation registry. A
//! snapshot lists only the metrics of its registry's scope.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Every counter the PHOENIX pipeline records. The discriminant indexes the
/// registry's counter array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum MetricId {
    /// IR groups compiled by stage 2.
    GroupsCompiled,
    /// Pauli terms covered by the compiled groups.
    TermsCompiled,
    /// CNOTs saved by stage-2 BSF simplification vs the conventional
    /// `2(w-1)`-per-term synthesis estimate.
    CnotsSavedStage2,
    /// Stage-2 groups that fell back to conventional synthesis after a
    /// contained panic.
    Stage2Degraded,
    /// Budgeted compiles whose anytime deepening stopped because the pass
    /// budget elapsed before the next round started: one per `truncated`
    /// event. The name predates the anytime pass and stays because
    /// `phoenixd` replies carry it.
    Stage2Truncated,
    /// Groups permuted by the Tetris-like ordering stage.
    OrderedGroups,
    /// SWAPs inserted by SABRE routing (successful attempt only).
    SabreSwaps,
    /// Routing attempts abandoned by the retry ladder.
    RouterRetries,
    /// Routing attempts that ran, successful or not (none on a route-memo
    /// hit).
    RouterAttempts,
    /// Passes executed by the pass manager.
    PassesRun,
    /// Pass-boundary validations accepted by observers.
    BoundariesVerified,
    /// Gate applications performed by the state-vector simulator
    /// (global registry only — the simulator has no compile context).
    SimGateOps,
    /// SWAPs inserted by the router, process-wide (global registry only).
    SabreSwapsTotal,
    /// Bridge gates emitted by the router, process-wide (global registry
    /// only).
    SabreBridgesTotal,
    /// Whole-program structure-artifact cache lookups that hit.
    CacheProgramHits,
    /// Whole-program structure-artifact cache lookups that missed.
    CacheProgramMisses,
    /// Per-group synthesis cache lookups that hit.
    CacheGroupHits,
    /// Per-group synthesis cache lookups that missed.
    CacheGroupMisses,
    /// Routed-template cache lookups that hit: the compile bound its angles
    /// into a stored routing instead of searching a layout and routing.
    CacheRouteHits,
    /// Routed-template cache lookups that missed.
    CacheRouteMisses,
    /// Deepening rounds completed by the anytime optimizer.
    AnytimeRounds,
    /// Deepening rounds that strictly improved the best-so-far circuit.
    AnytimeImprovements,
    /// Fleet compilations executed (one per `CompileRequest::fleet` call).
    FleetCompiles,
    /// Per-device member compiles attempted across all fleet requests.
    FleetMembersCompiled,
    /// Fan-outs handed to the worker pool, process-wide (global registry
    /// only).
    PoolFanouts,
    /// Indices of the fan-outs handed to the pool (global registry only).
    PoolIndices,
    /// Indices a pool worker ran rather than the fan-out's caller (global
    /// registry only: it depends on scheduling, so it stays out of the
    /// deterministic per-compilation snapshot).
    PoolHelperIndices,
}

/// All counters, in discriminant order. Kept in sync with [`MetricId`] by
/// the `catalog_is_complete` test.
pub const COUNTERS: [MetricId; 27] = [
    MetricId::GroupsCompiled,
    MetricId::TermsCompiled,
    MetricId::CnotsSavedStage2,
    MetricId::Stage2Degraded,
    MetricId::Stage2Truncated,
    MetricId::OrderedGroups,
    MetricId::SabreSwaps,
    MetricId::RouterRetries,
    MetricId::RouterAttempts,
    MetricId::PassesRun,
    MetricId::BoundariesVerified,
    MetricId::SimGateOps,
    MetricId::SabreSwapsTotal,
    MetricId::SabreBridgesTotal,
    MetricId::CacheProgramHits,
    MetricId::CacheProgramMisses,
    MetricId::CacheGroupHits,
    MetricId::CacheGroupMisses,
    MetricId::CacheRouteHits,
    MetricId::CacheRouteMisses,
    MetricId::AnytimeRounds,
    MetricId::AnytimeImprovements,
    MetricId::FleetCompiles,
    MetricId::FleetMembersCompiled,
    MetricId::PoolFanouts,
    MetricId::PoolIndices,
    MetricId::PoolHelperIndices,
];

impl MetricId {
    /// The stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::GroupsCompiled => "groups_compiled",
            MetricId::TermsCompiled => "terms_compiled",
            MetricId::CnotsSavedStage2 => "cnots_saved_stage2",
            MetricId::Stage2Degraded => "stage2_degraded",
            MetricId::Stage2Truncated => "stage2_truncated",
            MetricId::OrderedGroups => "ordered_groups",
            MetricId::SabreSwaps => "sabre_swaps",
            MetricId::RouterRetries => "router_retries",
            MetricId::RouterAttempts => "router_attempts",
            MetricId::PassesRun => "passes_run",
            MetricId::BoundariesVerified => "boundaries_verified",
            MetricId::SimGateOps => "sim_gate_ops",
            MetricId::SabreSwapsTotal => "sabre_swaps_total",
            MetricId::SabreBridgesTotal => "sabre_bridges_total",
            MetricId::CacheProgramHits => "cache_program_hits",
            MetricId::CacheProgramMisses => "cache_program_misses",
            MetricId::CacheGroupHits => "cache_group_hits",
            MetricId::CacheGroupMisses => "cache_group_misses",
            MetricId::CacheRouteHits => "cache_route_hits",
            MetricId::CacheRouteMisses => "cache_route_misses",
            MetricId::AnytimeRounds => "anytime_rounds",
            MetricId::AnytimeImprovements => "anytime_improvements",
            MetricId::FleetCompiles => "fleet_compiles",
            MetricId::FleetMembersCompiled => "fleet_members_compiled",
            MetricId::PoolFanouts => "pool_fanouts",
            MetricId::PoolIndices => "pool_indices",
            MetricId::PoolHelperIndices => "pool_helper_indices",
        }
    }

    /// Whether the counter is process-wide: recorded only in the
    /// [`global`] registry, by code that has no compilation context. Every
    /// other counter is recorded only in a per-compilation registry.
    pub fn process_wide(self) -> bool {
        matches!(
            self,
            MetricId::SimGateOps
                | MetricId::SabreSwapsTotal
                | MetricId::SabreBridgesTotal
                | MetricId::FleetCompiles
                | MetricId::FleetMembersCompiled
                | MetricId::PoolFanouts
                | MetricId::PoolIndices
                | MetricId::PoolHelperIndices
        )
    }
}

/// The gauge catalog: last-write-wins instantaneous values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Worker threads stage 2 actually used.
    Stage2Threads,
    /// Lookahead window of the ordering stage.
    OrderLookahead,
    /// Physical qubits of the routing target.
    DeviceQubits,
}

/// All gauges, in discriminant order.
pub const GAUGES: [GaugeId; 3] = [
    GaugeId::Stage2Threads,
    GaugeId::OrderLookahead,
    GaugeId::DeviceQubits,
];

impl GaugeId {
    /// The stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::Stage2Threads => "stage2_threads",
            GaugeId::OrderLookahead => "order_lookahead",
            GaugeId::DeviceQubits => "device_qubits",
        }
    }
}

/// The histogram catalog: power-of-two-bucketed distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Terms per IR group.
    GroupTerms,
    /// CNOTs per synthesized group subcircuit.
    GroupCnots,
    /// CNOTs saved per group vs conventional synthesis.
    GroupCnotsSaved,
}

/// All histograms, in discriminant order.
pub const HISTOGRAMS: [HistogramId; 3] = [
    HistogramId::GroupTerms,
    HistogramId::GroupCnots,
    HistogramId::GroupCnotsSaved,
];

impl HistogramId {
    /// The stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::GroupTerms => "group_terms",
            HistogramId::GroupCnots => "group_cnots",
            HistogramId::GroupCnotsSaved => "group_cnots_saved",
        }
    }
}

/// Number of buckets per histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones), with the last bucket
/// open-ended.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-bucket histogram over `u64` samples. Buckets are powers of two,
/// so `record` is a `leading_zeros` plus one atomic add.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// The bucket index a value falls into.
    fn bucket_of(value: u64) -> usize {
        // 0 and 1 land in bucket 0; 2..4 in 1; 4..8 in 2; ...
        let bits = 64 - value.max(1).leading_zeros() as usize;
        (bits - 1).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample (lock-free, relaxed).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the bucket occupancies.
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The lock-free registry: one atomic slot per catalog entry.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Whether this is the [`global`] registry, which records the
    /// process-wide counters; every other registry records the rest.
    process_wide: bool,
    counters: [AtomicU64; COUNTERS.len()],
    gauges: [AtomicI64; GAUGES.len()],
    histograms: [Histogram; HISTOGRAMS.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        // `Default` for arrays stops at 32 elements.
        MetricsRegistry {
            process_wide: false,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: Default::default(),
            histograms: Default::default(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to a counter (lock-free, relaxed). The counter must belong
    /// to this registry's scope, or no snapshot would list it.
    pub fn add(&self, id: MetricId, n: u64) {
        debug_assert_eq!(
            id.process_wide(),
            self.process_wide,
            "`{}` recorded outside its scope",
            id.name()
        );
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn incr(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge (last write wins).
    pub fn set_gauge(&self, id: GaugeId, value: i64) {
        self.gauges[id as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Records a histogram sample.
    pub fn observe(&self, id: HistogramId, value: u64) {
        self.histograms[id as usize].record(value);
    }

    /// Read access to a histogram.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id as usize]
    }

    /// A serializable point-in-time copy of the metrics of this registry's
    /// scope, sorted by metric name so output is deterministic. Zero-valued
    /// counters/gauges and empty histograms are retained — a report should
    /// show what was *not* exercised too.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_minus(None)
    }

    /// The current counters, index-aligned with the catalog: a baseline
    /// for [`MetricsRegistry::delta_since_raw`].
    pub(crate) fn raw(&self) -> RawCounts {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// The counter-wise difference from a raw baseline (saturating, so
    /// snapshots taken out of order clamp to zero rather than wrap). It
    /// turns two readings of the global registry, whose scope has no gauges
    /// or histograms, into a per-interval one.
    pub(crate) fn delta_since_raw(&self, earlier: &RawCounts) -> MetricsSnapshot {
        debug_assert!(self.process_wide, "only the process-wide scope is diffed");
        self.snapshot_minus(Some(earlier))
    }

    /// The name-sorted snapshot of the registry's scope, with `base`
    /// subtracted (saturating) from every counter when given.
    fn snapshot_minus(&self, base: Option<&RawCounts>) -> MetricsSnapshot {
        let order = sorted_catalog();
        let per_compilation = !self.process_wide;
        let counters = order
            .counters
            .iter()
            .filter(|&&i| COUNTERS[i].process_wide() == self.process_wide)
            .map(|&i| CounterSnapshot {
                name: COUNTERS[i].name().to_string(),
                value: self.counters[i]
                    .load(Ordering::Relaxed)
                    .saturating_sub(base.map_or(0, |b| b[i])),
            })
            .collect();
        let gauges = order
            .gauges
            .iter()
            .filter(|_| per_compilation)
            .map(|&i| GaugeSnapshot {
                name: GAUGES[i].name().to_string(),
                value: self.gauge(GAUGES[i]),
            })
            .collect();
        let histograms = order
            .histograms
            .iter()
            .filter(|_| per_compilation)
            .map(|&i| {
                let h = &self.histograms[i];
                HistogramSnapshot {
                    name: HISTOGRAMS[i].name().to_string(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Raw counter values, index-aligned with [`COUNTERS`].
pub(crate) type RawCounts = [u64; COUNTERS.len()];

/// The catalog's indices in name order, sorted once per process.
struct SortedCatalog {
    counters: Vec<usize>,
    gauges: Vec<usize>,
    histograms: Vec<usize>,
}

fn sorted_catalog() -> &'static SortedCatalog {
    fn by_name(names: Vec<&'static str>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by_key(|&i| names[i]);
        order
    }
    static ORDER: std::sync::OnceLock<SortedCatalog> = std::sync::OnceLock::new();
    ORDER.get_or_init(|| SortedCatalog {
        counters: by_name(COUNTERS.iter().map(|id| id.name()).collect()),
        gauges: by_name(GAUGES.iter().map(|id| id.name()).collect()),
        histograms: by_name(HISTOGRAMS.iter().map(|id| id.name()).collect()),
    })
}

/// One counter's snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Catalog name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge's snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Catalog name.
    pub name: String,
    /// Last stored value.
    pub value: i64,
}

/// One histogram's snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Catalog name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Power-of-two bucket occupancies.
    pub buckets: Vec<u64>,
}

/// A serializable, name-sorted copy of a registry.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name (`None` for unknown names).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Whether every counter and histogram is zero/empty.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.value == 0) && self.histograms.iter().all(|h| h.count == 0)
    }
}

/// The process-global registry, for the process-wide counters
/// ([`MetricId::process_wide`]) of instrumentation points with no
/// compilation context (simulator kernels, router internals, the worker
/// pool).
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| MetricsRegistry {
        process_wide: true,
        ..MetricsRegistry::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name-keyed delta `ObsCollector::finish` took before it kept a
    /// raw baseline: the reference `delta_since_raw` must equal.
    fn delta_by_name(later: &MetricsSnapshot, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = later
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name.clone(),
                value: c
                    .value
                    .saturating_sub(earlier.counter(&c.name).unwrap_or(0)),
            })
            .collect();
        let histograms = later
            .histograms
            .iter()
            .map(|h| {
                let before = earlier.histograms.iter().find(|e| e.name == h.name);
                HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count.saturating_sub(before.map_or(0, |b| b.count)),
                    sum: h.sum.saturating_sub(before.map_or(0, |b| b.sum)),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            v.saturating_sub(
                                before.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0),
                            )
                        })
                        .collect(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: later.gauges.clone(),
            histograms,
        }
    }

    #[test]
    fn catalog_is_complete() {
        // The const arrays enumerate every variant in discriminant order.
        for (i, id) in COUNTERS.iter().enumerate() {
            assert_eq!(*id as usize, i, "counter {} out of order", id.name());
        }
        for (i, id) in GAUGES.iter().enumerate() {
            assert_eq!(*id as usize, i, "gauge {} out of order", id.name());
        }
        for (i, id) in HISTOGRAMS.iter().enumerate() {
            assert_eq!(*id as usize, i, "histogram {} out of order", id.name());
        }
    }

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.incr(MetricId::GroupsCompiled);
        r.add(MetricId::GroupsCompiled, 4);
        assert_eq!(r.counter(MetricId::GroupsCompiled), 5);
        assert_eq!(r.counter(MetricId::SabreSwaps), 0);
    }

    #[test]
    fn gauges_take_last_write() {
        let r = MetricsRegistry::new();
        r.set_gauge(GaugeId::Stage2Threads, 8);
        r.set_gauge(GaugeId::Stage2Threads, 2);
        assert_eq!(r.gauge(GaugeId::Stage2Threads), 2);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_and_sum() {
        let r = MetricsRegistry::new();
        for v in [1, 2, 3, 100] {
            r.observe(HistogramId::GroupTerms, v);
        }
        let h = r.histogram(HistogramId::GroupTerms);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.buckets().iter().sum::<u64>(), 4);
    }

    /// A registry of the global one's scope, private to a test.
    fn process_wide() -> MetricsRegistry {
        MetricsRegistry {
            process_wide: true,
            ..MetricsRegistry::new()
        }
    }

    /// The names of the counters of one scope, sorted.
    fn scope(process_wide: bool) -> Vec<&'static str> {
        let mut names: Vec<_> = COUNTERS
            .iter()
            .filter(|id| id.process_wide() == process_wide)
            .map(|id| id.name())
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn snapshot_is_name_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.incr(MetricId::SabreSwaps);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, scope(false));
        assert_eq!(names.len(), 19);
        assert_eq!(s.gauges.len(), GAUGES.len());
        assert_eq!(s.histograms.len(), HISTOGRAMS.len());
        assert_eq!(s.counter("sabre_swaps"), Some(1));
        assert_eq!(s.counter("router_retries"), Some(0));
        assert_eq!(s.counter("sabre_swaps_total"), None);
        assert_eq!(s.counter("no_such_metric"), None);

        // The global registry lists its process-wide counters only.
        let s = global().snapshot();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, scope(true));
        assert_eq!(names.len(), 8);
        assert!(s.gauges.is_empty() && s.histograms.is_empty());
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let r = MetricsRegistry::new();
        r.add(MetricId::GroupsCompiled, 10);
        r.observe(HistogramId::GroupTerms, 5);
        let before = r.snapshot();
        r.add(MetricId::GroupsCompiled, 7);
        r.observe(HistogramId::GroupTerms, 9);
        let delta = delta_by_name(&r.snapshot(), &before);
        assert_eq!(delta.counter("groups_compiled"), Some(7));
        let h = delta
            .histograms
            .iter()
            .find(|h| h.name == "group_terms")
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
    }

    /// Only the process-wide scope, which has no gauges or histograms, is
    /// diffed raw.
    #[test]
    fn raw_delta_equals_the_named_delta() {
        let r = process_wide();
        r.add(MetricId::SimGateOps, 10);
        r.add(MetricId::SabreSwapsTotal, 3);
        let (raw, named) = (r.raw(), r.snapshot());
        r.add(MetricId::SimGateOps, 7);
        let delta = r.delta_since_raw(&raw);
        assert_eq!(delta, delta_by_name(&r.snapshot(), &named));
        assert_eq!(delta.counter("sim_gate_ops"), Some(7));
        assert_eq!(delta.counter("sabre_swaps_total"), Some(0));
        assert_eq!(delta.counter("terms_compiled"), None);
        assert!(delta.gauges.is_empty() && delta.histograms.is_empty());
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.incr(MetricId::PassesRun);
                        r.observe(HistogramId::GroupCnots, 3);
                    }
                });
            }
        });
        assert_eq!(r.counter(MetricId::PassesRun), 8000);
        assert_eq!(r.histogram(HistogramId::GroupCnots).count(), 8000);
    }
}
