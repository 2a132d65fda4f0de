//! # tc-engine — a batched triangle-counting engine
//!
//! The paper measures one graph, one run, one device. This crate is the
//! serving layer above it: an [`Engine`] accepts a batch of jobs (graph ×
//! backend × options) and runs them through
//!
//! * a **[`PreparedGraph`] cache** keyed by graph content digest and
//!   backend token — the host-to-device copy and the eight preprocessing
//!   steps (the majority of the paper's measured window, §III-E) are paid
//!   once per distinct (graph, backend) and every further count runs only
//!   the kernel phases;
//! * a **[`DevicePool`]** leasing warm simulated devices to workers, so
//!   the ~100 ms context bring-up (§IV) is paid per device, not per job;
//! * a **bounded job queue** with blocking backpressure (or load-shedding
//!   admission), a configurable worker fleet, per-job modeled-time
//!   budgets, and per-job [`ProfileReport`] attribution;
//! * **engine-wide telemetry**: a lifetime [`MetricsRegistry`]
//!   (deterministic modeled series + advisory host-side series) and an
//!   end-to-end [`RequestTrace`] per job whose stage spans nest the
//!   kernel profiler's spans, exported together as one Chrome trace.
//!
//! Batches are deterministic: the same jobs produce the same
//! [`BatchReport`] JSON, metrics snapshot, and trace bytes regardless of
//! worker count or scheduling, because every modeled quantity is
//! schedule-independent and cache hits are assigned by submission order,
//! not by which worker won a race. (Under [`Admission::Shed`] the
//! deterministic promise is forfeited — which jobs shed depends on load;
//! the default [`Admission::Block`] keeps it.)
//!
//! ```
//! use std::sync::Arc;
//! use tc_engine::{Engine, EngineConfig, Job};
//! use tc_graph::EdgeArray;
//!
//! let g = Arc::new(EdgeArray::from_undirected_pairs([
//!     (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
//! ]));
//! let engine = Engine::new(EngineConfig::default());
//! let jobs = (0..3)
//!     .map(|i| Job::new(format!("diamond#{i}"), Arc::clone(&g), "gtx980".parse().unwrap()))
//!     .collect();
//! let report = engine.run_batch(jobs);
//! assert_eq!(report.cache_hits, 2); // first job prepares, the rest reuse
//! for job in &report.jobs {
//!     assert_eq!(job.result.as_ref().unwrap().triangles, 2);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod jobfile;
pub mod queue;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tc_core::gpu::prepared::PreparedGraph;
use tc_core::{Backend, CountRequest, GpuOptions, PreparedCluster};
use tc_graph::EdgeArray;
use tc_simt::profiler::{ProfileReport, RelSpan};
use tc_simt::{ClusterTopology, DevicePool, PoolTicket};
use tc_telemetry::{
    chrome_trace_json, seconds_to_ns, Determinism, MetricsRegistry, MetricsSnapshot, RequestTrace,
    Stage, TraceSpan,
};

pub use error::EngineError;
pub use jobfile::parse_jobfile;

/// What the engine does when a job arrives and the queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitter until a slot frees (backpressure). Keeps the
    /// batch fully deterministic: every job runs.
    #[default]
    Block,
    /// Refuse the job immediately ([`EngineError::QueueFull`] in its
    /// report slot) and count it in the advisory `engine_shed_total`
    /// series. Which jobs shed depends on worker speed, so shedding
    /// forfeits byte-identical reports.
    Shed,
}

/// Engine sizing. Defaults suit tests and CLI batches; a serving
/// deployment tunes all four.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job-queue slots; submission blocks (backpressure) when full.
    pub queue_capacity: usize,
    /// Distinct (graph, backend) sessions kept device-resident. Batches
    /// with more distinct cacheable keys run the excess one-shot.
    pub cache_capacity: usize,
    /// Full-queue policy: block the submitter (default) or shed the job.
    pub admission: Admission,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: tc_par::max_threads().clamp(1, 8),
            queue_capacity: 64,
            cache_capacity: 8,
            admission: Admission::Block,
        }
    }
}

/// One unit of work: count the triangles of `graph` with `backend`.
///
/// Built with [`Job::new`] plus chainable options:
///
/// ```
/// use std::sync::Arc;
/// use tc_engine::Job;
/// use tc_graph::EdgeArray;
///
/// let g = Arc::new(EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]));
/// let job = Job::new("triangle", g, "gtx980".parse().unwrap())
///     .profile(true)
///     .timeout_ms(50.0);
/// assert!(job.profile);
/// assert_eq!(job.timeout_ms, Some(50.0));
/// ```
#[derive(Clone, Debug)]
pub struct Job {
    /// Caller-chosen label; carried through to the report.
    pub name: String,
    pub graph: Arc<EdgeArray>,
    pub backend: Backend,
    /// Attach a per-job [`ProfileReport`] to the result.
    pub profile: bool,
    /// Budget for the job's *modeled* time (deterministic, unlike host
    /// time): a job charged more than this many milliseconds reports
    /// [`EngineError::Timeout`] instead of a count.
    pub timeout_ms: Option<f64>,
}

impl Job {
    pub fn new(name: impl Into<String>, graph: Arc<EdgeArray>, backend: Backend) -> Self {
        Job {
            name: name.into(),
            graph,
            backend,
            profile: false,
            timeout_ms: None,
        }
    }

    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    pub fn timeout_ms(mut self, ms: f64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }
}

/// A successful job: the count and what it cost.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub triangles: u64,
    /// Seconds charged to this job: `prepare_s + count_s` for modeled
    /// backends (host wall-clock for CPU backends).
    pub seconds: f64,
    /// Preprocessing seconds this job paid — zero on a cache hit, which is
    /// the entire point of the prepared-session cache.
    pub prepare_s: f64,
    /// Kernel-phase seconds (or the whole run for non-cacheable backends).
    pub count_s: f64,
    /// Whether the count reused an already-prepared session.
    pub cache_hit: bool,
    /// Whether `seconds` is *modeled* simulated-device time (deterministic)
    /// rather than measured host wall time (CPU backends).
    pub modeled: bool,
    pub profile: Option<ProfileReport>,
    /// Prepare-window phase spans on a clock-base-free nanosecond
    /// timeline — empty on cache hits (the hit paid no prepare) and for
    /// non-cacheable backends.
    pub prepare_trace: Vec<RelSpan>,
    /// Count-window kernel spans on the same kind of timeline.
    pub kernel_trace: Vec<RelSpan>,
}

/// One job's slot in the batch report.
#[derive(Debug)]
pub struct JobRecord {
    pub name: String,
    /// Canonical backend token (the `Display` form of [`Backend`]).
    pub backend: String,
    pub result: Result<JobResult, EngineError>,
}

/// Everything one [`Engine::run_batch`] call produced, in submission
/// order.
#[derive(Debug)]
pub struct BatchReport {
    pub jobs: Vec<JobRecord>,
    /// Jobs that reused a prepared session.
    pub cache_hits: usize,
    /// Jobs that paid a preprocessing pass (cacheable misses and one-shot
    /// overflow).
    pub cache_misses: usize,
    /// Devices the engine's pool has created so far (each paid context
    /// bring-up once).
    pub devices_created: usize,
    /// One end-to-end trace per job, in submission order (trace id =
    /// submission index). Byte-identical across runs and worker counts
    /// under [`Admission::Block`].
    pub traces: Vec<RequestTrace>,
    /// Snapshot of the engine's lifetime metrics registry, taken at the
    /// end of the batch.
    pub metrics: MetricsSnapshot,
}

impl BatchReport {
    /// Deterministic JSON: same jobs → same bytes, regardless of worker
    /// count (restrict to modeled backends; CPU timings are host-measured).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tc_engine::{Engine, EngineConfig, Job};
    /// use tc_graph::EdgeArray;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let g = Arc::new(EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]));
    /// let report = engine.run_batch(vec![Job::new("t", g, "gtx980".parse().unwrap())]);
    /// let json = report.to_json();
    /// assert!(json.contains("\"triangles\": 1"));
    /// assert!(json.contains("\"backend\": \"gtx980\""));
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 256 * self.jobs.len());
        out.push_str("{\n  \"jobs\": [\n");
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&job.name)));
            out.push_str(&format!(
                "      \"backend\": {},\n",
                json_string(&job.backend)
            ));
            match &job.result {
                Ok(r) => {
                    out.push_str("      \"status\": \"ok\",\n");
                    out.push_str(&format!("      \"triangles\": {},\n", r.triangles));
                    out.push_str(&format!("      \"seconds\": {},\n", json_f64(r.seconds)));
                    out.push_str(&format!(
                        "      \"prepare_s\": {},\n",
                        json_f64(r.prepare_s)
                    ));
                    out.push_str(&format!("      \"count_s\": {},\n", json_f64(r.count_s)));
                    out.push_str(&format!("      \"cache_hit\": {}\n", r.cache_hit));
                }
                Err(e) => {
                    out.push_str("      \"status\": \"error\",\n");
                    out.push_str(&format!(
                        "      \"error\": {}\n",
                        json_string(&e.to_string())
                    ));
                }
            }
            out.push_str("    }");
            if i + 1 != self.jobs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!("  \"cache_misses\": {},\n", self.cache_misses));
        out.push_str(&format!(
            "  \"devices_created\": {}\n}}\n",
            self.devices_created
        ));
        out
    }

    /// All request traces as one Chrome Trace Event JSON document — open
    /// it in Perfetto / `chrome://tracing` to see every request of the
    /// batch from the front door down to the kernel's DRAM phases.
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.traces)
    }

    /// The metrics snapshot as canonical JSON. With
    /// `include_advisory = false` (CI mode) the advisory section renders
    /// as `null`, so the bytes compare equal across hosts and runs.
    pub fn metrics_json(&self, include_advisory: bool) -> String {
        self.metrics.to_json(include_advisory)
    }

    /// The metrics snapshot in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.to_prometheus()
    }
}

/// Build one job's end-to-end trace from its report record. The timeline
/// is the request's own modeled time (t = 0 at the start of its first
/// charged stage): instant markers for admission and the planned cache
/// decision, a `engine:prepare` stage nesting the device-side
/// preprocess/schedule spans (misses only), an `engine:count` stage
/// nesting the kernel spans, and a closing `engine:merge` marker. CPU
/// backends are host-measured, so their count stage is an instant — wall
/// time never enters the deterministic artifact. Failed jobs get an
/// `engine:error[<stage>]` marker at their attributed stage instead.
fn build_trace(id: u64, rec: &JobRecord) -> RequestTrace {
    let mut spans = vec![TraceSpan::new("engine:admission", 0, 0, 0)];
    match &rec.result {
        Ok(r) => {
            spans.push(TraceSpan::new(
                if r.cache_hit {
                    "engine:cache-hit"
                } else {
                    "engine:cache-miss"
                },
                0,
                0,
                0,
            ));
            let mut cursor = 0u64;
            if r.modeled {
                if !r.cache_hit {
                    spans.push(TraceSpan::new("engine:device-lease", 0, 0, 0));
                }
                // The stage span must contain its children; the children's
                // ends come from prefix-sum rounding while the stage total
                // is quantized once, so take the max of the two.
                let child_end = |t: &[RelSpan]| t.iter().map(|s| s.start_ns + s.dur_ns).max();
                let prepare_ns =
                    seconds_to_ns(r.prepare_s).max(child_end(&r.prepare_trace).unwrap_or(0));
                if prepare_ns > 0 || !r.prepare_trace.is_empty() {
                    spans.push(TraceSpan::new("engine:prepare", 0, prepare_ns, 0));
                    for s in &r.prepare_trace {
                        spans.push(TraceSpan::new(
                            s.path.clone(),
                            s.start_ns,
                            s.dur_ns,
                            s.depth + 1,
                        ));
                    }
                    cursor = prepare_ns;
                }
                let count_ns =
                    seconds_to_ns(r.count_s).max(child_end(&r.kernel_trace).unwrap_or(0));
                spans.push(TraceSpan::new("engine:count", cursor, count_ns, 0));
                for s in &r.kernel_trace {
                    spans.push(TraceSpan::new(
                        s.path.clone(),
                        cursor + s.start_ns,
                        s.dur_ns,
                        s.depth + 1,
                    ));
                }
                cursor += count_ns;
            } else {
                spans.push(TraceSpan::new("engine:count", cursor, 0, 0));
            }
            spans.push(TraceSpan::new("engine:merge", cursor, 0, 0));
        }
        Err(e) => {
            spans.push(TraceSpan::new(
                format!("engine:error[{}]", e.stage()),
                0,
                0,
                0,
            ));
        }
    }
    RequestTrace {
        id,
        name: rec.name.clone(),
        backend: rec.backend.clone(),
        spans,
    }
}

/// Cache key: graph content digest × canonical backend token. Two loads of
/// the same edge set hit the same session even via different files or
/// orderings (the digest is order-independent).
type CacheKey = (u64, String);

/// One resident prepared session. Single-device sessions hold a device
/// leased from the engine's pool (the ticket returns it on release);
/// cluster sessions own their whole node × device grid outright — the
/// pool only models single warm devices, and a cluster's interconnect
/// charging is bound to its topology, so its devices are never shared.
enum CacheEntry {
    Single {
        // Boxed so the enum stays small: a cluster entry is a slim
        // handle while a single-device session embeds the whole
        // prepared state.
        prepared: Box<PreparedGraph>,
        ticket: PoolTicket,
    },
    Cluster {
        prepared: Box<PreparedCluster>,
    },
}

/// How the planner routed a job (fixed before execution so reports are
/// schedule-independent).
enum Plan {
    /// Cacheable: count through the shared prepared session. `hit` is true
    /// for every occurrence of a key after its first.
    Cached { key: CacheKey, hit: bool },
    /// Run start-to-finish on a pooled device (non-GPU backends, and
    /// cacheable jobs beyond `cache_capacity` distinct keys).
    OneShot,
}

/// The batched counting engine; see the crate docs.
pub struct Engine {
    config: EngineConfig,
    pool: DevicePool,
    cache: Mutex<HashMap<CacheKey, Arc<Mutex<Option<CacheEntry>>>>>,
    /// Keys admitted to the cache, in admission order (bounded by
    /// `cache_capacity`). Persisted across batches: an engine is a serving
    /// process, and batch N+1 reuses the sessions batch N prepared.
    admitted: Mutex<Vec<CacheKey>>,
    /// Lifetime metrics; every batch accumulates into it and snapshots it
    /// for the batch report.
    metrics: MetricsRegistry,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        // Workers hold at most one transient device each; cache residents
        // hold at most `cache_capacity` more. Sizing the pool to the sum
        // means an acquire can always eventually succeed — no deadlock.
        let pool = DevicePool::new(config.workers.max(1) + config.cache_capacity.max(1));
        Engine {
            config,
            pool,
            cache: Mutex::new(HashMap::new()),
            admitted: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The engine's lifetime metrics registry (accumulates across
    /// batches). Snapshot it any time; [`Engine::run_batch`] attaches a
    /// snapshot to every report.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Lifetime cache hit ratio (hits / cacheable lookups), from the
    /// deterministic counters. `None` until a cacheable job has run.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tc_engine::{Engine, EngineConfig, Job};
    /// use tc_graph::EdgeArray;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// assert_eq!(engine.cache_hit_ratio(), None);
    ///
    /// let g = Arc::new(EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]));
    /// let jobs = (0..4)
    ///     .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), "gtx980".parse().unwrap()))
    ///     .collect();
    /// engine.run_batch(jobs);
    /// // One prepare served three hits: 3 / 4.
    /// assert_eq!(engine.cache_hit_ratio(), Some(0.75));
    /// ```
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.metrics.counter_value("engine_cache_hits_total", &[]);
        let misses = self.metrics.counter_value("engine_cache_misses_total", &[]);
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Prepared sessions currently resident.
    pub fn cached_sessions(&self) -> usize {
        self.admitted.lock().unwrap().len()
    }

    /// Run a batch; results come back in submission order. Jobs are fed
    /// through the bounded queue (blocking on backpressure, or shedding
    /// under [`Admission::Shed`]) to `config.workers` worker threads.
    pub fn run_batch(&self, jobs: Vec<Job>) -> BatchReport {
        let plans = self.plan(&jobs);
        let results: Vec<Mutex<Option<JobRecord>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let queue: queue::JobQueue<(usize, Job, Plan, Instant)> =
            queue::JobQueue::new(self.config.queue_capacity);

        std::thread::scope(|s| {
            for _ in 0..self.config.workers.max(1) {
                let queue = &queue;
                let results = &results;
                s.spawn(move || {
                    while let Some((idx, job, plan, enqueued)) = queue.pop() {
                        self.metrics.observe_ns(
                            Determinism::Advisory,
                            "engine_queue_wait_host_ns",
                            "Host nanoseconds a job sat in the bounded queue.",
                            &[],
                            enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                        );
                        let record = self.execute(&job, &plan);
                        self.record_job_metrics(&record);
                        *results[idx].lock().unwrap() = Some(record);
                    }
                });
            }
            for (idx, (job, plan)) in jobs.into_iter().zip(plans).enumerate() {
                let backend_token = job.backend.to_string();
                self.metrics.inc_counter(
                    Determinism::Deterministic,
                    "engine_requests_total",
                    "Jobs submitted to the engine, by canonical backend token.",
                    &[("backend", &backend_token)],
                    1,
                );
                match self.config.admission {
                    Admission::Block => queue.push((idx, job, plan, Instant::now())),
                    Admission::Shed => {
                        let name = job.name.clone();
                        if let Err(e) = queue.try_push((idx, job, plan, Instant::now())) {
                            self.metrics.inc_counter(
                                Determinism::Advisory,
                                "engine_shed_total",
                                "Jobs refused at admission because the queue was full.",
                                &[],
                                1,
                            );
                            let record = JobRecord {
                                name,
                                backend: backend_token,
                                result: Err(e),
                            };
                            self.record_job_metrics(&record);
                            *results[idx].lock().unwrap() = Some(record);
                        }
                    }
                }
                self.metrics.gauge_max(
                    Determinism::Advisory,
                    "engine_queue_depth_highwater",
                    "Deepest the bounded job queue got (host-side observation).",
                    &[],
                    queue.len() as f64,
                );
            }
            queue.close();
        });

        let jobs: Vec<JobRecord> = results
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every job ran"))
            .collect();
        let cache_hits = jobs
            .iter()
            .filter(|j| matches!(&j.result, Ok(r) if r.cache_hit))
            .count();
        let cache_misses = jobs
            .iter()
            .filter(|j| matches!(&j.result, Ok(r) if !r.cache_hit))
            .count();
        if let Some(ratio) = self.cache_hit_ratio() {
            // Derived purely from deterministic counters, so the gauge is
            // deterministic too.
            self.metrics.set_gauge(
                Determinism::Deterministic,
                "engine_cache_hit_ratio",
                "Lifetime prepared-session cache hit ratio (hits / cacheable lookups).",
                &[],
                ratio,
            );
        }
        self.metrics.set_gauge(
            Determinism::Advisory,
            "engine_devices_created",
            "Simulated devices the pool has created (each paid context bring-up).",
            &[],
            self.pool.devices_created() as f64,
        );
        self.metrics.set_gauge(
            Determinism::Advisory,
            "engine_workers",
            "Configured worker threads.",
            &[],
            self.config.workers.max(1) as f64,
        );
        let traces = jobs
            .iter()
            .enumerate()
            .map(|(id, rec)| build_trace(id as u64, rec))
            .collect();
        BatchReport {
            jobs,
            cache_hits,
            cache_misses,
            devices_created: self.pool.devices_created(),
            traces,
            metrics: self.metrics.snapshot(),
        }
    }

    /// Fold one finished job into the lifetime registry. Runs on whichever
    /// worker finished the job: counter adds and histogram observations
    /// are order-independent, so the deterministic series end the batch
    /// identical no matter the interleaving.
    fn record_job_metrics(&self, record: &JobRecord) {
        let m = &self.metrics;
        match &record.result {
            Ok(r) => {
                m.inc_counter(
                    Determinism::Deterministic,
                    "engine_jobs_ok_total",
                    "Jobs that returned a triangle count.",
                    &[],
                    1,
                );
                m.inc_counter(
                    Determinism::Deterministic,
                    "engine_triangles_total",
                    "Triangles counted across all successful jobs.",
                    &[],
                    r.triangles,
                );
                m.inc_counter(
                    Determinism::Deterministic,
                    if r.cache_hit {
                        "engine_cache_hits_total"
                    } else {
                        "engine_cache_misses_total"
                    },
                    if r.cache_hit {
                        "Jobs that reused a prepared session."
                    } else {
                        "Jobs that paid a preprocessing pass."
                    },
                    &[],
                    1,
                );
                if r.modeled {
                    if !r.cache_hit && r.prepare_s > 0.0 {
                        m.observe_ns(
                            Determinism::Deterministic,
                            "engine_prepare_modeled_ns",
                            "Modeled nanoseconds of preprocessing passes (misses only).",
                            &[],
                            seconds_to_ns(r.prepare_s),
                        );
                    }
                    m.observe_ns(
                        Determinism::Deterministic,
                        "engine_count_modeled_ns",
                        "Modeled nanoseconds of counting phases, by backend.",
                        &[("backend", &record.backend)],
                        seconds_to_ns(r.count_s),
                    );
                } else {
                    // CPU backends are host-measured; wall time never
                    // enters a deterministic series.
                    m.observe_ns(
                        Determinism::Advisory,
                        "engine_cpu_host_ns",
                        "Host nanoseconds of CPU-backend jobs, by backend.",
                        &[("backend", &record.backend)],
                        seconds_to_ns(r.seconds),
                    );
                }
            }
            Err(e) => {
                m.inc_counter(
                    Determinism::Deterministic,
                    "engine_jobs_failed_total",
                    "Jobs that failed, by the request stage the failure is attributed to.",
                    &[("stage", e.stage().as_str())],
                    1,
                );
                if matches!(e, EngineError::Timeout { .. }) {
                    m.inc_counter(
                        Determinism::Deterministic,
                        "engine_timeouts_total",
                        "Jobs whose modeled time exceeded their budget.",
                        &[],
                        1,
                    );
                }
            }
        }
    }

    /// Decide, in submission order, which jobs count through the cache and
    /// which occurrence of each key pays the prepare. Doing this before any
    /// worker runs makes the reported hit flags (and the JSON) independent
    /// of scheduling.
    fn plan(&self, jobs: &[Job]) -> Vec<Plan> {
        let mut admitted = self.admitted.lock().unwrap();
        let mut cache = self.cache.lock().unwrap();
        jobs.iter()
            .map(|job| {
                if !matches!(&job.backend, Backend::Gpu(_) | Backend::Cluster { .. }) {
                    return Plan::OneShot;
                }
                let key: CacheKey = (job.graph.digest(), job.backend.to_string());
                if !admitted.contains(&key) {
                    if admitted.len() >= self.config.cache_capacity {
                        return Plan::OneShot;
                    }
                    admitted.push(key.clone());
                    cache.entry(key.clone()).or_default();
                    return Plan::Cached { key, hit: false };
                }
                // Resident already — from a previous batch, or because an
                // earlier job in this one was planned as the paying miss.
                Plan::Cached { key, hit: true }
            })
            .collect()
    }

    fn execute(&self, job: &Job, plan: &Plan) -> JobRecord {
        let name = job.name.clone();
        let backend = job.backend.to_string();
        let result = catch_unwind(AssertUnwindSafe(|| self.execute_inner(job, plan)))
            .unwrap_or_else(|panic| {
                let detail = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".into());
                Err(EngineError::WorkerPanicked { detail })
            });
        JobRecord {
            name,
            backend,
            result,
        }
    }

    fn execute_inner(&self, job: &Job, plan: &Plan) -> Result<JobResult, EngineError> {
        let result = match plan {
            Plan::Cached { key, hit } => self.run_cached(job, key, *hit)?,
            Plan::OneShot => self.run_oneshot(job)?,
        };
        if let Some(limit_ms) = job.timeout_ms {
            let needed_ms = result.seconds * 1e3;
            if needed_ms > limit_ms {
                // Attribute the blown budget: if the preprocessing charge
                // alone exceeded it, no count could have fit — the prepare
                // stage is at fault; otherwise the count pushed it over.
                let stage = if result.prepare_s * 1e3 > limit_ms {
                    Stage::Prepare
                } else {
                    Stage::Count
                };
                return Err(EngineError::Timeout {
                    limit_ms,
                    needed_ms,
                    stage,
                });
            }
        }
        Ok(result)
    }

    fn run_cached(&self, job: &Job, key: &CacheKey, hit: bool) -> Result<JobResult, EngineError> {
        let slot = Arc::clone(
            self.cache
                .lock()
                .unwrap()
                .get(key)
                .expect("planner created the slot"),
        );
        // The slot lock serializes jobs for the same session; jobs for
        // *different* sessions proceed in parallel on other workers.
        let mut entry = lock_slot(&slot);
        if entry.is_none() {
            // On a prepare error nothing is cached (for single-device
            // sessions the pool ticket drops here, freeing the slot);
            // the next job for this key retries the prepare.
            *entry = Some(match &job.backend {
                Backend::Gpu(opts) => {
                    let lease = self.pool.acquire(&opts.device);
                    let (device, ticket) = lease.detach();
                    let prepared = PreparedGraph::prepare_on(device, &job.graph, opts)
                        .map_err(EngineError::Count)?;
                    CacheEntry::Single {
                        prepared: Box::new(prepared),
                        ticket,
                    }
                }
                Backend::Cluster {
                    options,
                    nodes,
                    devices_per_node,
                    partition,
                } => {
                    let topology = ClusterTopology::new(*nodes, *devices_per_node);
                    let prepared =
                        PreparedCluster::prepare(&job.graph, options, topology, *partition)
                            .map_err(EngineError::Count)?;
                    CacheEntry::Cluster {
                        prepared: Box::new(prepared),
                    }
                }
                _ => unreachable!("only GPU and cluster backends are planned as cached"),
            });
        }
        // The prepare is charged to the first-occurrence job from the
        // plan, not to whichever worker happened to run it first: the
        // modeled prepare cost is deterministic, so the report is too.
        match entry.as_mut().expect("just prepared") {
            CacheEntry::Single { prepared, .. } => {
                let counted = prepared.count().map_err(EngineError::Count)?;
                let prepare_s = if hit { 0.0 } else { prepared.prepare_s() };
                let prepare_trace = if hit {
                    Vec::new()
                } else {
                    prepared.prepare_trace().to_vec()
                };
                Ok(JobResult {
                    triangles: counted.triangles,
                    seconds: prepare_s + counted.count_s,
                    prepare_s,
                    count_s: counted.count_s,
                    cache_hit: hit,
                    modeled: true,
                    profile: job.profile.then_some(counted.profile),
                    prepare_trace,
                    kernel_trace: counted.trace,
                })
            }
            CacheEntry::Cluster { prepared } => {
                let counted = prepared.count().map_err(EngineError::Count)?;
                let prepare_s = if hit { 0.0 } else { prepared.prepare_s() };
                let prepare_trace = if hit {
                    Vec::new()
                } else {
                    prepared.prepare_trace().to_vec()
                };
                Ok(JobResult {
                    triangles: counted.triangles,
                    seconds: prepare_s + counted.count_s,
                    prepare_s,
                    count_s: counted.count_s,
                    cache_hit: hit,
                    modeled: true,
                    profile: job.profile.then_some(counted.profile),
                    prepare_trace,
                    kernel_trace: counted.trace,
                })
            }
        }
    }

    fn run_oneshot(&self, job: &Job) -> Result<JobResult, EngineError> {
        if let Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition,
        } = &job.backend
        {
            // Uncached cluster job (overflow beyond `cache_capacity`): a
            // full shard/count/release session on a transient cluster.
            let topology = ClusterTopology::new(*nodes, *devices_per_node);
            let mut prepared = PreparedCluster::prepare(&job.graph, options, topology, *partition)
                .map_err(EngineError::Count)?;
            let prepare_s = prepared.prepare_s();
            let prepare_trace = prepared.prepare_trace().to_vec();
            let counted = prepared.count().map_err(EngineError::Count)?;
            prepared.release().map_err(EngineError::Count)?;
            return Ok(JobResult {
                triangles: counted.triangles,
                seconds: prepare_s + counted.count_s,
                prepare_s,
                count_s: counted.count_s,
                cache_hit: false,
                modeled: true,
                profile: job.profile.then_some(counted.profile),
                prepare_trace,
                kernel_trace: counted.trace,
            });
        }
        if let Backend::Gpu(opts) = &job.backend {
            // Uncached GPU job: full prepare+count+release session on a
            // pooled (warm) device.
            let lease = self.pool.acquire(&opts.device);
            let (device, ticket) = lease.detach();
            let outcome = Self::oneshot_session(device, &job.graph, opts, job.profile);
            match outcome {
                Ok((result, device)) => {
                    ticket.restore(device);
                    Ok(result)
                }
                Err(e) => Err(EngineError::Count(e)),
            }
        } else {
            let r = CountRequest::new(job.backend.clone())
                .profile(job.profile)
                .graph_name(&job.name)
                .run(&job.graph)
                .map_err(EngineError::Count)?;
            Ok(JobResult {
                triangles: r.triangles,
                seconds: r.seconds,
                prepare_s: r.gpu.as_ref().map_or(0.0, |g| g.preprocess_s),
                count_s: r.gpu.as_ref().map_or(r.seconds, |g| g.count_s),
                cache_hit: false,
                modeled: job.backend.is_modeled(),
                profile: r.profile,
                prepare_trace: Vec::new(),
                kernel_trace: Vec::new(),
            })
        }
    }

    fn oneshot_session(
        device: tc_simt::Device,
        graph: &EdgeArray,
        opts: &GpuOptions,
        profile: bool,
    ) -> Result<(JobResult, tc_simt::Device), tc_core::CoreError> {
        let mut prepared = PreparedGraph::prepare_on(device, graph, opts)?;
        let prepare_s = prepared.prepare_s();
        let prepare_trace = prepared.prepare_trace().to_vec();
        let counted = prepared.count()?;
        let device = prepared.release()?;
        Ok((
            JobResult {
                triangles: counted.triangles,
                seconds: prepare_s + counted.count_s,
                prepare_s,
                count_s: counted.count_s,
                cache_hit: false,
                modeled: true,
                profile: profile.then_some(counted.profile),
                prepare_trace,
                kernel_trace: counted.trace,
            },
            device,
        ))
    }

    /// Release every prepared session, returning its warm device to the
    /// pool (cluster sessions own their devices and simply drop them). The
    /// engine stays usable; the next batch re-admits from scratch.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tc_engine::{Engine, EngineConfig, Job};
    /// use tc_graph::EdgeArray;
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let g = Arc::new(EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]));
    /// engine.run_batch(vec![Job::new("warm", g, "cluster:2x2/gtx980".parse().unwrap())]);
    /// assert_eq!(engine.cached_sessions(), 1);
    /// engine.clear_cache();
    /// assert_eq!(engine.cached_sessions(), 0);
    /// ```
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().unwrap();
        for (_, slot) in cache.drain() {
            if let Some(entry) = lock_slot(&slot).take() {
                match entry {
                    CacheEntry::Single { prepared, ticket } => {
                        if let Ok(device) = prepared.release() {
                            ticket.restore(device);
                        }
                    }
                    // Cluster devices belong to the session, not the
                    // pool — releasing frees their arenas and drops them.
                    CacheEntry::Cluster { prepared } => {
                        let _ = prepared.release();
                    }
                }
            }
        }
        self.admitted.lock().unwrap().clear();
    }
}

/// Lock a session slot. A job that panicked while holding the lock (a panic
/// inside `count()`, say) poisons it and leaves the session in an unknown
/// state, so the entry is dropped — its pool ticket frees the device slot —
/// and the next job for the key prepares afresh.
fn lock_slot(slot: &Mutex<Option<CacheEntry>>) -> MutexGuard<'_, Option<CacheEntry>> {
    slot.lock().unwrap_or_else(|poisoned| {
        let mut entry = poisoned.into_inner();
        *entry = None;
        slot.clear_poison();
        entry
    })
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.clear_cache();
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_simt::DeviceConfig;

    fn diamond() -> Arc<EdgeArray> {
        Arc::new(EdgeArray::from_undirected_pairs([
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
        ]))
    }

    fn gpu() -> Backend {
        Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        ))
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 2,
            admission: Admission::Block,
        }
    }

    #[test]
    fn repeated_jobs_hit_the_cache_and_agree() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), gpu()))
            .collect();
        let report = engine.run_batch(jobs);
        assert_eq!(report.cache_hits, 4);
        assert_eq!(report.cache_misses, 1);
        for job in &report.jobs {
            let r = job.result.as_ref().unwrap();
            assert_eq!(r.triangles, 2);
            if r.cache_hit {
                assert_eq!(r.prepare_s, 0.0);
            } else {
                assert!(r.prepare_s > 0.0);
            }
        }
        // The session survives into the next batch.
        let report2 = engine.run_batch(vec![Job::new("late", g, gpu())]);
        assert_eq!(report2.cache_hits, 1);
        assert_eq!(engine.cached_sessions(), 1);
    }

    #[test]
    fn a_poisoned_session_slot_is_dropped_and_re_prepared() {
        let engine = Engine::new(small_config());
        let g = diamond();
        engine.run_batch(vec![Job::new("warm", Arc::clone(&g), gpu())]);
        let poison = || {
            let key: CacheKey = (g.digest(), gpu().to_string());
            let slot = Arc::clone(&engine.cache.lock().unwrap()[&key]);
            let panicked = std::thread::spawn(move || {
                let _held = slot.lock().unwrap();
                panic!("count() panicked mid-session");
            })
            .join();
            assert!(panicked.is_err());
        };

        poison();
        let report = engine.run_batch(vec![Job::new("after", Arc::clone(&g), gpu())]);
        let r = report.jobs[0].result.as_ref().expect("slot recovered");
        assert_eq!(r.triangles, 2);
        assert!(r.cache_hit, "the plan still counts the key as resident");
        let again = engine.run_batch(vec![Job::new("again", Arc::clone(&g), gpu())]);
        assert_eq!(again.jobs[0].result.as_ref().unwrap().triangles, 2);

        poison();
        engine.clear_cache();
        assert_eq!(engine.cached_sessions(), 0);
        let fresh = engine.run_batch(vec![Job::new("fresh", g, gpu())]);
        assert_eq!(fresh.jobs[0].result.as_ref().unwrap().triangles, 2);
    }

    #[test]
    fn sanitized_and_plain_backends_get_distinct_sessions() {
        // The cache key includes the backend token, and `/sanitize` is
        // part of the token — so a sanitized run must never reuse (or be
        // reused by) an unsanitized prepared session.
        let engine = Engine::new(small_config());
        let g = diamond();
        let mut sanitized = gpu();
        assert!(sanitized.set_sanitizer(tc_simt::SanitizerMode::Check));
        let jobs = vec![
            Job::new("plain0", Arc::clone(&g), gpu()),
            Job::new("san0", Arc::clone(&g), sanitized.clone()),
            Job::new("plain1", Arc::clone(&g), gpu()),
            Job::new("san1", g, sanitized),
        ];
        let report = engine.run_batch(jobs);
        // Two distinct sessions, each paying one prepare and serving one hit.
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 2);
        assert_eq!(engine.cached_sessions(), 2);
        for job in &report.jobs {
            assert_eq!(job.result.as_ref().unwrap().triangles, 2);
        }
        assert_eq!(report.jobs[0].backend, "gtx980");
        assert_eq!(report.jobs[1].backend, "gtx980/sanitize");
    }

    #[test]
    fn verified_and_plain_backends_get_distinct_sessions() {
        // `/verify` is the final suffix of the canonical token, so a
        // verified run (which carries launch proofs and may skip dynamic
        // racechecks) never shares a prepared session with a plain run.
        let engine = Engine::new(small_config());
        let g = diamond();
        let mut verified = gpu();
        assert!(verified.set_verify(true));
        let jobs = vec![
            Job::new("plain", Arc::clone(&g), gpu()),
            Job::new("ver0", Arc::clone(&g), verified.clone()),
            Job::new("ver1", g, verified),
        ];
        let report = engine.run_batch(jobs);
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 1);
        for job in &report.jobs {
            assert_eq!(job.result.as_ref().unwrap().triangles, 2);
        }
        assert_eq!(report.jobs[1].backend, "gtx980/verify");
        // Verification is host-side only: the verified jobs count the
        // same triangles in the same modeled time as the plain job.
        let plain_s = report.jobs[0].result.as_ref().unwrap().count_s;
        let verified_s = report.jobs[1].result.as_ref().unwrap().count_s;
        assert_eq!(plain_s, verified_s);
    }

    #[test]
    fn non_gpu_backends_run_oneshot() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let report = engine.run_batch(vec![
            Job::new("cpu", Arc::clone(&g), Backend::CpuForward),
            Job::new("gpu", g, gpu()),
        ]);
        let cpu = report.jobs[0].result.as_ref().unwrap();
        assert_eq!(cpu.triangles, 2);
        assert!(!cpu.cache_hit);
        assert_eq!(report.jobs[0].backend, "forward");
    }

    #[test]
    fn cache_overflow_falls_back_to_oneshot() {
        let mut cfg = small_config();
        cfg.cache_capacity = 1;
        let engine = Engine::new(cfg);
        let g1 = diamond();
        let g2 = Arc::new(EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]));
        let jobs = vec![
            Job::new("a0", Arc::clone(&g1), gpu()),
            Job::new("b0", Arc::clone(&g2), gpu()),
            Job::new("a1", g1, gpu()),
            Job::new("b1", g2, gpu()),
        ];
        let report = engine.run_batch(jobs);
        // g1 is admitted; g2 overflows and runs one-shot both times.
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.jobs[1].result.as_ref().unwrap().triangles, 1);
        assert!(!report.jobs[3].result.as_ref().unwrap().cache_hit);
    }

    #[test]
    fn timeouts_use_modeled_time() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let report = engine.run_batch(vec![
            Job::new("fast-enough", Arc::clone(&g), gpu()).timeout_ms(10_000.0),
            Job::new("impossible", g, gpu()).timeout_ms(1e-9),
        ]);
        assert!(report.jobs[0].result.is_ok());
        match &report.jobs[1].result {
            Err(EngineError::Timeout {
                limit_ms,
                needed_ms,
                ..
            }) => {
                assert!(needed_ms > limit_ms);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn failed_jobs_report_errors_without_poisoning_the_batch() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let tiny = Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_memory_capacity(64),
        ));
        let report = engine.run_batch(vec![
            Job::new("too-big", Arc::clone(&g), tiny),
            Job::new("fine", g, gpu()),
        ]);
        assert!(matches!(report.jobs[0].result, Err(EngineError::Count(_))));
        assert_eq!(report.jobs[1].result.as_ref().unwrap().triangles, 2);
    }

    #[test]
    fn tiny_queue_backpressure_still_completes_every_job() {
        let mut cfg = small_config();
        cfg.queue_capacity = 1;
        cfg.workers = 3;
        let engine = Engine::new(cfg);
        let g = diamond();
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), gpu()))
            .collect();
        let report = engine.run_batch(jobs);
        assert_eq!(report.jobs.len(), 12);
        assert!(report.jobs.iter().all(|j| j.result.is_ok()));
    }

    #[test]
    fn batch_json_is_deterministic_across_worker_counts() {
        let g = diamond();
        let mk_jobs = || -> Vec<Job> {
            (0..6)
                .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), gpu()))
                .collect()
        };
        let mut json = Vec::new();
        for workers in [1, 4] {
            let engine = Engine::new(EngineConfig {
                workers,
                queue_capacity: 2,
                cache_capacity: 2,
                admission: Admission::Block,
            });
            json.push(engine.run_batch(mk_jobs()).to_json());
        }
        assert_eq!(json[0], json[1]);
        assert!(json[0].contains("\"cache_hit\": true"));
    }

    #[test]
    fn cluster_sessions_cache_separately_per_topology() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let c22: Backend = "cluster:2x2/gtx980".parse().unwrap();
        let c12: Backend = "cluster:1x2/gtx980".parse().unwrap();
        let report = engine.run_batch(vec![
            Job::new("c22-0", Arc::clone(&g), c22.clone()),
            Job::new("c22-1", Arc::clone(&g), c22),
            Job::new("c12-0", g, c12),
        ]);
        // Same graph, different topology token → different session: the
        // 2x2 pair shares one prepare, the 1x2 job pays its own.
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(engine.cached_sessions(), 2);
        for job in &report.jobs {
            let r = job.result.as_ref().unwrap();
            assert_eq!(r.triangles, 2);
            assert!(r.modeled);
        }
        assert_eq!(report.jobs[0].backend, "cluster:2x2/gtx980");
        assert_eq!(report.jobs[2].backend, "cluster:1x2/gtx980");
        let hit = report.jobs[1].result.as_ref().unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.prepare_s, 0.0);
        assert!(hit.prepare_trace.is_empty());
        // The miss's traces carry the cluster stage vocabulary.
        let miss = report.jobs[0].result.as_ref().unwrap();
        assert!(miss
            .prepare_trace
            .iter()
            .any(|s| s.path.starts_with("shard-partition")));
        assert!(miss
            .kernel_trace
            .iter()
            .any(|s| s.path.starts_with("shard-count")));
        assert!(miss
            .kernel_trace
            .iter()
            .any(|s| s.path == "internode-merge"));
        engine.clear_cache();
        assert_eq!(engine.cached_sessions(), 0);
    }

    #[test]
    fn cluster_and_single_device_counts_agree_through_the_engine() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let report = engine.run_batch(vec![
            Job::new("single", Arc::clone(&g), gpu()),
            Job::new("cluster", g, "cluster:2x2/gtx980/balanced".parse().unwrap()),
        ]);
        let single = report.jobs[0].result.as_ref().unwrap();
        let cluster = report.jobs[1].result.as_ref().unwrap();
        assert_eq!(single.triangles, cluster.triangles);
    }

    #[test]
    fn profiles_attach_per_job() {
        let engine = Engine::new(small_config());
        let g = diamond();
        let report = engine.run_batch(vec![
            Job::new("profiled", Arc::clone(&g), gpu()).profile(true),
            Job::new("plain", g, gpu()),
        ]);
        let profiled = report.jobs[0].result.as_ref().unwrap();
        let spans = &profiled.profile.as_ref().unwrap().spans;
        assert!(spans.iter().any(|s| s.path == "count/count-kernel"));
        assert!(report.jobs[1].result.as_ref().unwrap().profile.is_none());
    }
}
