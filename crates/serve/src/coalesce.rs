//! Cross-request coalescing of surrogate evaluations.
//!
//! The compiled ensemble (`surf_ml::compiled::CompiledEnsemble`) was built for *large row
//! blocks*: its trees-outer, cache-blocked, 16-row-interleaved `predict_batch` amortizes
//! the per-tree node walk over every example in flight. A serve layer that answers each
//! `/predict` cache miss with its own 1–4-row call throws that away. The
//! [`BatchQueue`] restores it across clients: concurrent submissions — `/predict` misses
//! and the per-iteration swarm evaluations of `/mine` — are *gathered* for a bounded window
//! (≤ [`CoalesceConfig::window_micros`], or until [`CoalesceConfig::max_batch_rows`]
//! accumulate), grouped by model registration generation, fused into one
//! `predict_batch` call per group, and the results demultiplexed back to each caller.
//!
//! ## Bit-identity
//!
//! Fusing is invisible in the results: the compiled engine's per-row output is independent
//! of the batch it rides in (PR 5's `compiled_parity` suite pins this), so a coalesced
//! response is **bit-identical** to the solo-request response — asserted again end-to-end
//! by the serve e2e suite. The latency cost is bounded by the gathering window; the
//! throughput win is the whole point.
//!
//! All counters are plain atomics (no lock to poison), so `/stats` reads stay safe even
//! after a batcher panic; and a shut-down (or crashed) queue degrades to direct evaluation
//! rather than failing requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use surf_data::region::Region;
use surf_obs::Histogram;

use crate::registry::ServableModel;

/// Upper bounds (rows per fused batch) of the batch-size histogram buckets; one overflow
/// bucket follows. Powers of two so the histogram reads as "how often did the queue reach
/// each doubling of the compiled engine's block budget".
const HISTOGRAM_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Configuration of the coalescing queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalesceConfig {
    /// Whether coalescing is on. Off, every miss evaluates solo (the PR-5 behaviour).
    pub enabled: bool,
    /// Longest time a submission waits for company, in microseconds. The window starts
    /// when a batcher finds the queue non-empty and ends early once `max_batch_rows`
    /// accumulate — or once every request that could still contribute has already
    /// submitted (see [`BatchQueue::flight`]), so sparse traffic never idles it out.
    pub window_micros: u64,
    /// Row budget that closes the gathering window early. Defaults to four of the
    /// compiled engine's 1024-row cache blocks.
    pub max_batch_rows: usize,
    /// Gatherer threads. One is enough until fused ensemble calls themselves saturate a
    /// core; more trade coalescing opportunity for parallel fusing.
    pub batchers: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            enabled: true,
            window_micros: 1_000,
            max_batch_rows: 4_096,
            batchers: 1,
        }
    }
}

/// One bucket of the fused-batch-size histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound on rows per fused batch (`u64::MAX` = overflow bucket).
    pub le_rows: u64,
    /// Fused batches whose row count fell in this bucket.
    pub batches: u64,
}

/// Why gathering rounds ended, one counter per exit of [`BatchQueue::gather`]'s wait
/// loop. The split tells an operator *which* knob is binding: `window`-dominated rounds
/// under load suggest raising `max_batch_rows` does nothing, `rows`-dominated rounds mean
/// the window never expires, `waiters`-dominated rounds mean the handler pool (not the
/// window) is what bounds batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CloseCauses {
    /// Rounds closed because the gathering window expired.
    pub window: u64,
    /// Rounds closed early at the `max_batch_rows` budget.
    pub rows: u64,
    /// Rounds closed early because every possible submitter was already waiting.
    pub waiters: u64,
    /// Rounds closed by shutdown (final drain).
    pub shutdown: u64,
}

/// A `/stats` snapshot of the queue's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalesceStats {
    /// Whether a coalescing queue is running.
    pub enabled: bool,
    /// Rows currently gathered but not yet fused (gauge).
    pub pending_rows: u64,
    /// Fused `predict_batch` calls issued.
    pub fused_batches: u64,
    /// Submissions served through fused calls.
    pub fused_jobs: u64,
    /// Total rows evaluated through fused calls.
    pub fused_rows: u64,
    /// Largest single fused batch seen, in rows.
    pub max_batch_rows: u64,
    /// Distribution of fused-batch sizes.
    pub batch_rows_histogram: Vec<HistogramBucket>,
    /// Why gathering rounds ended, by cause.
    pub close_causes: CloseCauses,
}

impl CoalesceStats {
    /// The snapshot served when no queue is running.
    pub fn disabled() -> Self {
        CoalesceStats {
            enabled: false,
            pending_rows: 0,
            fused_batches: 0,
            fused_jobs: 0,
            fused_rows: 0,
            max_batch_rows: 0,
            batch_rows_histogram: Vec::new(),
            close_causes: CloseCauses::default(),
        }
    }
}

/// Registry-backed duration histograms the queue feeds when the serve layer enables
/// metrics; absent (the [`OnceLock`] stays empty), the queue takes **zero** extra clock
/// reads per submission.
pub struct BatchInstruments {
    /// Time each submission spent parked in the queue before its fused call started.
    pub batch_wait: Arc<Histogram>,
    /// Wall time of each fused `predict_batch` call.
    pub kernel: Arc<Histogram>,
}

/// One caller's evaluation request, parked until a batcher fuses it.
struct Submission {
    model: Arc<ServableModel>,
    regions: Vec<Region>,
    reply: mpsc::Sender<Vec<f64>>,
    // Set only when instruments are installed, so the uninstrumented queue never reads
    // the clock on the submit path.
    enqueued_at: Option<Instant>,
}

struct QueueState {
    jobs: VecDeque<Submission>,
    pending_rows: usize,
    shutdown: bool,
}

/// The coalescing queue: callers [`BatchQueue::evaluate`], batcher threads gather/fuse.
/// See the module docs for semantics.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    arrived: Condvar,
    window: Duration,
    max_batch_rows: usize,
    max_waiters: usize,
    // Heavy requests currently between `flight()` and guard drop — the live bound on how
    // many submissions can still join a gathering round.
    in_flight: AtomicU64,
    // Counters are atomics, not lock-guarded state: `/stats` must stay readable even if a
    // batcher thread panicked mid-fuse (the same poison-safety posture as the cache shards).
    pending_rows: AtomicU64,
    fused_batches: AtomicU64,
    fused_jobs: AtomicU64,
    fused_rows: AtomicU64,
    max_rows_seen: AtomicU64,
    histogram: [AtomicU64; HISTOGRAM_BOUNDS.len() + 1],
    close_window: AtomicU64,
    close_rows: AtomicU64,
    close_waiters: AtomicU64,
    close_shutdown: AtomicU64,
    instruments: OnceLock<BatchInstruments>,
}

impl BatchQueue {
    /// Builds the queue and spawns its batcher threads. The caller owns the join handles;
    /// call [`BatchQueue::shutdown`] before joining them.
    ///
    /// `max_waiters` is the number of threads that can possibly be blocked in
    /// [`BatchQueue::evaluate`] at once — the serve layer's handler pool size. Because
    /// submitters block until their reply, once that many jobs have gathered no further
    /// company can arrive, so the window closes early instead of stalling every in-flight
    /// request for its full duration (decisive on small worker pools: with one handler, a
    /// full-window wait per request would cap throughput at `1 / window`). Zero means
    /// "unknown", which disables the early close.
    pub fn start(
        config: &CoalesceConfig,
        max_waiters: usize,
    ) -> (Arc<BatchQueue>, Vec<std::thread::JoinHandle<()>>) {
        let queue = Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                pending_rows: 0,
                shutdown: false,
            }),
            arrived: Condvar::new(),
            window: Duration::from_micros(config.window_micros),
            max_batch_rows: config.max_batch_rows.max(1),
            max_waiters: if max_waiters == 0 {
                usize::MAX
            } else {
                max_waiters
            },
            in_flight: AtomicU64::new(0),
            pending_rows: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            fused_jobs: AtomicU64::new(0),
            fused_rows: AtomicU64::new(0),
            max_rows_seen: AtomicU64::new(0),
            histogram: Default::default(),
            close_window: AtomicU64::new(0),
            close_rows: AtomicU64::new(0),
            close_waiters: AtomicU64::new(0),
            close_shutdown: AtomicU64::new(0),
            instruments: OnceLock::new(),
        });
        let handles = (0..config.batchers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || batcher_loop(&queue))
            })
            .collect();
        (queue, handles)
    }

    /// Locks the state, recovering a poisoned mutex: the queue holds plain owned jobs and
    /// counters a panicking sibling cannot leave torn, and one batcher's panic must not
    /// turn every later request into a 500.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluates `regions` against the model's surrogate through the queue, blocking until
    /// the fused result arrives. Falls back to a direct solo evaluation — same values, no
    /// coalescing — when the queue is shut down or its batcher died, so a request can
    /// always be answered.
    pub fn evaluate(&self, model: &Arc<ServableModel>, regions: &[Region]) -> Vec<f64> {
        if regions.is_empty() {
            return Vec::new();
        }
        let (reply, result) = mpsc::channel();
        let enqueued = {
            let mut state = self.lock();
            if state.shutdown {
                false
            } else {
                state.jobs.push_back(Submission {
                    model: Arc::clone(model),
                    regions: regions.to_vec(),
                    reply,
                    enqueued_at: self.instruments.get().map(|_| Instant::now()),
                });
                state.pending_rows += regions.len();
                self.pending_rows
                    .store(state.pending_rows as u64, Ordering::Relaxed);
                true
            }
        };
        if enqueued {
            self.arrived.notify_one();
            if let Ok(values) = result.recv() {
                return values;
            }
        }
        surf_core::Surrogate::predict_batch(model.engine.surrogate(), regions)
    }

    /// Registers one in-flight heavy request for the lifetime of the returned guard.
    ///
    /// Transports take a guard around each `/predict` / `/mine` dispatch. The gauge is the
    /// *live* refinement of the static `max_waiters` bound: a gathering round can stop
    /// waiting as soon as every currently-registered request has a submission queued —
    /// with one request in flight its evaluation fuses immediately instead of idling out
    /// the window, while a registered request that has not yet submitted keeps the window
    /// open so its rows can join the round. Purely a scheduling hint: unregistered callers
    /// are still served correctly under the static bound.
    pub fn flight(&self) -> FlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        FlightGuard { queue: self }
    }

    /// Installs the registry-backed wait/kernel histograms; first call wins. Until (and
    /// unless) this is called the queue records no durations and reads no clocks beyond
    /// its gathering deadline — the serve layer only calls it when metrics are enabled.
    pub fn set_instruments(&self, instruments: BatchInstruments) {
        let _ = self.instruments.set(instruments);
    }

    /// Signals the batchers to drain what is queued and exit; concurrent and subsequent
    /// [`BatchQueue::evaluate`] calls fall back to direct evaluation.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.arrived.notify_all();
    }

    /// The `/stats` snapshot.
    pub fn stats(&self) -> CoalesceStats {
        let mut buckets: Vec<HistogramBucket> = HISTOGRAM_BOUNDS
            .iter()
            .zip(self.histogram.iter())
            .map(|(&le_rows, count)| HistogramBucket {
                le_rows,
                batches: count.load(Ordering::Relaxed),
            })
            .collect();
        buckets.push(HistogramBucket {
            le_rows: u64::MAX,
            batches: self.histogram[HISTOGRAM_BOUNDS.len()].load(Ordering::Relaxed),
        });
        CoalesceStats {
            enabled: true,
            pending_rows: self.pending_rows.load(Ordering::Relaxed),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            fused_jobs: self.fused_jobs.load(Ordering::Relaxed),
            fused_rows: self.fused_rows.load(Ordering::Relaxed),
            max_batch_rows: self.max_rows_seen.load(Ordering::Relaxed),
            batch_rows_histogram: buckets,
            close_causes: CloseCauses {
                window: self.close_window.load(Ordering::Relaxed),
                rows: self.close_rows.load(Ordering::Relaxed),
                waiters: self.close_waiters.load(Ordering::Relaxed),
                shutdown: self.close_shutdown.load(Ordering::Relaxed),
            },
        }
    }

    /// Waits for at least one submission, gathers company for up to the window (ending
    /// early at the row budget, or once every possible submitter is already waiting), and
    /// drains the queue. `None` = shutdown with nothing left to serve.
    fn gather(&self) -> Option<Vec<Submission>> {
        let mut state = self.lock();
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.shutdown {
                return None;
            }
            state = self
                .arrived
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let deadline = Instant::now() + self.window;
        // Each exit of this loop is one gathering round closing; the matching cause
        // counter feeds `close_causes` in `/stats` and the labelled
        // `surf_serve_coalesce_batch_close_total` family in `/metrics`.
        let cause = loop {
            if state.shutdown {
                break &self.close_shutdown;
            }
            if state.pending_rows >= self.max_batch_rows {
                break &self.close_rows;
            }
            // No further company can arrive once every thread that could submit already
            // has a job queued: the static pool bound, refined by the live request gauge.
            let in_flight = self.in_flight.load(Ordering::Relaxed) as usize;
            let bound = if in_flight == 0 {
                self.max_waiters
            } else {
                in_flight.min(self.max_waiters)
            };
            if state.jobs.len() >= bound {
                break &self.close_waiters;
            }
            let now = Instant::now();
            if now >= deadline {
                break &self.close_window;
            }
            let (guard, wait) = self
                .arrived
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if wait.timed_out() {
                break &self.close_window;
            }
        };
        cause.fetch_add(1, Ordering::Relaxed);
        let jobs: Vec<Submission> = state.jobs.drain(..).collect();
        state.pending_rows = 0;
        self.pending_rows.store(0, Ordering::Relaxed);
        Some(jobs)
    }

    fn record_batch(&self, jobs: u64, rows: u64) {
        self.fused_batches.fetch_add(1, Ordering::Relaxed);
        self.fused_jobs.fetch_add(jobs, Ordering::Relaxed);
        self.fused_rows.fetch_add(rows, Ordering::Relaxed);
        self.max_rows_seen.fetch_max(rows, Ordering::Relaxed);
        let bucket = HISTOGRAM_BOUNDS
            .iter()
            .position(|&bound| rows <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// RAII registration of one in-flight heavy request; see [`BatchQueue::flight`].
pub struct FlightGuard<'a> {
    queue: &'a BatchQueue,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.queue.in_flight.fetch_sub(1, Ordering::Relaxed);
        // A departing request may have been the company a gathering round was waiting
        // for; wake the batcher so it re-evaluates its bound instead of idling to the
        // window deadline.
        self.queue.arrived.notify_all();
    }
}

fn batcher_loop(queue: &BatchQueue) {
    // Fused-output buffer reused across every round this gatherer serves: it grows to the
    // high-water batch size once instead of allocating per fused call.
    let mut values: Vec<f64> = Vec::new();
    while let Some(jobs) = queue.gather() {
        fuse_and_reply(queue, jobs, &mut values);
    }
}

/// Groups a gathered round by model registration generation (arrival order preserved
/// within a group), issues one fused `predict_batch_into` per group — writing into the
/// gatherer's reused `values` buffer — and demultiplexes the per-row results back to each
/// submission.
fn fuse_and_reply(queue: &BatchQueue, jobs: Vec<Submission>, values: &mut Vec<f64>) {
    let mut groups: Vec<(u64, Vec<Submission>)> = Vec::new();
    for job in jobs {
        match groups
            .iter_mut()
            .find(|(generation, _)| *generation == job.model.generation)
        {
            Some((_, group)) => group.push(job),
            None => groups.push((job.model.generation, vec![job])),
        }
    }
    for (_, group) in groups {
        let rows: usize = group.iter().map(|job| job.regions.len()).sum();
        queue.record_batch(group.len() as u64, rows as u64);
        let instruments = queue.instruments.get();
        if let Some(instruments) = instruments {
            let now = Instant::now();
            for job in &group {
                if let Some(enqueued) = job.enqueued_at {
                    instruments
                        .batch_wait
                        .observe_duration(now.saturating_duration_since(enqueued));
                }
            }
        }
        let mut fused: Vec<Region> = Vec::with_capacity(rows);
        for job in &group {
            fused.extend(job.regions.iter().cloned());
        }
        // One fused pass of this generation's compiled engine: the same blocked kernel
        // any solo call runs, just over more rows — per-row results are bit-identical to
        // solo evaluation regardless of what the batch happens to contain. Writing into
        // the gatherer-owned buffer keeps the output exactly `rows` long, so replies can
        // never misalign, and the per-call output allocation disappears.
        let surrogate = group[0].model.engine.surrogate();
        values.clear();
        values.resize(rows, 0.0);
        let kernel_started = instruments.map(|_| Instant::now());
        surf_core::Surrogate::predict_batch_into(surrogate, &fused, values);
        if let (Some(instruments), Some(started)) = (instruments, kernel_started) {
            instruments.kernel.observe_duration(started.elapsed());
        }
        let mut offset = 0;
        for job in group {
            let slice = values[offset..offset + job.regions.len()].to_vec();
            offset += job.regions.len();
            // A caller that gave up (its connection died) is fine to ignore.
            let _ = job.reply.send(slice);
        }
    }
}

/// An observationally identical transport wrapper around a model's own surrogate that
/// routes batch evaluations through the coalescing queue. Handed to
/// [`surf_core::Surf::mine_with_surrogate`] so each GSO iteration's whole-swarm
/// `fitness_batch` fuses with concurrent traffic; scalar `predict` calls (the mining
/// epilogue scores a handful of representatives) go straight through.
pub struct QueuedSurrogate<'a> {
    model: &'a Arc<ServableModel>,
    queue: &'a BatchQueue,
}

impl<'a> QueuedSurrogate<'a> {
    /// Wraps `model`'s surrogate with queue-routed batch evaluation.
    pub fn new(model: &'a Arc<ServableModel>, queue: &'a BatchQueue) -> Self {
        QueuedSurrogate { model, queue }
    }
}

impl surf_core::Surrogate for QueuedSurrogate<'_> {
    fn predict(&self, region: &Region) -> f64 {
        self.model.engine.surrogate().predict(region)
    }

    fn predict_batch(&self, regions: &[Region]) -> Vec<f64> {
        self.queue.evaluate(self.model, regions)
    }

    fn dimensions(&self) -> usize {
        surf_core::Surrogate::dimensions(self.model.engine.surrogate())
    }

    fn touches_data(&self) -> bool {
        surf_core::Surrogate::touches_data(self.model.engine.surrogate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;
    use crate::registry::ModelRegistry;
    use surf_core::objective::Threshold;
    use surf_core::{Surf, SurfConfig};
    use surf_data::statistic::Statistic;
    use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

    fn register(registry: &ModelRegistry, name: &str, seed: u64) -> Arc<ServableModel> {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1)
                .with_points(1_200)
                .with_seed(seed),
        );
        let config = SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(150.0))
            .training_queries(200)
            .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(8))
            .kde_sample(64)
            .seed(seed)
            .build();
        let engine = Surf::fit(&synthetic.dataset, &config).unwrap();
        registry
            .register(ModelArtifact::from_engine(name, &engine))
            .unwrap();
        registry.get(name).unwrap()
    }

    fn model(seed: u64) -> Arc<ServableModel> {
        register(&ModelRegistry::new(), "m", seed)
    }

    fn regions(seed: u64, count: usize) -> Vec<Region> {
        (0..count)
            .map(|i| {
                let t = (seed as f64 + i as f64) * 0.37;
                Region::new(
                    vec![
                        0.2 + 0.6 * (t.sin() * 0.5 + 0.5),
                        0.3 + 0.4 * (t.cos() * 0.5 + 0.5),
                    ],
                    vec![0.05 + 0.1 * ((i % 4) as f64) / 4.0, 0.08],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn concurrent_submissions_fuse_and_stay_bit_identical() {
        let model = model(7);
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 50_000,
                max_batch_rows: 4096,
                batchers: 1,
            },
            0,
        );
        let submitters: Vec<_> = (0..4)
            .map(|k| {
                let queue = Arc::clone(&queue);
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    let mine = regions(k, 3);
                    (mine.clone(), queue.evaluate(&model, &mine))
                })
            })
            .collect();
        for submitter in submitters {
            let (mine, fused) = submitter.join().unwrap();
            let solo = surf_core::Surrogate::predict_batch(model.engine.surrogate(), &mine);
            assert_eq!(fused, solo, "coalesced values must be bit-identical");
        }
        let stats = queue.stats();
        assert!(stats.enabled);
        assert_eq!(stats.fused_jobs, 4);
        assert_eq!(stats.fused_rows, 12);
        assert!(stats.fused_batches >= 1 && stats.fused_batches <= 4);
        assert!(stats.max_batch_rows >= 3);
        let histogram_total: u64 = stats.batch_rows_histogram.iter().map(|b| b.batches).sum();
        assert_eq!(histogram_total, stats.fused_batches);
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn window_closes_early_once_every_possible_submitter_waits() {
        let model = model(5);
        // A window so long that waiting it out per request would blow the test timeout:
        // with `max_waiters: 1`, the lone submitter's job must fuse immediately.
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 10_000_000,
                max_batch_rows: 4096,
                batchers: 1,
            },
            1,
        );
        let probe = regions(2, 3);
        let started = Instant::now();
        for _ in 0..5 {
            let values = queue.evaluate(&model, &probe);
            assert_eq!(
                values,
                surf_core::Surrogate::predict_batch(model.engine.surrogate(), &probe)
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a saturated waiter set must not stall for the window"
        );
        let stats = queue.stats();
        assert_eq!(stats.fused_jobs, 5);
        assert!(
            stats.close_causes.waiters >= 1,
            "saturated-waiter rounds must attribute to the waiters cause: {:?}",
            stats.close_causes
        );
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn flight_gauge_closes_the_window_when_the_lone_request_submits() {
        let model = model(6);
        // Unlimited static bound: without the flight gauge, a lone submission would idle
        // out the (deliberately enormous) window.
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 10_000_000,
                max_batch_rows: 4096,
                batchers: 1,
            },
            0,
        );
        let probe = regions(8, 2);
        let started = Instant::now();
        let values = {
            let _flight = queue.flight();
            queue.evaluate(&model, &probe)
        };
        assert_eq!(
            values,
            surf_core::Surrogate::predict_batch(model.engine.surrogate(), &probe)
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the only registered request was waiting; the round must close"
        );
        assert_eq!(queue.stats().fused_jobs, 1);
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn close_causes_attribute_rows_and_window_breaks() {
        let model = model(13);
        let probe = regions(6, 2);
        // A one-row budget closes every round by `rows` before the (enormous) window can.
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 10_000_000,
                max_batch_rows: 1,
                batchers: 1,
            },
            0,
        );
        queue.evaluate(&model, &probe);
        let stats = queue.stats();
        assert!(
            stats.close_causes.rows >= 1,
            "budget-bound round must attribute to rows: {:?}",
            stats.close_causes
        );
        assert_eq!(stats.close_causes.window, 0);
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }

        // A tiny window with an unlimited waiter bound idles out: `window` cause.
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 200,
                max_batch_rows: 4_096,
                batchers: 1,
            },
            0,
        );
        queue.evaluate(&model, &probe);
        assert!(
            queue.stats().close_causes.window >= 1,
            "idled-out round must attribute to window: {:?}",
            queue.stats().close_causes
        );
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn instrumented_queue_records_wait_and_kernel_histograms() {
        let model = model(17);
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 200,
                max_batch_rows: 4_096,
                batchers: 1,
            },
            0,
        );
        let registry = surf_obs::MetricsRegistry::new();
        let bounds = surf_obs::metrics::default_duration_bounds();
        queue.set_instruments(BatchInstruments {
            batch_wait: registry.histogram("test_batch_wait_nanos", "wait", &bounds),
            kernel: registry.histogram("test_kernel_nanos", "kernel", &bounds),
        });
        let probe = regions(9, 3);
        queue.evaluate(&model, &probe);
        let wait = registry
            .histogram("test_batch_wait_nanos", "wait", &bounds)
            .snapshot();
        let kernel = registry
            .histogram("test_kernel_nanos", "kernel", &bounds)
            .snapshot();
        assert_eq!(wait.count, 1, "one submission, one wait observation");
        assert_eq!(kernel.count, 1, "one fused call, one kernel observation");
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn shutdown_queue_falls_back_to_direct_evaluation() {
        let model = model(9);
        let (queue, handles) = BatchQueue::start(&CoalesceConfig::default(), 0);
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
        let mine = regions(1, 5);
        let values = queue.evaluate(&model, &mine);
        let solo = surf_core::Surrogate::predict_batch(model.engine.surrogate(), &mine);
        assert_eq!(values, solo);
        assert_eq!(queue.stats().fused_jobs, 0, "fallback bypasses the batcher");
        assert!(queue.evaluate(&model, &[]).is_empty());
    }

    #[test]
    fn mixed_generations_fuse_per_model() {
        let registry = ModelRegistry::new();
        let a = register(&registry, "a", 11);
        let b = register(&registry, "b", 12);
        assert_ne!(a.generation, b.generation);
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 50_000,
                max_batch_rows: 4096,
                batchers: 1,
            },
            0,
        );
        let ra = regions(3, 2);
        let rb = regions(4, 2);
        let ta = {
            let (queue, a, ra) = (Arc::clone(&queue), Arc::clone(&a), ra.clone());
            std::thread::spawn(move || queue.evaluate(&a, &ra))
        };
        let tb = {
            let (queue, b, rb) = (Arc::clone(&queue), Arc::clone(&b), rb.clone());
            std::thread::spawn(move || queue.evaluate(&b, &rb))
        };
        assert_eq!(
            ta.join().unwrap(),
            surf_core::Surrogate::predict_batch(a.engine.surrogate(), &ra)
        );
        assert_eq!(
            tb.join().unwrap(),
            surf_core::Surrogate::predict_batch(b.engine.surrogate(), &rb)
        );
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn queued_surrogate_is_observationally_identical() {
        let model = model(21);
        let (queue, handles) = BatchQueue::start(
            &CoalesceConfig {
                enabled: true,
                window_micros: 100,
                max_batch_rows: 4096,
                batchers: 1,
            },
            0,
        );
        let wrapped = QueuedSurrogate::new(&model, &queue);
        let own = model.engine.surrogate();
        let probe = regions(5, 6);
        assert_eq!(
            surf_core::Surrogate::predict_batch(&wrapped, &probe),
            surf_core::Surrogate::predict_batch(own, &probe)
        );
        assert_eq!(
            surf_core::Surrogate::predict(&wrapped, &probe[0]),
            surf_core::Surrogate::predict(own, &probe[0])
        );
        assert_eq!(
            surf_core::Surrogate::dimensions(&wrapped),
            surf_core::Surrogate::dimensions(own)
        );
        assert!(!surf_core::Surrogate::touches_data(&wrapped));
        queue.shutdown();
        for handle in handles {
            handle.join().unwrap();
        }
    }
}
