//! The serving front end: transport selection, shared state and lifecycle.
//!
//! Two transports share one dispatch layer ([`crate::routes`]):
//!
//! * [`TransportMode::EventLoop`] (the default) — a single reactor thread multiplexes
//!   every connection over an epoll [`surf_reactor::Poller`]: non-blocking accept, read
//!   and write, HTTP/1.1 keep-alive and pipelining, idle timeouts, and admission control.
//!   Heavy routes (`POST /predict`, `POST /mine`) run on a handler pool fed through a
//!   bounded [`WorkQueue`]; see [`crate::event_loop`].
//! * [`TransportMode::Blocking`] — the original fixed pool: each worker owns one
//!   connection end to end (read, dispatch, respond, close). Kept as the baseline the
//!   serve benchmark compares against and as the conservative fallback.
//!
//! Both pools size with the `workers` knob where `0` means "automatic" (available
//! parallelism, capped at 8), resolved through [`surf_ml::parallel::resolve_threads`] —
//! the same semantics as `SurfConfig::threads`.
//!
//! When [`ServerConfig::coalesce`] is enabled a [`BatchQueue`] sits between the handlers
//! and the compiled ensembles: concurrent `/predict` cache misses and `/mine` swarm
//! iterations are gathered for a bounded window and fused into shared `predict_batch`
//! calls (see [`crate::coalesce`] — results stay bit-identical to solo evaluation).
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] flips an atomic flag, wakes the
//! reactor, closes the queues and joins every thread — requests in flight are drained,
//! not abandoned mid-write.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use surf_data::region::Region;
use surf_obs::ObsConfig;

use crate::cache::{CacheConfig, PredictionCache};
use crate::coalesce::{BatchInstruments, BatchQueue, CoalesceConfig, CoalesceStats};
use crate::error::ServeError;
use crate::event_loop::{spawn_event_transport, EventLoopSettings, HandlerJob};
use crate::http::{read_request, write_response, CONTENT_TYPE_JSON};
use crate::obs::{RouteStats, ServeObs};
use crate::queue::WorkQueue;
use crate::registry::{ModelRegistry, ServableModel};
use crate::routes::handle_request;

/// Which connection-handling strategy the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransportMode {
    /// Fixed worker pool, one blocking connection per worker, close after each response.
    Blocking,
    /// Readiness-based reactor: multiplexed non-blocking connections with keep-alive,
    /// pipelining and admission control (the default).
    #[default]
    EventLoop,
}

impl TransportMode {
    /// The wire/CLI name of the mode.
    pub fn label(self) -> &'static str {
        match self {
            TransportMode::Blocking => "blocking",
            TransportMode::EventLoop => "event_loop",
        }
    }
}

/// Configuration of a serving process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`0` = automatic: available parallelism capped at 8, exactly like
    /// `SurfConfig::threads`). Handler threads under the event loop, connection threads
    /// under the blocking transport.
    pub workers: usize,
    /// Largest accepted request body; larger requests are answered with `413`.
    pub max_body_bytes: usize,
    /// Prediction-cache sizing.
    pub cache: CacheConfig,
    /// Connection-handling strategy.
    pub transport: TransportMode,
    /// Close keep-alive connections idle for longer than this (event loop only). Also the
    /// ceiling a slowloris client can dribble header bytes without completing a request.
    pub idle_timeout_ms: u64,
    /// Most concurrent connections the event loop holds; accepts beyond it are answered
    /// `503` and dropped.
    pub max_connections: usize,
    /// Most heavy requests (`/predict`, `/mine`) queued for the handler pool; requests
    /// arriving past it are answered `503` with `Retry-After` (event loop only).
    pub max_pending_requests: usize,
    /// Cross-request coalescing of surrogate evaluations.
    pub coalesce: CoalesceConfig,
    /// Observability: metrics registry and flight-recorder tracing (see [`crate::obs`]).
    pub obs: ObsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            max_body_bytes: 1024 * 1024,
            cache: CacheConfig::default(),
            transport: TransportMode::default(),
            idle_timeout_ms: 5_000,
            max_connections: 1_024,
            max_pending_requests: 256,
            coalesce: CoalesceConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

/// Per-endpoint counters as served by `/stats` — derived from the
/// [`crate::obs::RouteStats`] instruments, which also feed `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Total handling latency in microseconds.
    pub total_micros: u64,
    /// Mean handling latency in microseconds.
    pub mean_micros: u64,
}

/// Shared state of a serving process: registry, cache, queues and instruments.
pub struct ServeContext {
    /// The models being served.
    pub registry: Arc<ModelRegistry>,
    /// The shared prediction cache.
    pub cache: PredictionCache,
    /// Every instrument this server records — the single source `/stats`, `/metrics` and
    /// `/trace` all read from.
    pub obs: ServeObs,
    /// Resolved worker-pool size.
    pub workers: usize,
    /// The transport this server runs.
    pub transport: TransportMode,
    /// When the server started.
    pub started: Instant,
    /// The coalescing queue, when enabled.
    pub(crate) batch: Option<Arc<BatchQueue>>,
    /// The handler-pool job queue (event loop only) — exposed for `/stats` depth reads
    /// and admission checks.
    pub(crate) jobs: Option<Arc<WorkQueue<HandlerJob>>>,
}

impl ServeContext {
    /// Registers (or hot-swaps) a model and drops any predictions cached under its name.
    /// Correctness does not depend on the invalidation — cache keys carry the registration
    /// generation, so a new registration can never hit (or be polluted by) a predecessor's
    /// entries — but dropping them up front reclaims the retired generation's memory.
    ///
    /// # Errors
    ///
    /// Any [`ModelRegistry::register`] error: a metadata/state mismatch, an engine-rebuild
    /// failure, or a poisoned registry lock.
    pub fn register(
        &self,
        artifact: crate::artifact::ModelArtifact,
    ) -> Result<Option<Arc<ServableModel>>, ServeError> {
        let name = artifact.name.clone();
        let previous = self.registry.register(artifact)?;
        if previous.is_some() {
            self.cache.invalidate_model(&name);
        }
        Ok(previous)
    }

    /// The endpoint counter bucket for a request path.
    pub(crate) fn stats_for(&self, path: &str) -> &RouteStats {
        match path {
            "/predict" => &self.obs.predict,
            "/mine" => &self.obs.mine,
            _ => &self.obs.other,
        }
    }

    /// Evaluates regions against a model's surrogate — through the coalescing queue when
    /// one is running (fusing with concurrent traffic), directly otherwise. Either way the
    /// values are bit-identical.
    pub(crate) fn evaluate_regions(
        &self,
        model: &Arc<ServableModel>,
        regions: &[Region],
    ) -> Vec<f64> {
        match &self.batch {
            Some(queue) => {
                // The batcher thread records the precise batch-wait and kernel time; the
                // submitter's trace gets the whole round trip as one span.
                let span = surf_obs::trace::span_timer();
                let values = queue.evaluate(model, regions);
                surf_obs::trace::record_span("coalesce_evaluate", span);
                values
            }
            None => {
                let surrogate = model.engine.surrogate();
                let timer = self.obs.timer();
                let span = surf_obs::trace::span_timer();
                let values = surf_core::Surrogate::predict_batch(surrogate, regions);
                self.obs.observe(&self.obs.kernel, timer);
                surf_obs::trace::record_span("kernel", span);
                values
            }
        }
    }

    /// Heavy requests currently queued for the handler pool (0 under the blocking
    /// transport, which has no such queue).
    pub fn queue_depth(&self) -> u64 {
        self.jobs.as_ref().map_or(0, |jobs| jobs.len())
    }

    /// The coalescing queue's counters ([`CoalesceStats::disabled`] when off).
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.batch
            .as_ref()
            .map_or_else(CoalesceStats::disabled, |batch| batch.stats())
    }
}

/// A running server: join it down with [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    context: Arc<ServeContext>,
    waker: Option<Arc<surf_reactor::Waker>>,
    batch: Option<Arc<BatchQueue>>,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (e.g. to inspect cache counters in-process).
    pub fn context(&self) -> &Arc<ServeContext> {
        &self.context
    }

    /// Stops accepting, drains in-flight work and joins every thread (reactor or acceptor,
    /// handlers, batchers).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            // Interrupt the reactor's poll so it observes the flag now, not a tick later.
            let _ = waker.wake();
        }
        if let Some(batch) = &self.batch {
            // In-flight evaluations fall back to direct (bit-identical) evaluation.
            batch.shutdown();
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds the configured address and spawns the configured transport (plus the coalescing
/// batchers when enabled).
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound, the listener cannot be configured
/// (non-blocking mode, local-address resolution), or the event loop's poller cannot be
/// created.
pub fn serve(
    registry: Arc<ModelRegistry>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = surf_ml::parallel::resolve_threads(config.workers);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    let obs = ServeObs::new(&config.obs);
    let batch = if config.coalesce.enabled {
        // The handler pool bounds concurrent submitters, so the gathering window can
        // close as soon as `workers` jobs are in — see `BatchQueue::start`.
        let (queue, batchers) = BatchQueue::start(&config.coalesce, workers);
        if config.obs.metrics {
            // The batcher thread is where batch-window wait and fused-kernel time are
            // actually known; hand it the registry's histograms.
            queue.set_instruments(BatchInstruments {
                batch_wait: Arc::clone(&obs.batch_wait),
                kernel: obs.kernel.clone(),
            });
        }
        threads.extend(batchers);
        Some(queue)
    } else {
        None
    };
    let jobs = match config.transport {
        TransportMode::EventLoop => Some(Arc::new(WorkQueue::new())),
        TransportMode::Blocking => None,
    };

    let context = Arc::new(ServeContext {
        registry,
        cache: PredictionCache::new(&config.cache),
        obs,
        workers,
        transport: config.transport,
        started: Instant::now(),
        batch: batch.clone(),
        jobs: jobs.clone(),
    });

    let mut waker = None;
    match (config.transport, jobs) {
        (TransportMode::EventLoop, Some(jobs)) => {
            let settings = EventLoopSettings {
                workers,
                max_body_bytes: config.max_body_bytes,
                idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
                max_connections: config.max_connections.max(1),
                max_pending_requests: config.max_pending_requests as u64,
            };
            match spawn_event_transport(
                listener,
                Arc::clone(&context),
                Arc::clone(&shutdown),
                jobs,
                settings,
            ) {
                Ok((event_waker, transport_threads)) => {
                    waker = Some(event_waker);
                    threads.extend(transport_threads);
                }
                Err(e) => {
                    // Don't leak the already-running batchers on a failed poller setup.
                    if let Some(batch) = &batch {
                        batch.shutdown();
                    }
                    for thread in threads {
                        let _ = thread.join();
                    }
                    return Err(e);
                }
            }
        }
        _ => spawn_blocking_transport(
            listener,
            &context,
            &shutdown,
            workers,
            config.max_body_bytes,
            &mut threads,
        ),
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
        context,
        waker,
        batch,
    })
}

/// The baseline transport: an acceptor feeding blocking workers through a [`WorkQueue`],
/// one connection per worker end to end.
fn spawn_blocking_transport(
    listener: TcpListener,
    context: &Arc<ServeContext>,
    shutdown: &Arc<AtomicBool>,
    workers: usize,
    max_body_bytes: usize,
    threads: &mut Vec<std::thread::JoinHandle<()>>,
) {
    let queue: Arc<WorkQueue<(TcpStream, Instant)>> = Arc::new(WorkQueue::new());
    for _ in 0..workers {
        let queue = Arc::clone(&queue);
        let context = Arc::clone(context);
        threads.push(std::thread::spawn(move || {
            while let Some((stream, accepted)) = queue.pop() {
                handle_connection(stream, accepted, &context, max_body_bytes);
            }
        }));
    }
    let shutdown = Arc::clone(shutdown);
    threads.push(std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    queue.push((stream, Instant::now()));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Closing the queue drains pending connections and releases the workers.
        queue.close();
    }));
}

/// Serves one connection: read, dispatch, respond, close. Parse failures still produce a
/// structured JSON error response rather than a dropped connection. Records the same
/// breakdown histograms (and span names) as the event transport: `queue_wait` is the time
/// the accepted socket sat in the [`WorkQueue`], `recv_parse` covers `read_request`, and
/// `write_flush` the blocking response write.
fn handle_connection(
    mut stream: TcpStream,
    accepted: Instant,
    context: &ServeContext,
    max_body: usize,
) {
    let obs = &context.obs;
    obs.open_connections.inc();
    obs.observe_since(&obs.queue_wait, accepted);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let started = Instant::now();
    match read_request(&mut stream, max_body) {
        Ok(request) => {
            obs.observe_since(&obs.recv_parse, started);
            let parse_done = Instant::now();
            let mut trace = obs.begin_trace(&format!("{} {}", request.method, request.path));
            if let Some(trace) = &mut trace {
                // Both happened before the trace existed; record them at offset zero.
                trace.record_measured(
                    "queue_wait",
                    0,
                    started.saturating_duration_since(accepted).as_nanos() as u64,
                );
                trace.record_measured(
                    "recv_parse",
                    0,
                    parse_done.saturating_duration_since(started).as_nanos() as u64,
                );
            }
            if let Some(trace) = trace.take() {
                let _ = surf_obs::trace::install(trace);
            }
            // Heavy dispatches register with the coalescing queue (when one is running) so
            // gathering rounds know how many requests can still contribute rows.
            let heavy =
                request.method == "POST" && matches!(request.path.as_str(), "/predict" | "/mine");
            let _flight = heavy
                .then(|| context.batch.as_ref().map(|batch| batch.flight()))
                .flatten();
            let reply = handle_request(context, &request);
            obs.finish_trace(surf_obs::trace::take());
            context
                .stats_for(&request.path)
                .record(reply.status, started.elapsed());
            let flush_timer = obs.timer();
            let _ = write_response(&mut stream, reply.status, &reply.body, reply.content_type);
            obs.observe(&obs.write_flush, flush_timer);
        }
        Err(e) => {
            obs.other.record(e.status(), started.elapsed());
            let _ = write_response(&mut stream, e.status(), &e.to_body(), CONTENT_TYPE_JSON);
        }
    }
    obs.open_connections.dec();
}
