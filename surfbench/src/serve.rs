//! `serve`: an in-process `surf-serve` with `ServerConfig::default()`, serving the d=2
//! `explore` engine, driven open-loop by one client thread over one connection.
//!
//! The timed phase sends `/predict` batches of 16 regions at a fixed rate, each timed from
//! its scheduled send time; half of every batch comes from a hot set the result cache
//! holds, half is fresh. The stream is cut into slices, each served by a fresh deployment;
//! between slices one `/mine` request, from a sweep of the paper's threshold, goes to a
//! separate warm deployment. Every reply is checked bit for bit against the engine
//! in-process.
//!
//! `/mine` does not run beside the `/predict` stream: on a 2-vCPU virtual machine the
//! interference between the two varied several-fold from run to run (see `NOTES.md`), so
//! the mix could not be gated.
//!
//! The server is reached over HTTP only; `/stats` and `/metrics` are read as untyped JSON
//! and exposition text, so a change that drops a counter or a stage reads 0 here rather
//! than breaking the benchmark.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use surf_core::{MiningOutcome, Surf, Surrogate, Threshold};
use surf_data::region::Region;
use surf_obs::expo::{self, Sample};
use surf_serve::http::HttpClient;
use surf_serve::routes::{MineResponse, PredictRequest, PredictResponse, RegionSpec};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig, ServerHandle};

use crate::measure::{mean, median, ms, outcome_checksum, percentile, tail, Checksum};
use crate::task::probe_regions;
use crate::task::{
    permutation, random_regions, sweeps, Cell, Quality, HOT_REGIONS_PER_REQUEST, HOT_SET,
    MINE_PASSES, PREDICT_SLO_MS, REGIONS_PER_REQUEST, SERVE_DIMENSIONS, SERVE_RATE_PER_S, SWEEP,
};
use crate::trace::{
    fit_layer_metrics, insert_accounting, mine_layer_metrics, mining_guide, reproduces, traced_fit,
    traced_mine, MineTrace,
};
use crate::{Options, Report};

/// Share of the measured seconds that the `/predict` stream fills; the `/mine` requests
/// between its slices take most of the rest.
const STREAM_SHARE: f64 = 0.8;
/// Length of the untimed warm-up stream.
const WARMUP_SECONDS: f64 = 4.0;
/// Name the engine is registered under.
const MODEL: &str = "explore-d2";
/// A `/predict` reply slower than this is a timeout (a failure).
const PREDICT_TIMEOUT: Duration = Duration::from_secs(2);
/// Arrivals not sent this long after the timed phase was due to end are unsent failures.
const UNSENT_GRACE: Duration = Duration::from_secs(2);
/// The generator sleeps until this close to a send time, then spins. Waking from a sleep
/// took over 1 ms for one send in ten on a 2-vCPU virtual machine; with a 2-ms margin the
/// 90th percentile of the lateness is under 1 us.
const SPIN: Duration = Duration::from_millis(2);
/// Server stages the traced run reads from `/metrics`: histogram family, then the p50
/// and p99 metric names.
const STAGES: [(&str, &str, &str); 5] = [
    (
        "surf_serve_recv_parse_nanos",
        "serve.recv_parse_p50_us",
        "serve.recv_parse_p99_us",
    ),
    (
        "surf_serve_queue_wait_nanos",
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p99_us",
    ),
    (
        "surf_serve_batch_wait_nanos",
        "serve.batch_wait_p50_us",
        "serve.batch_wait_p99_us",
    ),
    (
        "surf_serve_kernel_nanos",
        "serve.kernel_p50_us",
        "serve.kernel_p99_us",
    ),
    (
        "surf_serve_write_flush_nanos",
        "serve.write_flush_p50_us",
        "serve.write_flush_p99_us",
    ),
];

/// The fixed request list: region batches and their pre-rendered HTTP bytes.
struct Requests {
    hot: Vec<Region>,
    batches: Vec<Vec<Region>>,
    wire: Vec<Vec<u8>>,
}

fn predict_body(regions: &[Region]) -> String {
    serde_json::to_string(&PredictRequest {
        model: MODEL.into(),
        region: None,
        regions: Some(regions.iter().map(RegionSpec::from_region).collect()),
    })
    .unwrap_or_default()
}

fn mine_body(threshold: f64) -> String {
    format!(r#"{{"model":"{MODEL}","threshold":{{"value":{threshold:?},"direction":"above"}}}}"#)
}

impl Requests {
    /// `rate × seconds` batches drawn from the workload seed.
    fn generate(workload_seed: u64, seconds: f64) -> Requests {
        let mut rng = StdRng::seed_from_u64(workload_seed ^ 0x5e4e_0001);
        let hot = random_regions(SERVE_DIMENSIONS, HOT_SET, &mut rng);
        let count = (SERVE_RATE_PER_S * seconds).round() as usize;
        let batches: Vec<Vec<Region>> = (0..count)
            .map(|_| {
                let mut batch: Vec<Region> = (0..HOT_REGIONS_PER_REQUEST)
                    .map(|_| hot[rng.random_range(0..HOT_SET)].clone())
                    .collect();
                let fresh = REGIONS_PER_REQUEST - HOT_REGIONS_PER_REQUEST;
                batch.extend(random_regions(SERVE_DIMENSIONS, fresh, &mut rng));
                batch
            })
            .collect();
        let wire = batches
            .iter()
            .map(|batch| {
                let body = predict_body(batch);
                format!(
                    "POST /predict HTTP/1.1\r\nHost: surfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        Requests { hot, batches, wire }
    }
}

/// A fitted engine behind a running server whose result cache holds the hot set.
struct Deployment {
    cell: Cell,
    engine: Surf,
    server: ServerHandle,
    addr: String,
}

fn deploy(workload_seed: u64, hot: &[Region]) -> Result<Deployment, String> {
    let cell = Cell::explore(SERVE_DIMENSIONS, workload_seed);
    let engine = cell
        .fit_engine(workload_seed)
        .map_err(|e| format!("serve setup: Surf::fit failed: {e}"))?;
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(ModelArtifact::from_engine(MODEL, &engine))
        .map_err(|e| format!("serve setup: registering the model failed: {e}"))?;
    let server = serve(registry, &ServerConfig::default())
        .map_err(|e| format!("serve setup: the server did not start: {e}"))?;
    let addr = server.addr().to_string();
    let warmed = HttpClient::connect(&addr)
        .and_then(|mut client| client.request("POST", "/predict", Some(&predict_body(hot))));
    match warmed {
        Ok(reply) if reply.status == 200 => Ok(Deployment {
            cell,
            engine,
            server,
            addr,
        }),
        Ok(reply) => Err(format!(
            "serve setup: warming the cache got {}",
            reply.status
        )),
        Err(e) => Err(format!("serve setup: warming the cache failed: {e}")),
    }
}

/// One reply as the client saw it. `status` is `None` for a timeout or connection error.
#[derive(Clone)]
struct Reply {
    latency_ms: f64,
    status: Option<u16>,
    body: Vec<u8>,
}

/// A keep-alive connection that writes pre-rendered requests and reads whole responses,
/// parsing only the status line and `Content-Length`. The socket is non-blocking and the
/// client polls it, so the client thread is never descheduled while a request is in
/// flight and its own wake-up does not add to the latency it measures.
struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Connection {
            stream,
            buffer: Vec::new(),
        })
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let deadline = Instant::now() + PREDICT_TIMEOUT;
        let mut rest = request;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline =>
                {
                    std::hint::spin_loop()
                }
                Err(e) => return Err(e),
            }
        }
        let head_end = loop {
            if let Some(at) = self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buffer[..head_end]).to_string();
        let invalid = |what| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("no content length"))?;
        while self.buffer.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buffer[head_end..head_end + length].to_vec();
        self.buffer.drain(..head_end + length);
        Ok((status, body))
    }

    /// Reads what has arrived, polling the non-blocking socket until the reply timeout.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let deadline = Instant::now() + PREDICT_TIMEOUT;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + SPIN {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// The `/predict` stream as the client saw it.
struct Stream {
    /// By request id; `None` for an arrival never sent.
    replies: Vec<Option<Reply>>,
    /// How late each request was sent against its schedule.
    late_ms: Vec<f64>,
    /// From the first scheduled send to the last reply.
    elapsed_s: f64,
}

impl Stream {
    /// One stream out of consecutive segments, each sent to its own deployment.
    fn join(segments: Vec<Stream>, requests: usize) -> Stream {
        let mut joined = Stream {
            replies: vec![None; requests],
            late_ms: Vec::new(),
            elapsed_s: 0.0,
        };
        for segment in segments {
            for (slot, reply) in joined.replies.iter_mut().zip(segment.replies) {
                if reply.is_some() {
                    *slot = reply;
                }
            }
            joined.late_ms.extend(segment.late_ms);
            joined.elapsed_s += segment.elapsed_s;
        }
        joined
    }
}

/// Sends the batches in `order` open-loop at the fixed rate over one keep-alive
/// connection, reconnecting after a failure.
fn predict_stream(addr: &str, requests: &Requests, order: &[usize]) -> Stream {
    let start = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / SERVE_RATE_PER_S);
    let deadline = start + interval.mul_f64(order.len() as f64) + UNSENT_GRACE;
    let mut replies: Vec<Option<Reply>> = vec![None; requests.batches.len()];
    let mut late_ms = Vec::with_capacity(order.len());
    let mut connection: Option<Connection> = None;
    let mut last_reply = start;
    for (k, &id) in order.iter().enumerate() {
        let scheduled = start + interval.mul_f64(k as f64);
        wait_until(scheduled);
        let sent = Instant::now();
        if sent > deadline {
            break;
        }
        late_ms.push(ms(sent - scheduled));
        let result = match connection.as_mut() {
            Some(open) => open.exchange(&requests.wire[id]),
            None => Connection::open(addr).and_then(|mut fresh| {
                let reply = fresh.exchange(&requests.wire[id]);
                connection = Some(fresh);
                reply
            }),
        };
        last_reply = Instant::now();
        let latency_ms = ms(last_reply - scheduled);
        let (status, body) = match result {
            Ok((status, body)) => (Some(status), body),
            Err(_) => {
                connection = None;
                (None, Vec::new())
            }
        };
        replies[id] = Some(Reply {
            latency_ms,
            status,
            body,
        });
    }
    Stream {
        replies,
        late_ms,
        elapsed_s: (last_reply - start).as_secs_f64(),
    }
}

/// Sends one `/mine` request on a connection of its own.
fn mine_request(addr: &str, threshold: f64) -> Reply {
    let start = Instant::now();
    let result = HttpClient::connect(addr)
        .and_then(|mut client| client.request("POST", "/mine", Some(&mine_body(threshold))));
    let latency_ms = ms(start.elapsed());
    let (status, body) = match result {
        Ok(reply) => (Some(reply.status), reply.body.into_bytes()),
        Err(_) => (None, Vec::new()),
    };
    Reply {
        latency_ms,
        status,
        body,
    }
}

/// Starts the deployment that answers the timed `/mine` requests, after an untimed
/// `/predict` stream of its own and one untimed `/mine`, so the timed phase starts on a warm
/// process. Without the stream the first seconds of a run were up to three times slower
/// than the rest; the first `/mine` after a stretch of `/predict` traffic often takes 1.6
/// times as long as the next.
fn warm_up(workload_seed: u64) -> Result<Deployment, String> {
    let requests = Requests::generate(workload_seed ^ 0x3a11_0001, WARMUP_SECONDS);
    let deployment = deploy(workload_seed, &requests.hot)?;
    let ids: Vec<usize> = (0..requests.batches.len()).collect();
    let stream = predict_stream(&deployment.addr, &requests, &ids);
    let mined = mine_request(&deployment.addr, SWEEP[0]);
    let answered = stream.replies.iter().flatten();
    let error = match answered.filter(|reply| reply.status == Some(200)).count() {
        n if n < ids.len() => format!(
            "serve warm-up: {n} of {} /predict requests answered",
            ids.len()
        ),
        _ if mined.status != Some(200) => "serve warm-up: /mine failed".into(),
        _ => return Ok(deployment),
    };
    deployment.server.shutdown();
    Err(error)
}

/// The answers the engine gives in-process: per-batch predictions and per-threshold mining
/// outcomes. In the traced run the predictions are timed and mining goes through the
/// traced composition.
struct Expected {
    predictions: Vec<Vec<f64>>,
    predict_us: Vec<f64>,
    mines: BTreeMap<u64, MiningOutcome>,
    mine_traces: Vec<MineTrace>,
}

fn expected(engine: &Surf, requests: &Requests, traced: bool) -> Expected {
    let mut predict_us = Vec::new();
    let predictions = requests
        .batches
        .iter()
        .map(|batch| {
            let start = Instant::now();
            let values = engine.surrogate().predict_batch(batch);
            predict_us.push(start.elapsed().as_secs_f64() * 1e6);
            values
        })
        .collect();
    let guide = mining_guide(engine);
    let mut mines = BTreeMap::new();
    let mut mine_traces = Vec::new();
    for threshold in SWEEP {
        let outcome = if traced {
            let (outcome, trace) = traced_mine(engine, guide.as_ref(), Threshold::above(threshold));
            mine_traces.push(trace);
            outcome
        } else {
            engine.mine_with(Threshold::above(threshold))
        };
        mines.insert(threshold.to_bits(), outcome);
    }
    Expected {
        predictions,
        predict_us,
        mines,
        mine_traces,
    }
}

/// What the checked replies add up to.
#[derive(Default)]
struct Checked {
    predict_ok_ms: Vec<f64>,
    predict_within_slo: usize,
    predicts: usize,
    mine_ok_ms: Vec<f64>,
    cache_hits: usize,
    cache_lookups: usize,
}

fn parse<T: serde::Deserialize>(body: &[u8]) -> Option<T> {
    std::str::from_utf8(body)
        .ok()
        .and_then(|body| serde_json::from_str(body).ok())
}

/// Checks every reply against the engine and counts failures.
fn check(
    stream: &Stream,
    mines: &[(f64, Reply)],
    expected: &Expected,
    report: &mut Report,
) -> Checked {
    let mut checked = Checked {
        predicts: stream.replies.len(),
        ..Checked::default()
    };
    report.attempted += (stream.replies.len() + mines.len()) as u64;
    for (id, reply) in stream.replies.iter().enumerate() {
        let Some(reply) = reply.as_ref().filter(|r| r.status == Some(200)) else {
            report.failed += 1;
            continue;
        };
        let Some(parsed) = parse::<PredictResponse>(&reply.body) else {
            report
                .mismatches
                .push(format!("/predict #{id}: unreadable reply"));
            continue;
        };
        let want = &expected.predictions[id];
        let same = parsed.predictions.len() == want.len()
            && parsed
                .predictions
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(same, || {
            format!("/predict #{id} differs from GbrtSurrogate::predict_batch")
        });
        checked.cache_hits += parsed.cache_hits;
        checked.cache_lookups += parsed.cache_hits + parsed.cache_misses;
        checked.predict_ok_ms.push(reply.latency_ms);
        if reply.latency_ms <= PREDICT_SLO_MS {
            checked.predict_within_slo += 1;
        }
    }
    for (threshold, reply) in mines {
        if reply.status != Some(200) {
            report.failed += 1;
            continue;
        }
        let parsed = parse::<MineResponse>(&reply.body);
        let want = expected.mines.get(&threshold.to_bits());
        report.check(
            parsed.map(|p| outcome_checksum(&p.outcome)) == want.map(outcome_checksum),
            || format!("/mine at y={threshold} differs from Surf::mine_with"),
        );
        checked.mine_ok_ms.push(reply.latency_ms);
    }
    checked
}

/// Checksums of the in-process answers and the quality of the mined regions.
fn record(cell: &Cell, expected: &Expected, report: &mut Report) -> Result<Quality, String> {
    let mut sum = Checksum::default();
    for values in &expected.predictions {
        sum.f64s(values);
    }
    report.checksums.insert(
        format!("serve/predict/n{}", expected.predictions.len()),
        sum.hex(),
    );
    let mut quality = Quality::default();
    for (bits, outcome) in &expected.mines {
        let threshold = f64::from_bits(*bits);
        quality.add(cell, threshold, outcome)?;
        report.checksums.insert(
            format!("serve/mine/y{threshold}"),
            outcome_checksum(outcome),
        );
    }
    Ok(quality)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let seed = options.workload_seed;
    let requests = Requests::generate(seed, options.seconds * STREAM_SHARE);
    let order = permutation(requests.batches.len(), options.run_seed);
    let plan = sweeps(&SWEEP, MINE_PASSES, options.run_seed);
    let mut report = Report::default();
    let miner = warm_up(seed)?;

    // One deployment per `/mine`: each is set up (timed), serves its slice of the `/predict`
    // stream and shuts down; then the miner answers one `/mine`. So both kinds of op are
    // spread over the whole run, and the median `/predict` latency is pooled over several
    // sets of server threads. `/mine` goes to a deployment that serves no `/predict`
    // traffic: the first `/mine` right after a slice was slow about four times in nine.
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut mines = Vec::new();
    let mut last = None;
    for (slice, &threshold) in order.chunks(order.len().div_ceil(plan.len())).zip(&plan) {
        let start = Instant::now();
        let deployment = deploy(seed, &requests.hot)?;
        setups.push(start.elapsed().as_secs_f64());
        segments.push(predict_stream(&deployment.addr, &requests, slice));
        deployment.server.shutdown();
        mines.push((threshold, mine_request(&miner.addr, threshold)));
        last = Some((deployment.cell, deployment.engine));
    }
    miner.server.shutdown();
    let (cell, engine) = last.ok_or("no setup ran")?;
    let slice_p50_ms: Vec<f64> = segments
        .iter()
        .map(|segment| {
            let answered = segment.replies.iter().flatten();
            let ok: Vec<f64> = answered
                .filter(|reply| reply.status == Some(200))
                .map(|reply| reply.latency_ms)
                .collect();
            median(&ok)
        })
        .collect();
    let stream = Stream::join(segments, requests.batches.len());
    let untraced = expected(&engine, &requests, false);
    let checked = check(&stream, &mines, &untraced, &mut report);
    let quality = record(&cell, &untraced, &mut report)?;
    let (tail_p, tail_ms) = tail(&checked.predict_ok_ms);
    report.notes.push(format!(
        "serve: offered {SERVE_RATE_PER_S} /predict per s for {:.1} s ({} requests in {} \
         slices, {} answered) after a {WARMUP_SECONDS} s warm-up; op_tail_ms {tail_ms:.3} is \
         p{tail_p} over {} samples; {} /mine requests, one after each slice; slo limit \
         {PREDICT_SLO_MS} ms; generator late by at most {:.3} ms; setup_s is the median of {} \
         setups; in run order, /predict p50 per slice (ms) {} and /mine (ms) {}",
        checked.predicts as f64 / SERVE_RATE_PER_S,
        checked.predicts,
        setups.len(),
        checked.predict_ok_ms.len(),
        checked.predict_ok_ms.len(),
        checked.mine_ok_ms.len(),
        stream.late_ms.iter().copied().fold(0.0, f64::max),
        setups.len(),
        slice_p50_ms
            .iter()
            .map(|p50| format!("{p50:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        mines
            .iter()
            .map(|(threshold, reply)| format!("{}@y{threshold}", reply.latency_ms.round()))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    if options.trace {
        let m = &mut report.metrics;
        m.insert("op_tail_ms", tail_ms);
        m.insert("op_tail_pct", tail_p);
        m.insert("op_samples", checked.predict_ok_ms.len() as f64);
        return traced(options, &requests, &order, (&checked, &untraced), report);
    }

    let m = &mut report.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("op_p50_ms", median(&checked.predict_ok_ms));
    m.insert(
        "ops_per_s",
        checked.predict_ok_ms.len() as f64 / stream.elapsed_s,
    );
    m.insert("iou_mean", quality.iou_mean());
    m.insert("valid_frac", quality.valid_frac());
    m.insert("mine_p50_ms", median(&checked.mine_ok_ms));
    m.insert(
        "slo_ok_frac",
        checked.predict_within_slo as f64 / checked.predicts.max(1) as f64,
    );
    Ok(report)
}

/// `/metrics` samples and the `/stats` document at one instant.
struct Scrape {
    samples: Vec<Sample>,
    stats: Value,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let metrics = client
        .request("GET", "/metrics", None)
        .map_err(|e| e.to_string())?;
    let stats = client
        .request("GET", "/stats", None)
        .map_err(|e| e.to_string())?;
    Ok(Scrape {
        samples: expo::parse(&metrics.body)?,
        stats: serde_json::parse_value(&stats.body).map_err(|e| e.to_string())?,
    })
}

impl Scrape {
    /// Cumulative `(le, count)` points of a histogram family, summed over its series.
    fn buckets(&self, family: &str) -> BTreeMap<u64, f64> {
        let name = format!("{family}_bucket");
        let mut points = BTreeMap::new();
        for sample in self.samples.iter().filter(|s| s.name == name) {
            if let Some(le) = sample.label("le").and_then(|le| le.parse::<f64>().ok()) {
                *points.entry(le.to_bits()).or_insert(0.0) += sample.value;
            }
        }
        points
    }

    /// Sum of a histogram family's `_sum` samples.
    fn sum(&self, family: &str) -> f64 {
        let name = format!("{family}_sum");
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// A number in `/stats` by path, 0 when the server does not report it.
    fn stat(&self, path: &[&str]) -> f64 {
        let mut value = &self.stats;
        for key in path {
            let Value::Object(entries) = value else {
                return 0.0;
            };
            match entries.iter().find(|(k, _)| k == key) {
                Some((_, next)) => value = next,
                None => return 0.0,
            }
        }
        match value {
            Value::Int(v) => *v as f64,
            Value::UInt(v) => *v as f64,
            Value::Float(v) => *v,
            _ => 0.0,
        }
    }
}

/// A stage histogram's quantile over the interval between two scrapes, in microseconds.
fn stage_quantile_us(before: &Scrape, after: &Scrape, family: &str, q: f64) -> f64 {
    let prior = before.buckets(family);
    let delta: Vec<(f64, f64)> = after
        .buckets(family)
        .into_iter()
        .map(|(le, count)| {
            let earlier = prior.get(&le).copied().unwrap_or(0.0);
            (f64::from_bits(le), count - earlier)
        })
        .collect();
    // Keys are bit patterns of non-negative bounds, so their order is the bounds' order.
    expo::histogram_quantile(&delta, q).map_or(0.0, |nanos| nanos / 1e3)
}

/// The traced run: the same stream again against a fresh deployment, with `/metrics` and
/// `/stats` read around it, the engine refitted through the traced fit composition and the
/// `/mine` answers recomputed through the traced mining composition.
fn traced(
    options: &Options,
    requests: &Requests,
    order: &[usize],
    (untraced, untraced_answers): (&Checked, &Expected),
    mut report: Report,
) -> Result<Report, String> {
    let seed = options.workload_seed;
    let deployment = deploy(seed, &requests.hot)?;
    let config = deployment.cell.config(seed);
    let (parts, fit_trace) = traced_fit(&deployment.cell.fresh_data()?, &config)
        .map_err(|e| format!("traced fit failed: {e}"))?;
    let probes = probe_regions(SERVE_DIMENSIONS);
    report.check(reproduces(&parts, &deployment.engine, &probes), || {
        "the traced fit composition differs from Surf::fit".into()
    });

    let before = scrape(&deployment.addr)?;
    let stream = predict_stream(&deployment.addr, requests, order);
    let after = scrape(&deployment.addr)?;
    deployment.server.shutdown();
    let expected = expected(&deployment.engine, requests, true);
    let checked = check(&stream, &[], &expected, &mut report);
    for (bits, outcome) in &expected.mines {
        let direct = untraced_answers.mines.get(bits).map(outcome_checksum);
        report.check(direct == Some(outcome_checksum(outcome)), || {
            let threshold = f64::from_bits(*bits);
            format!("traced mining at y={threshold} differs from Surf::mine_with")
        });
    }

    let m = &mut report.metrics;
    fit_layer_metrics(&[fit_trace], m);
    mine_layer_metrics(&expected.mine_traces, m);
    m.insert("ml.predict_us_per_req", mean(&expected.predict_us));
    m.insert(
        "serve.cache_hit_frac",
        checked.cache_hits as f64 / checked.cache_lookups.max(1) as f64,
    );
    let mut stage_ns = 0.0;
    for (family, p50, p99) in STAGES {
        m.insert(p50, stage_quantile_us(&before, &after, family, 0.5));
        m.insert(p99, stage_quantile_us(&before, &after, family, 0.99));
        stage_ns += after.sum(family) - before.sum(family);
    }
    let delta = |path: &[&str]| after.stat(path) - before.stat(path);
    let batches = delta(&["coalesce", "fused_batches"]);
    let rows = delta(&["coalesce", "fused_rows"]);
    m.insert(
        "serve.batch_rows",
        if batches > 0.0 { rows / batches } else { 0.0 },
    );
    m.insert("serve.admission_rejects", delta(&["admission_rejects"]));
    m.insert("client.late_max_ms", percentile(&stream.late_ms, 100.0));
    m.insert("client.late_p99_ms", percentile(&stream.late_ms, 99.0));

    // The stages time the server's transport, queues and kernel, not the handler's own
    // work (routing, cache, JSON), so they account for part of what the client sees.
    let client_ms: f64 = checked.predict_ok_ms.iter().sum();
    let untraced_ms = median(&untraced.predict_ok_ms);
    let traced_ms = median(&checked.predict_ok_ms);
    insert_accounting(m, untraced_ms, traced_ms, stage_ns / 1e6 / client_ms);
    report.notes.push(format!(
        "serve per-request server stages (p50/p99 us): {}; the stages cover {:.1} % of the \
         client-observed /predict time; /predict p50 {traced_ms:.3} ms traced vs \
         {untraced_ms:.3} ms untraced",
        STAGES
            .iter()
            .map(|(family, p50, p99)| format!(
                "{} {:.1}/{:.1}",
                family
                    .trim_start_matches("surf_serve_")
                    .trim_end_matches("_nanos"),
                m[p50],
                m[p99]
            ))
            .collect::<Vec<_>>()
            .join(" | "),
        100.0 * stage_ns / 1e6 / client_ms,
    ));
    Ok(report)
}
