//! The traced run's instruments: timing wrappers around public calls into each crate, and
//! compositions of `Surf::fit` and `Surf::mine_with` out of their public steps, so every
//! layer's self time is measured inside one real execution.
//!
//! Both compositions must reproduce the untraced entry point bit for bit; the workloads
//! check that on every traced op. A change to the fit or mining policy inside the library
//! therefore shows up here as a failed check, and this file has to follow it.
//!
//! Times are wall-clock self times: the span during which at least one thread was inside the
//! layer. Layers that fan out over threads also report busy time, summed over threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_core::finder::RegionFitness;
use surf_core::surrogate::{SurrogateTrainer, TrainingReport};
use surf_core::{
    Direction, GbrtSurrogate, MinedRegion, MiningOutcome, Objective, Surf, SurfConfig, SurfError,
    Surrogate, Threshold,
};
use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::workload::{RegionEvaluation, Workload, WorkloadSpec};
use surf_ml::kde::KernelDensity;
use surf_ml::parallel::{parallel_map, resolve_threads};
use surf_optim::fitness::{FitnessFunction, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

use crate::measure::{mean, Checksum};
use crate::ACCOUNTING_TOLERANCE;

/// Calls into one layer, possibly from several threads: their spans, rows and count.
pub struct Layer {
    base: Instant,
    spans: Mutex<Vec<(u64, u64)>>,
    rows: AtomicU64,
}

impl Layer {
    fn new(base: Instant) -> Layer {
        Layer {
            base,
            spans: Mutex::new(Vec::new()),
            rows: AtomicU64::new(0),
        }
    }

    fn record(&self, start: Instant, rows: usize) {
        let end = Instant::now();
        let span = (
            start.duration_since(self.base).as_nanos() as u64,
            end.duration_since(self.base).as_nanos() as u64,
        );
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    fn summary(&self) -> LayerSummary {
        let mut spans = self.spans.lock().map(|s| s.clone()).unwrap_or_default();
        spans.sort_unstable();
        let busy_ns = spans.iter().map(|(a, b)| b - a).sum();
        let (mut wall_ns, mut reach) = (0, 0);
        for (start, end) in spans.iter().copied() {
            let start = start.max(reach);
            if end > start {
                wall_ns += end - start;
                reach = end;
            }
        }
        LayerSummary {
            wall_ns,
            busy_ns,
            calls: spans.len() as u64,
            rows: self.rows.load(Ordering::Relaxed),
        }
    }
}

/// What one layer did during one traced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSummary {
    /// Union of the call spans (wall-clock self time).
    pub wall_ns: u64,
    /// Sum of the call spans over threads.
    pub busy_ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Rows processed (predictions for the surrogate).
    pub rows: u64,
}

/// A surrogate that times every call into the engine's `GbrtSurrogate`.
struct TimedSurrogate<'a> {
    inner: &'a GbrtSurrogate,
    layer: &'a Layer,
}

impl Surrogate for TimedSurrogate<'_> {
    fn predict(&self, region: &Region) -> f64 {
        let start = Instant::now();
        let value = self.inner.predict(region);
        self.layer.record(start, 1);
        value
    }

    fn predict_batch(&self, regions: &[Region]) -> Vec<f64> {
        let start = Instant::now();
        let values = self.inner.predict_batch(regions);
        self.layer.record(start, regions.len());
        values
    }

    fn predict_batch_into(&self, regions: &[Region], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.predict_batch_into(regions, out);
        self.layer.record(start, regions.len());
    }

    fn dimensions(&self) -> usize {
        Surrogate::dimensions(self.inner)
    }
}

/// A fitness landscape that times the KDE density weight of the wrapped `RegionFitness`.
struct TimedFitness<'a> {
    inner: &'a RegionFitness<'a>,
    density: &'a Layer,
}

impl FitnessFunction for TimedFitness<'_> {
    fn bounds(&self) -> SolutionBounds {
        self.inner.bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.inner.fitness(solution)
    }

    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        self.inner.fitness_batch(solutions, dim, out);
    }

    fn density_weight(&self, solution: &[f64]) -> f64 {
        let start = Instant::now();
        let weight = self.inner.density_weight(solution);
        self.density.record(start, 1);
        weight
    }

    fn dimensions(&self) -> usize {
        self.inner.dimensions()
    }
}

/// One traced mining request.
#[derive(Debug, Clone, Copy)]
pub struct MineTrace {
    /// Wall time of the whole request.
    pub wall_ns: u64,
    /// Surrogate inference (`GbrtSurrogate` calls).
    pub predict: LayerSummary,
    /// KDE density weights (`RegionFitness::density_weight`).
    pub density: LayerSummary,
    /// Whether the margined threshold was infeasible and the request mined twice.
    pub fallback: bool,
    /// GSO iterations of the returned run.
    pub iterations: usize,
    /// Swarm valid fraction of the returned run.
    pub swarm_valid: f64,
    /// Regions returned.
    pub regions: usize,
}

/// `Surf::mine_with(threshold)` composed from its public steps (the margin and fallback
/// policy of `Surf::mine_with_surrogate`, `RegionFitness`, `GlowwormSwarm::run` and the
/// clustering of `mine_regions`), with the surrogate and the density weight timed.
pub fn traced_mine(
    surf: &Surf,
    kde: Option<&KernelDensity>,
    threshold: Threshold,
) -> (MiningOutcome, MineTrace) {
    let start = Instant::now();
    let predict = Layer::new(start);
    let density = Layer::new(start);
    let config = surf.config();
    let (coverage_min, coverage_max) = config.workload_coverage;
    let mut min_fraction = config.min_length_fraction.max(coverage_min);
    let mut max_fraction = config.max_length_fraction.min(coverage_max);
    if min_fraction >= max_fraction {
        min_fraction = config.min_length_fraction;
        max_fraction = config.max_length_fraction;
    }
    let rmse = surf.training_report().holdout_rmse;
    let shift = if rmse.is_finite() {
        config.mining_margin_rmse * rmse
    } else {
        0.0
    };
    let margined = match threshold.direction {
        Direction::Above => Threshold::above(threshold.value + shift),
        Direction::Below => Threshold::below(threshold.value - shift),
    };
    let mut gso = config.gso.clone();
    if gso.threads == 0 {
        gso.threads = resolve_threads(config.threads);
    }
    let surrogate = TimedSurrogate {
        inner: surf.surrogate(),
        layer: &predict,
    };
    let search = Search {
        surrogate: &surrogate,
        density: &density,
        domain: surf.domain(),
        objective: config.objective,
        gso: &gso,
        kde,
        lengths: (min_fraction, max_fraction),
        cluster_radius_fraction: config.cluster_radius_fraction,
    };
    let mut outcome = search.mine(margined);
    let fallback = outcome.regions.is_empty() && shift > 0.0;
    if fallback {
        outcome = search.mine(threshold);
    }
    let trace = MineTrace {
        wall_ns: start.elapsed().as_nanos() as u64,
        predict: predict.summary(),
        density: density.summary(),
        fallback,
        iterations: outcome.iterations_run,
        swarm_valid: outcome.swarm_valid_fraction,
        regions: outcome.regions.len(),
    };
    (outcome, trace)
}

/// The fixed inputs of one GSO search (`surf_core::finder::mine_regions`).
struct Search<'a> {
    surrogate: &'a TimedSurrogate<'a>,
    density: &'a Layer,
    domain: &'a Region,
    objective: Objective,
    gso: &'a GsoParams,
    kde: Option<&'a KernelDensity>,
    lengths: (f64, f64),
    cluster_radius_fraction: f64,
}

impl Search<'_> {
    fn mine(&self, threshold: Threshold) -> MiningOutcome {
        let start = Instant::now();
        let fitness = RegionFitness::new(
            self.surrogate,
            self.objective,
            threshold,
            self.domain.clone(),
            self.kde,
            self.lengths.0,
            self.lengths.1,
        );
        let timed = TimedFitness {
            inner: &fitness,
            density: self.density,
        };
        let result = GlowwormSwarm::new(self.gso.clone()).run(&timed);
        let radius = self.cluster_radius_fraction * fitness.bounds().diagonal();
        let mut regions: Vec<MinedRegion> = result
            .cluster_representatives(radius)
            .into_iter()
            .filter_map(|glowworm| {
                let region = fitness.decode(&glowworm.position)?;
                let predicted_value = self.surrogate.predict(&region);
                let objective_value = self
                    .objective
                    .evaluate(predicted_value, &region, &threshold);
                (objective_value.is_finite() && threshold.satisfied(predicted_value)).then_some(
                    MinedRegion {
                        region,
                        predicted_value,
                        objective_value,
                    },
                )
            })
            .collect();
        regions.sort_by(|a, b| {
            b.objective_value
                .partial_cmp(&a.objective_value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        MiningOutcome {
            regions,
            swarm_valid_fraction: result.valid_fraction(),
            convergence_trace: result.mean_fitness_history.clone(),
            iterations_run: result.iterations_run,
            converged: result.converged,
            surrogate_evaluations: result.fitness_evaluations,
            mining_time: start.elapsed(),
        }
    }
}

/// One traced fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitTrace {
    /// Wall time of the composed fit (everything below except the separate compile).
    pub wall_ns: u64,
    /// `Workload::sample_query_regions`.
    pub sample_ns: u64,
    /// First `Dataset::region_index`.
    pub index_ns: u64,
    /// `Statistic::evaluate_with` over the training queries: wall and busy time, count.
    pub eval_wall_ns: u64,
    pub eval_busy_ns: u64,
    pub eval_count: u64,
    /// `SurrogateTrainer::train`, including the compile it performs.
    pub train_ns: u64,
    /// `GbrtSurrogate::from_model` on the trained model, timed separately.
    pub compile_ns: u64,
    /// `Dataset::sample` + `KernelDensity::fit_scott`.
    pub kde_ns: u64,
    /// Share of training targets that satisfy the configured threshold.
    pub positive_frac: f64,
    /// Held-out RMSE of the trained surrogate.
    pub holdout_rmse: f64,
}

impl FitTrace {
    /// Sum of the layers' self times: the trainer's own time excludes the compile, which
    /// is reported on its own.
    pub fn self_ns(&self) -> u64 {
        self.sample_ns
            + self.index_ns
            + self.eval_wall_ns
            + self.train_ns
            + self.compile_ns
            + self.kde_ns
    }
}

/// What a traced fit produced: enough to compare with `Surf::fit` on the same inputs.
pub struct FitParts {
    pub surrogate: GbrtSurrogate,
    pub report: TrainingReport,
    pub kde: Option<KernelDensity>,
}

/// `Surf::fit(dataset, config)` composed from its public steps, each timed. `dataset` must
/// not have built its index yet, so the index build is measured.
pub fn traced_fit(
    dataset: &Dataset,
    config: &SurfConfig,
) -> Result<(FitParts, FitTrace), SurfError> {
    let started = Instant::now();
    let mut trace = FitTrace::default();
    config.validate()?;
    let spec = WorkloadSpec::default()
        .with_queries(config.training_queries)
        .with_coverage(config.workload_coverage.0, config.workload_coverage.1)
        .with_empty_value(config.empty_value)
        .with_seed(config.seed);
    let domain = dataset.domain()?;

    let start = Instant::now();
    let regions = Workload::sample_query_regions(&domain, &spec)?;
    trace.sample_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    dataset.region_index(config.index_kind);
    trace.index_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let busy = AtomicU64::new(0);
    let threads = resolve_threads(config.threads);
    trace.eval_count = regions.len() as u64;
    let values = parallel_map(regions, threads, |region| {
        let call = Instant::now();
        let value = config
            .statistic
            .evaluate_with(dataset, region, config.index_kind)
            .map(|value| RegionEvaluation {
                region: region.clone(),
                value: value.unwrap_or(config.empty_value),
            });
        busy.fetch_add(call.elapsed().as_nanos() as u64, Ordering::Relaxed);
        value
    });
    let evaluations = values.into_iter().collect::<Result<Vec<_>, _>>()?;
    trace.eval_wall_ns = start.elapsed().as_nanos() as u64;
    trace.eval_busy_ns = busy.load(Ordering::Relaxed);
    let positives = evaluations
        .iter()
        .filter(|e| config.threshold.satisfied(e.value))
        .count();
    trace.positive_frac = positives as f64 / evaluations.len().max(1) as f64;
    let workload = Workload::from_evaluations(config.statistic, evaluations);

    let trainer = SurrogateTrainer {
        params: config.gbrt.clone(),
        hypertune: config.hypertune,
        threads: config.threads,
        seed: config.seed,
        ..SurrogateTrainer::default()
    };
    let start = Instant::now();
    let (surrogate, report) = trainer.train(&workload)?;
    trace.train_ns = start.elapsed().as_nanos() as u64;
    trace.holdout_rmse = report.holdout_rmse;

    let start = Instant::now();
    let kde = if config.use_kde_guide {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_cafe);
        let sample = dataset.sample(config.kde_sample.max(16), &mut rng)?;
        let points: Vec<Vec<f64>> = (0..sample.len()).map(|i| sample.row(i).values).collect();
        Some(KernelDensity::fit_scott(&points)?)
    } else {
        None
    };
    trace.kde_ns = start.elapsed().as_nanos() as u64;
    trace.wall_ns = started.elapsed().as_nanos() as u64;

    // The compile `train` performed, repeated on its own to split it from the trainer.
    let model = surrogate.model().clone();
    let start = Instant::now();
    GbrtSurrogate::from_model(model, workload.dimensions())?;
    trace.compile_ns = start.elapsed().as_nanos() as u64;
    trace.train_ns = trace.train_ns.saturating_sub(trace.compile_ns);

    Ok((
        FitParts {
            surrogate,
            report,
            kde,
        },
        trace,
    ))
}

/// Checksum of what a fit produced: held-out RMSE and predictions on fixed probe regions.
/// (The KDE guide shows up in the mining outcomes, which are checked separately.)
pub fn fit_checksum(
    surrogate: &GbrtSurrogate,
    report: &TrainingReport,
    probes: &[Region],
) -> String {
    let mut sum = Checksum::default();
    sum.f64(report.holdout_rmse)
        .u64(report.training_examples as u64)
        .f64s(&surrogate.predict_batch(probes));
    sum.hex()
}

/// Whether a traced fit reproduced the engine `Surf::fit` returned for the same inputs:
/// the same held-out RMSE, predictions and KDE guide.
pub fn reproduces(parts: &FitParts, engine: &Surf, probes: &[Region]) -> bool {
    fit_checksum(&parts.surrogate, &parts.report, probes)
        == fit_checksum(engine.surrogate(), engine.training_report(), probes)
        && parts.kde == mining_guide(engine)
}

/// The engine's KDE movement guide, for `traced_mine`. Every use of the guide's type stays
/// in this file, next to the compositions that mirror the library.
pub fn mining_guide(surf: &Surf) -> Option<KernelDensity> {
    surf.export_state().kde
}

/// Milliseconds from nanoseconds.
fn ns_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Per-layer metrics of traced fits (means per fit).
pub fn fit_layer_metrics(fits: &[FitTrace], metrics: &mut BTreeMap<&'static str, f64>) {
    let avg = |f: fn(&FitTrace) -> f64| mean(&fits.iter().map(f).collect::<Vec<_>>());
    metrics.insert("data.sample_ms", ns_ms(avg(|t| t.sample_ns as f64)));
    metrics.insert("data.index_build_ms", ns_ms(avg(|t| t.index_ns as f64)));
    metrics.insert("data.eval_ms", ns_ms(avg(|t| t.eval_wall_ns as f64)));
    metrics.insert("data.eval_busy_ms", ns_ms(avg(|t| t.eval_busy_ns as f64)));
    metrics.insert("data.eval_count", avg(|t| t.eval_count as f64));
    metrics.insert("data.positive_frac", avg(|t| t.positive_frac));
    metrics.insert("ml.train_ms", ns_ms(avg(|t| t.train_ns as f64)));
    metrics.insert("ml.compile_ms", ns_ms(avg(|t| t.compile_ns as f64)));
    metrics.insert("ml.kde_fit_ms", ns_ms(avg(|t| t.kde_ns as f64)));
    metrics.insert("ml.holdout_rmse", avg(|t| t.holdout_rmse));
}

/// Per-layer metrics of traced mining requests (means per request).
pub fn mine_layer_metrics(mines: &[MineTrace], metrics: &mut BTreeMap<&'static str, f64>) {
    let avg = |f: fn(&MineTrace) -> f64| mean(&mines.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&MineTrace) -> u64| mines.iter().map(f).sum::<u64>() as f64;
    metrics.insert("ml.predict_ms", ns_ms(avg(|t| t.predict.wall_ns as f64)));
    metrics.insert(
        "ml.predict_busy_ms",
        ns_ms(avg(|t| t.predict.busy_ns as f64)),
    );
    metrics.insert("ml.predict_rows", avg(|t| t.predict.rows as f64));
    metrics.insert(
        "ml.predict_ns_per_row",
        total(|t| t.predict.busy_ns) / total(|t| t.predict.rows).max(1.0),
    );
    metrics.insert(
        "ml.predict_us_per_req",
        total(|t| t.predict.busy_ns) / 1e3 / total(|t| t.predict.calls).max(1.0),
    );
    metrics.insert("optim.density_ms", ns_ms(avg(|t| t.density.wall_ns as f64)));
    metrics.insert(
        "optim.density_busy_ms",
        ns_ms(avg(|t| t.density.busy_ns as f64)),
    );
    metrics.insert("optim.density_calls", avg(|t| t.density.calls as f64));
    metrics.insert("optim.gso_self_ms", ns_ms(avg(|t| gso_self_ns(t) as f64)));
    metrics.insert("optim.iterations", avg(|t| t.iterations as f64));
    metrics.insert("optim.swarm_valid_frac", avg(|t| t.swarm_valid));
    metrics.insert(
        "core.fallback_frac",
        avg(|t| f64::from(u8::from(t.fallback))),
    );
    metrics.insert("core.regions_returned", avg(|t| t.regions as f64));
}

/// The mining request's own time outside inference and the density weight.
pub fn gso_self_ns(trace: &MineTrace) -> u64 {
    trace
        .wall_ns
        .saturating_sub(trace.predict.wall_ns + trace.density.wall_ns)
}

/// The traced run's bookkeeping: tracing overhead and how much of the untraced op time the
/// per-layer self times account for.
pub fn insert_accounting(
    m: &mut BTreeMap<&'static str, f64>,
    untraced_ms: f64,
    traced_ms: f64,
    accounted_frac: f64,
) {
    m.insert("trace.untraced_op_ms", untraced_ms);
    m.insert("trace.traced_op_ms", traced_ms);
    m.insert("trace.overhead_ms", traced_ms - untraced_ms);
    m.insert("trace.accounted_frac", accounted_frac);
    m.insert(
        "trace.within_tolerance",
        f64::from(u8::from(
            (accounted_frac - 1.0).abs() <= ACCOUNTING_TOLERANCE,
        )),
    );
}
