//! The task each workload poses: datasets, statistic, thresholds and request schedule.
//!
//! The *workload seed* fixes the task (datasets, ground truth, request contents); the *run
//! seed* passed by `--seed` only orders it (the interleaving of queries and requests). So
//! quality metrics and output checksums are the same for every run seed, while every run
//! still draws its inputs from its seed.
//!
//! Everything else is left at the library default: `SurfConfig::builder()` with no
//! override of engine, KDE guide, threads, index, GBRT or GSO, and
//! `ServerConfig::default()` for the server.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_core::evaluation::{match_regions, validity_fraction};
use surf_core::{MiningOutcome, Surf, SurfConfig, SurfError, Threshold};
use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

/// The workload seed every claim is measured on.
pub const PRIMARY_WORKLOAD_SEED: u64 = 2020;
/// A second workload seed, not used while tuning the benchmark, on which later claims must
/// also hold (`--workload-seed 4040`).
pub const HELD_OUT_WORKLOAD_SEED: u64 = 4040;

/// Thresholds `y_R` swept on the paper-size density cells (10,000 points, 1,200 planted in
/// the ground-truth region; the paper's `y_R` is 1,000).
pub const SWEEP: [f64; 3] = [700.0, 850.0, 1_000.0];
/// The finer sweep `explore` runs on the d=2 cell, where SuRF finds the planted region.
pub const FINE_SWEEP: [f64; 6] = [600.0, 700.0, 775.0, 850.0, 925.0, 1_000.0];
/// The `explore` cells and their thresholds: d=2, and d=3, where SuRF finds nothing yet.
/// A d=3 query costs about twice a d=2 one. With as many of each, the median query fell on
/// the gap between the two groups and moved 10 % between runs; twice as many d=2 queries
/// put it inside the d=2 group.
pub const EXPLORE_CELLS: [(usize, &[f64]); 2] = [(2, &FINE_SWEEP), (3, &SWEEP)];
/// Dimensionality of the cell `serve` serves (the d=2 `explore` engine).
pub const SERVE_DIMENSIONS: usize = 2;

/// Points of the `fit` dataset.
pub const FIT_POINTS: usize = 300_000;
/// Points planted in the `fit` ground-truth region: the paper cell's 12 % share.
pub const FIT_PLANTED: usize = 36_000;
/// Dimensionality of the `fit` dataset. d=2 keeps SuRF's quality probe above zero, so the
/// probe's IoU and validity are meaningful on this workload too.
pub const FIT_DIMENSIONS: usize = 2;
/// Thresholds of the post-run quality probe on the `fit` engine: the paper's `y_R` and
/// below it, scaled by the 30x larger dataset. Five queries, because the median of two
/// moved 12 % between runs.
pub const FIT_PROBE_THRESHOLDS: [f64; 5] = [18_000.0, 21_000.0, 24_000.0, 27_000.0, 30_000.0];
/// Passes over `FIT_PROBE_THRESHOLDS` spread over the `fit` timed phase.
pub const FIT_PROBE_PASSES: usize = 2;

/// Latency limit of one `explore` query (an interactive analyst's patience).
pub const EXPLORE_SLO_MS: f64 = 5_000.0;
/// Latency limit of one `fit`.
pub const FIT_SLO_MS: f64 = 2_000.0;
/// Latency limit of one `/predict` request, timed from its scheduled send time.
pub const PREDICT_SLO_MS: f64 = 10.0;

/// Offered `/predict` rate of `serve`: a tenth of the lowest closed-loop capacity measured
/// for 16-region requests on one connection (2.3k req/s). At 1,000 req/s the connection
/// saturated whenever other tenants stole CPU from the virtual machine, and the median
/// latency jumped tenfold between runs. At this rate a request can take ten times its
/// uncontended 0.4 ms before the next one queues behind it.
pub const SERVE_RATE_PER_S: f64 = 250.0;
/// Regions per `/predict` request.
pub const REGIONS_PER_REQUEST: usize = 16;
/// Of which drawn from the hot set (the rest are fresh, never repeated).
pub const HOT_REGIONS_PER_REQUEST: usize = 8;
/// Hot-set size: fits in the default 4,096-entry result cache with room to spare.
pub const HOT_SET: usize = 256;
/// Passes over `SWEEP` that `serve` sends to `/mine`. About one `/mine` in three took 1.7
/// times as long as the rest. If each is slow independently, the median of nine falls in
/// the slow group in one run in seven, the median of fifteen in one in eleven.
pub const MINE_PASSES: usize = 5;

/// One synthetic density cell and the threshold its engine is configured with.
pub struct Cell {
    /// Data and planted ground truth.
    pub synthetic: SyntheticDataset,
    /// The configured threshold (`y_R`).
    pub y_r: f64,
}

impl Cell {
    /// The paper-size k=1 density cell of dimensionality `d`.
    pub fn explore(d: usize, workload_seed: u64) -> Cell {
        Cell {
            synthetic: SyntheticDataset::generate(
                &SyntheticSpec::density(d, 1).with_seed(workload_seed + d as u64),
            ),
            y_r: 1_000.0,
        }
    }

    /// The large `fit` cell: 300,000 points with the paper cell's planted share.
    pub fn fit(workload_seed: u64) -> Cell {
        Cell {
            synthetic: SyntheticDataset::generate(
                &SyntheticSpec::density(FIT_DIMENSIONS, 1)
                    .with_points(FIT_POINTS)
                    .with_points_per_region(FIT_PLANTED)
                    .with_seed(workload_seed + 100),
            ),
            y_r: FIT_PROBE_THRESHOLDS[FIT_PROBE_THRESHOLDS.len() - 1],
        }
    }

    /// The cell's configuration: the task (statistic, threshold, seed) and library
    /// defaults for everything else.
    pub fn config(&self, workload_seed: u64) -> SurfConfig {
        SurfConfig::builder()
            .statistic(self.synthetic.statistic)
            .threshold(Threshold::above(self.y_r))
            .seed(workload_seed)
            .build()
    }

    /// Fits the cell's engine through the public entry point.
    pub fn fit_engine(&self, workload_seed: u64) -> Result<Surf, SurfError> {
        Surf::fit(&self.synthetic.dataset, &self.config(workload_seed))
    }

    /// A copy of the cell's data that shares no cached index with it, so a fit on it pays
    /// the index build as a first fit does.
    pub fn fresh_data(&self) -> Result<Dataset, String> {
        let data = &self.synthetic.dataset;
        let columns = (0..data.dimensions())
            .map(|dim| data.column(dim).map(<[f64]>::to_vec))
            .collect::<Result<Vec<_>, _>>()
            .and_then(Dataset::from_columns);
        columns.map_err(|e| format!("copying the dataset failed: {e}"))
    }
}

/// Quality of mining outcomes against the planted ground truth, over a fixed list.
#[derive(Default)]
pub struct Quality {
    iou_sum: f64,
    queries: usize,
    valid_regions: f64,
    regions: usize,
}

impl Quality {
    /// Adds one query's outcome: its IoU (`match_regions`) and how many of its regions the
    /// true statistic confirms (`validity_fraction`).
    pub fn add(
        &mut self,
        cell: &Cell,
        threshold: f64,
        outcome: &MiningOutcome,
    ) -> Result<(), String> {
        let regions = outcome.region_list();
        let synthetic = &cell.synthetic;
        self.iou_sum += match_regions(&regions, &synthetic.ground_truth).mean_iou;
        self.queries += 1;
        let valid = validity_fraction(
            &synthetic.dataset,
            synthetic.statistic,
            &Threshold::above(threshold),
            &regions,
            SurfConfig::default().empty_value,
        )
        .map_err(|e| format!("validity check failed: {e}"))?;
        self.valid_regions += valid * regions.len() as f64;
        self.regions += regions.len();
        Ok(())
    }

    /// Mean IoU over the queries.
    pub fn iou_mean(&self) -> f64 {
        self.iou_sum / self.queries.max(1) as f64
    }

    /// Share of all returned regions that meet their query's threshold.
    pub fn valid_frac(&self) -> f64 {
        self.valid_regions / self.regions.max(1) as f64
    }
}

/// `n` regions with uniform centers in the unit cube and half lengths covering 1–15 % of
/// each side, the range the surrogate is trained on.
pub fn random_regions(d: usize, n: usize, rng: &mut StdRng) -> Vec<Region> {
    (0..n)
        .map(|_| {
            let center = (0..d).map(|_| rng.random::<f64>()).collect();
            let half = (0..d).map(|_| rng.random_range(0.01..0.15)).collect();
            Region::new(center, half).expect("half lengths are positive")
        })
        .collect()
}

/// Fixed regions on which two fits of the same cell must predict bit-identically.
pub fn probe_regions(d: usize) -> Vec<Region> {
    random_regions(d, 64, &mut StdRng::seed_from_u64(0x0b5e_55ed))
}

/// A seeded Fisher–Yates permutation of `0..n`.
/// `passes` passes over `values`, each in an order drawn from `seed`.
pub fn sweeps(values: &[f64], passes: usize, seed: u64) -> Vec<f64> {
    (0..passes as u64)
        .flat_map(|pass| permutation(values.len(), seed ^ (pass << 32)))
        .map(|i| values[i])
        .collect()
}

pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Runs whole passes over `ops` ops until one more pass would overrun `seconds` (at least
/// one pass). Each pass visits every op once, in an order drawn from `seed`, so every run
/// times the same multiset of ops. Returns the elapsed seconds.
pub fn timed_passes(seconds: f64, ops: usize, seed: u64, mut op: impl FnMut(usize)) -> f64 {
    let started = std::time::Instant::now();
    let mut passes = 0u64;
    loop {
        let order = permutation(ops, seed ^ passes.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        order.into_iter().for_each(&mut op);
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes as f64 > seconds {
            return elapsed;
        }
    }
}
