//! `explore`: an analyst session on the Fig. 3 density grid. Setup fits one engine per
//! paper-size k=1 cell (d=2 and d=3); the timed ops are `Surf::mine_with` queries sweeping
//! the threshold around the paper's `y_R`, interleaved across the two engines.

use std::time::Instant;

use surf_core::{MiningOutcome, Surf, Threshold};

use crate::measure::{mean, median, ms, outcome_checksum, tail};
use crate::task::{probe_regions, timed_passes, Cell, Quality, EXPLORE_CELLS, EXPLORE_SLO_MS};
use crate::trace::{
    fit_layer_metrics, insert_accounting, mine_layer_metrics, mining_guide, reproduces, traced_fit,
    traced_mine, MineTrace,
};
use crate::{Options, Report, SETUP_REPEATS};

/// The session: one engine per cell, and the fixed query list over them.
struct Session {
    cells: Vec<Cell>,
    engines: Vec<Surf>,
    /// `(cell index, threshold)` per query, in canonical order.
    queries: Vec<(usize, f64)>,
}

impl Session {
    fn query_id(&self, i: usize) -> String {
        let (cell, threshold) = self.queries[i];
        format!("explore/d{}/y{threshold}", EXPLORE_CELLS[cell].0)
    }

    fn mine(&self, i: usize) -> MiningOutcome {
        let (cell, threshold) = self.queries[i];
        self.engines[cell].mine_with(Threshold::above(threshold))
    }
}

fn setup(workload_seed: u64) -> Result<Session, String> {
    let cells: Vec<Cell> = EXPLORE_CELLS
        .iter()
        .map(|&(d, _)| Cell::explore(d, workload_seed))
        .collect();
    let engines = cells
        .iter()
        .map(|cell| cell.fit_engine(workload_seed))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("explore setup: Surf::fit failed: {e}"))?;
    let queries = EXPLORE_CELLS
        .iter()
        .enumerate()
        .flat_map(|(cell, (_, sweep))| sweep.iter().map(move |&y| (cell, y)))
        .collect();
    Ok(Session {
        cells,
        engines,
        queries,
    })
}

/// Query passes: every query runs through `Surf::mine_with`, and in the traced run also
/// through the traced composition right after (or before, on alternate queries, so drift
/// of the machine affects both alike). Repeats must reproduce a query's first outcome and
/// the traced composition must reproduce the untraced one.
#[derive(Default)]
struct Passes {
    untraced_ms: Vec<f64>,
    elapsed_s: f64,
    first: Vec<Option<MiningOutcome>>,
    traced_ms: Vec<f64>,
    traces: Vec<MineTrace>,
}

fn passes(session: &Session, options: &Options, report: &mut Report) -> Passes {
    let guides: Vec<_> = session.engines.iter().map(mining_guide).collect();
    let mut out = Passes {
        first: vec![None; session.queries.len()],
        ..Passes::default()
    };
    // A traced run times each query twice, so it gets twice the time for the same passes.
    let budget = options.seconds * if options.trace { 2.0 } else { 1.0 };
    let mut count = 0usize;
    let elapsed_s = timed_passes(budget, session.queries.len(), options.run_seed, |i| {
        count += 1;
        let (cell, threshold) = session.queries[i];
        let traced_first = options.trace && count.is_multiple_of(2);
        let trace_query = |out: &mut Passes| {
            let (outcome, trace) = traced_mine(
                &session.engines[cell],
                guides[cell].as_ref(),
                Threshold::above(threshold),
            );
            out.traced_ms.push(trace.wall_ns as f64 / 1e6);
            out.traces.push(trace);
            outcome_checksum(&outcome)
        };
        let traced_before = traced_first.then(|| trace_query(&mut out));
        let start = Instant::now();
        let outcome = session.mine(i);
        out.untraced_ms.push(ms(start.elapsed()));
        let traced_after = (options.trace && !traced_first).then(|| trace_query(&mut out));
        let sum = outcome_checksum(&outcome);
        if let Some(traced) = traced_before.or(traced_after) {
            report.check(traced == sum, || {
                format!(
                    "traced {} differs from Surf::mine_with",
                    session.query_id(i)
                )
            });
        }
        match &out.first[i] {
            Some(earlier) => report.check(outcome_checksum(earlier) == sum, || {
                format!("{} differs between passes", session.query_id(i))
            }),
            None => out.first[i] = Some(outcome),
        }
    });
    out.elapsed_s = elapsed_s;
    report.attempted += count as u64;
    out
}

/// Records the per-query checksums and the quality over the whole query list.
fn quality(
    session: &Session,
    outcomes: &[Option<MiningOutcome>],
    report: &mut Report,
) -> Result<Quality, String> {
    let mut quality = Quality::default();
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().ok_or("a query never ran")?;
        let (cell, threshold) = session.queries[i];
        quality.add(&session.cells[cell], threshold, outcome)?;
        report
            .checksums
            .insert(session.query_id(i), outcome_checksum(outcome));
    }
    report.checksums.insert(
        "explore/quality".into(),
        format!(
            "{:016x}/{:016x}",
            quality.iou_mean().to_bits(),
            quality.valid_frac().to_bits()
        ),
    );
    Ok(quality)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        session = Some(setup(options.workload_seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let session = session.ok_or("no setup ran")?;

    let passes = passes(&session, options, &mut report);
    let quality = quality(&session, &passes.first, &mut report)?;
    let latencies = &passes.untraced_ms;
    let (tail_p, tail_ms) = tail(latencies);
    report.notes.push(format!(
        "explore: {} queries in {:.2} s; op_tail_ms {tail_ms:.1} is p{tail_p} over {} samples; \
         setup_s is the median of {SETUP_REPEATS} setups",
        latencies.len(),
        passes.elapsed_s,
        latencies.len(),
    ));
    if options.trace {
        let m = &mut report.metrics;
        m.insert("op_tail_ms", tail_ms);
        m.insert("op_tail_pct", tail_p);
        m.insert("op_samples", latencies.len() as f64);
        return traced(&session, &passes, report);
    }

    let within_slo = latencies.iter().filter(|&&l| l <= EXPLORE_SLO_MS).count();
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("op_p50_ms", median(latencies));
    m.insert("ops_per_s", latencies.len() as f64 / passes.elapsed_s);
    m.insert("iou_mean", quality.iou_mean());
    m.insert("valid_frac", quality.valid_frac());
    m.insert("mine_p50_ms", median(latencies));
    m.insert("slo_ok_frac", within_slo as f64 / latencies.len() as f64);
    Ok(report)
}

/// The traced run's per-layer numbers: every engine refitted through the traced fit
/// composition (which must reproduce `Surf::fit`), and the traced query passes.
fn traced(session: &Session, passes: &Passes, mut report: Report) -> Result<Report, String> {
    let mut fits = Vec::new();
    for (cell, engine) in session.cells.iter().zip(&session.engines) {
        let (parts, trace) = traced_fit(&cell.fresh_data()?, engine.config())
            .map_err(|e| format!("traced fit failed: {e}"))?;
        let probes = probe_regions(cell.synthetic.dataset.dimensions());
        report.check(reproduces(&parts, engine, &probes), || {
            "the traced fit composition differs from Surf::fit".into()
        });
        fits.push(trace);
    }

    let m = &mut report.metrics;
    fit_layer_metrics(&fits, m);
    mine_layer_metrics(&passes.traces, m);
    let untraced_ms = mean(&passes.untraced_ms);
    let traced_ms = mean(&passes.traced_ms);
    let accounted = m["ml.predict_ms"] + m["optim.density_ms"] + m["optim.gso_self_ms"];
    insert_accounting(m, untraced_ms, traced_ms, accounted / untraced_ms);
    report.notes.push(format!(
        "explore per-query self time (mean ms): ml.predict {:.2} | optim.density {:.2} | \
         optim.gso_self {:.2} | sum {accounted:.2} vs untraced {untraced_ms:.2} \
         (tracing overhead {:.2})",
        m["ml.predict_ms"],
        m["optim.density_ms"],
        m["optim.gso_self_ms"],
        traced_ms - untraced_ms,
    ));
    Ok(report)
}
