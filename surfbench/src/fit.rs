//! `fit`: repeated `Surf::fit` with defaults on one large dataset — the one-off cost of the
//! paper's Fig. 6 and Table I. Every timed fit starts from a copy of the data that has no
//! index yet, as a first fit does. Between fits, outside their timing, a quality probe
//! mines the setup engine, so the fit is judged by what an analyst gets from it.

use std::time::Instant;

use surf_core::{MiningOutcome, Surf, Threshold};
use surf_data::region::Region;

use crate::measure::{mean, median, ms, outcome_checksum, tail};
use crate::task::{
    probe_regions, sweeps, timed_passes, Cell, Quality, FIT_PROBE_PASSES, FIT_PROBE_THRESHOLDS,
    FIT_SLO_MS,
};
use crate::trace::{
    fit_checksum, fit_layer_metrics, insert_accounting, mine_layer_metrics, mining_guide,
    reproduces, traced_fit, traced_mine, FitTrace,
};
use crate::{Options, Report, SETUP_REPEATS};

fn checksum(engine: &Surf, probes: &[Region]) -> String {
    fit_checksum(engine.surrogate(), engine.training_report(), probes)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let seed = options.workload_seed;
    let mut report = Report::default();

    // Setup: generate the dataset and fit once untimed, so lazy process state (allocator
    // arenas, CPU feature probes) is warm before the first timed fit.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let cell = Cell::fit(seed);
        let engine = Surf::fit(&cell.fresh_data()?, &cell.config(seed))
            .map_err(|e| format!("fit setup: Surf::fit failed: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((cell, engine));
    }
    let (cell, engine) = prepared.ok_or("no setup ran")?;
    let config = cell.config(seed);
    let probes = probe_regions(cell.synthetic.dataset.dimensions());
    let expected = checksum(&engine, &probes);
    report
        .checksums
        .insert("fit/engine".into(), expected.clone());

    // Timed phase: each op is one `Surf::fit` on fresh data; the copy is made outside it.
    // A traced run also runs the traced composition on every op, alternating which goes
    // first, with twice the time for the same number of ops.
    let mut latencies = Vec::new();
    let mut traced_ms = Vec::new();
    let mut fits: Vec<FitTrace> = Vec::new();
    let budget = options.seconds * if options.trace { 2.0 } else { 1.0 };
    // The quality probe: passes over the probe thresholds in orders drawn from the run seed,
    // spread over the timed phase between fits and outside their timing, so the probe
    // latency samples the whole run rather than its last seconds.
    let plan = sweeps(&FIT_PROBE_THRESHOLDS, FIT_PROBE_PASSES, options.run_seed);
    let mut probe_ms = Vec::new();
    let mut outcomes: Vec<(f64, MiningOutcome)> = Vec::new();
    let probe = |probe_ms: &mut Vec<f64>, outcomes: &mut Vec<(f64, MiningOutcome)>| {
        let threshold = plan[probe_ms.len()];
        let start = Instant::now();
        let outcome = engine.mine_with(Threshold::above(threshold));
        probe_ms.push(ms(start.elapsed()));
        outcomes.push((threshold, outcome));
    };
    let phase = Instant::now();
    let elapsed = timed_passes(budget, 1, options.run_seed, |_| {
        let traced_first = options.trace && latencies.len() % 2 == 1;
        let mut trace_fit = || match cell
            .fresh_data()
            .and_then(|data| traced_fit(&data, &config).map_err(|e| e.to_string()))
        {
            Ok((parts, trace)) => {
                traced_ms.push(trace.wall_ns as f64 / 1e6);
                fits.push(trace);
                reproduces(&parts, &engine, &probes)
            }
            Err(e) => {
                eprintln!("surfbench: traced fit failed: {e}");
                false
            }
        };
        let traced_before = traced_first.then(&mut trace_fit);
        report.attempted += 1;
        match cell.fresh_data() {
            Ok(data) => {
                let start = Instant::now();
                let fitted = Surf::fit(&data, &config);
                latencies.push(ms(start.elapsed()));
                match fitted {
                    Ok(fitted) => report.check(checksum(&fitted, &probes) == expected, || {
                        "a timed fit differs from the setup fit".into()
                    }),
                    Err(e) => {
                        eprintln!("surfbench: Surf::fit failed: {e}");
                        report.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("surfbench: {e}");
                report.failed += 1;
            }
        }
        let traced_after = (options.trace && !traced_first).then(&mut trace_fit);
        if let Some(reproduced) = traced_before.or(traced_after) {
            report.check(reproduced, || {
                "the traced fit composition differs from Surf::fit".into()
            });
        }
        let due = (probe_ms.len() as f64 + 0.5) * budget / plan.len() as f64;
        if probe_ms.len() < plan.len() && phase.elapsed().as_secs_f64() >= due {
            probe(&mut probe_ms, &mut outcomes);
        }
    });
    let elapsed = elapsed - probe_ms.iter().sum::<f64>() / 1e3;
    while probe_ms.len() < plan.len() {
        probe(&mut probe_ms, &mut outcomes);
    }

    // Repeats of a probe threshold must reproduce its first answer; quality is judged
    // once per threshold.
    let mut first: Vec<(f64, MiningOutcome)> = Vec::new();
    for (threshold, outcome) in outcomes {
        match first.iter().find(|(t, _)| *t == threshold) {
            Some((_, earlier)) => report.check(
                outcome_checksum(earlier) == outcome_checksum(&outcome),
                || format!("a repeated probe at y={threshold} differs from the first"),
            ),
            None => first.push((threshold, outcome)),
        }
    }
    let mut outcomes = first;
    outcomes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut quality = Quality::default();
    for (threshold, outcome) in &outcomes {
        quality.add(&cell, *threshold, outcome)?;
        report
            .checksums
            .insert(format!("fit/probe/y{threshold}"), outcome_checksum(outcome));
    }
    report.checksums.insert(
        "fit/quality".into(),
        format!(
            "{:016x}/{:016x}",
            quality.iou_mean().to_bits(),
            quality.valid_frac().to_bits()
        ),
    );

    let (tail_p, tail_ms) = tail(&latencies);
    report.notes.push(format!(
        "fit: {} fits in {elapsed:.2} s; op_tail_ms {tail_ms:.1} is p{tail_p} over {} samples; \
         setup_s is the median of {SETUP_REPEATS} setups; quality probe in run order (ms) {}",
        latencies.len(),
        latencies.len(),
        plan.iter()
            .zip(&probe_ms)
            .map(|(threshold, ms)| format!("{}@y{threshold}", ms.round()))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    if options.trace {
        let guide = mining_guide(&engine);
        let mut mines = Vec::new();
        for (threshold, outcome) in &outcomes {
            let (traced, trace) =
                traced_mine(&engine, guide.as_ref(), Threshold::above(*threshold));
            report.check(
                outcome_checksum(&traced) == outcome_checksum(outcome),
                || format!("traced probe at y={threshold} differs from Surf::mine_with"),
            );
            mines.push(trace);
        }
        let m = &mut report.metrics;
        m.insert("op_tail_ms", tail_ms);
        m.insert("op_tail_pct", tail_p);
        m.insert("op_samples", latencies.len() as f64);
        fit_layer_metrics(&fits, m);
        mine_layer_metrics(&mines, m);
        let untraced_ms = mean(&latencies);
        let traced_mean = mean(&traced_ms);
        let self_ms: Vec<f64> = fits.iter().map(|f| f.self_ns() as f64 / 1e6).collect();
        let accounted = mean(&self_ms);
        insert_accounting(m, untraced_ms, traced_mean, accounted / untraced_ms);
        report.notes.push(format!(
            "fit per-fit self time (mean ms): data.sample {:.2} | data.index_build {:.2} | \
             data.eval {:.2} | ml.train {:.2} | ml.compile {:.2} | ml.kde_fit {:.2} | \
             sum {accounted:.2} vs untraced {untraced_ms:.2} (tracing overhead {:.2})",
            m["data.sample_ms"],
            m["data.index_build_ms"],
            m["data.eval_ms"],
            m["ml.train_ms"],
            m["ml.compile_ms"],
            m["ml.kde_fit_ms"],
            traced_mean - untraced_ms,
        ));
        return Ok(report);
    }

    let within_slo = latencies.iter().filter(|&&l| l <= FIT_SLO_MS).count() as u64;
    let ok_within_slo = within_slo.saturating_sub(report.failed);
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("op_p50_ms", median(&latencies));
    m.insert("ops_per_s", latencies.len() as f64 / elapsed);
    m.insert("iou_mean", quality.iou_mean());
    m.insert("valid_frac", quality.valid_frac());
    m.insert("mine_p50_ms", median(&probe_ms));
    m.insert(
        "slo_ok_frac",
        ok_within_slo as f64 / latencies.len().max(1) as f64,
    );
    Ok(report)
}
