//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload docker-days --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Repeats passes of the workload until `--seconds` have elapsed, checks
//! every output outside the timed section, prints each metric by name
//! with its unit plus the check verdicts, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced passes with `--trace 1`.

use std::process::ExitCode;
use std::time::Instant;

use chamulteon_bench::CoreKind;
use chamulteon_perfbench::{
    median, peak_rss_mb, run_pass, trace_cases, PassOutputs, PassRecord, Workload, GRAPH_CYCLES,
    GRAPH_RUNS,
};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The `q`-quantile (nearest rank) of `values`, plus how many samples lie
/// strictly beyond it.
fn quantile(values: &[f64], q: f64) -> (f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    (value, sorted.iter().filter(|&&v| v > value).count())
}

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Running verdict of the output checks: one failed operation per
/// experiment (or pass) whose check fails.
#[derive(Default)]
struct Checks {
    failed: u64,
    lines: Vec<String>,
}

impl Checks {
    fn verdict(&mut self, what: String, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.lines.push(format!(
            "check {what}: {}",
            if ok { "PASS" } else { "FAIL" }
        ));
    }
}

/// Compares a pass's outputs and counts — and, for an untraced pass, its
/// heap figures — with the first pass of the same kind.
fn compare_pass(
    checks: &mut Checks,
    first: &mut Option<(PassOutputs, PassRecord)>,
    traced: bool,
    record: &PassRecord,
    outputs: PassOutputs,
) {
    match first {
        None => *first = Some((outputs, record.clone())),
        Some((outputs0, record0)) => {
            let heap = |r: &PassRecord| (r.peak_heap_bytes, r.held_heap_bytes_sum);
            let same = *outputs0 == outputs
                && record0.counts == record.counts
                && (traced || heap(record0) == heap(record));
            let label = if traced { "traced" } else { "untraced" };
            checks.verdict(format!("{label} pass repeats the first pass exactly"), same);
        }
    }
}

/// Checks the first pass's outputs: trace workloads against
/// `run_experiment_recovered` plus request conservation, graph-cycles
/// targets against their limits; and, given the first pass of the other
/// kind (traced or untraced), that tracing changed no output.
fn check_outputs(
    checks: &mut Checks,
    args: &Args,
    outputs: &PassOutputs,
    other: Option<&PassOutputs>,
) {
    match outputs {
        PassOutputs::Trace(outs) => {
            let cases = trace_cases(args.workload, args.seed);
            for (i, (case, out)) in cases.iter().zip(outs).enumerate() {
                let reference = case.reference();
                let sent: u64 = out.result.sent_per_second.iter().sum();
                let failures: Vec<&str> = [
                    (out.result == reference.result, "SimulationResult"),
                    (out.report == reference.report, "ScalerReport"),
                    (
                        out.billed_instance_seconds.map(f64::to_bits)
                            == reference.billed_instance_seconds.map(f64::to_bits),
                        "billed_instance_seconds",
                    ),
                    (out.degradation == reference.degradation, "degradation log"),
                    (
                        sent == out.result.completed + out.result.in_flight_at_end,
                        "sent == completed + in_flight_at_end",
                    ),
                ]
                .into_iter()
                .filter_map(|(ok, what)| (!ok).then_some(what))
                .collect();
                checks.verdict(
                    format!(
                        "{}/{i} bit-identical to run_experiment_recovered, requests conserved{}",
                        args.workload.name(),
                        if failures.is_empty() {
                            String::new()
                        } else {
                            format!(" (differs: {})", failures.join(", "))
                        }
                    ),
                    failures.is_empty(),
                );
            }
            checks.verdict(
                format!("{} experiment count", args.workload.name()),
                outs.len() == cases.len() && outs.len() == args.workload.experiments(),
            );
        }
        PassOutputs::Graph(history) => {
            checks.verdict(
                "graph-cycles targets within instance limits, every cycle".into(),
                history.len() == GRAPH_RUNS * GRAPH_CYCLES,
            );
        }
    }
    if let Some(other) = other {
        checks.verdict(
            format!(
                "{} outputs identical traced vs untraced",
                args.workload.name()
            ),
            other == outputs,
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(untraced: &[PassRecord]) -> Vec<Metric> {
    let ticks: Vec<f64> = untraced
        .iter()
        .flat_map(PassRecord::nominal_tick_ms)
        .collect();
    let (p95, beyond) = quantile(&ticks, 0.95);
    println!(
        "# decide_ms_p95 over {} cycles, {beyond} beyond it",
        ticks.len()
    );
    let med = |f: fn(&PassRecord) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("wall_s", med(PassRecord::nominal_wall_s), "s"),
        metric("setup_s", med(PassRecord::nominal_setup_s), "s"),
        metric(
            "heap_mb_mean",
            ratio(
                untraced[0].held_heap_bytes_sum as f64,
                untraced[0].counts.cycles as f64,
            ) / MIB,
            "MiB",
        ),
        metric(
            "decide_ms_mean",
            ratio(ticks.iter().sum(), ticks.len() as f64),
            "ms",
        ),
        metric("decide_ms_p95", p95, "ms"),
    ]
}

fn per_layer(traced: &[PassRecord], untraced: &[PassRecord], peak_rss: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&PassRecord) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let c = &traced[0].counts;
    let n = |v: u64| v as f64;
    let mut finite_mase: Vec<f64> = c.mase.iter().copied().filter(|m| m.is_finite()).collect();
    finite_mase.sort_by(f64::total_cmp);
    let decisions = c.decisions_proactive + c.decisions_reactive + c.decisions_hold;
    let run_until = med(&|r| r.run_until_s);
    let wall = med(&|r| r.wall_s);
    let sim = med(&|r| r.run_until_s + r.observe_s + r.actuate_s + r.finish_s + r.sim_build_s);
    let core = med(&|r| r.tick_s + r.snapshot_s + r.restore_s + r.core_build_s);
    // Traced and untraced passes alternate, but the host's speed still
    // moves between them: compare their times on the nominal host.
    let traced_nominal = med(&PassRecord::nominal_wall_s);
    let untraced_nominal = median(
        &untraced
            .iter()
            .map(PassRecord::nominal_wall_s)
            .collect::<Vec<_>>(),
    );
    let experiments = n(c.experiments).max(1.0);
    vec![
        metric("workload.trace_s", med(&|r| r.trace_s), "s"),
        metric("perfmodel.build_s", med(&|r| r.perfmodel_build_s), "s"),
        metric("sim.build_s", med(&|r| r.sim_build_s), "s"),
        metric("sim.run_until_s", run_until, "s"),
        metric("sim.observe_s", med(&|r| r.observe_s), "s"),
        metric("sim.actuate_s", med(&|r| r.actuate_s), "s"),
        metric("sim.finish_s", med(&|r| r.finish_s), "s"),
        metric("sim.requests", n(c.requests), "count"),
        metric("sim.req_per_s", ratio(n(c.requests), run_until), "1/s"),
        metric("sim.actuations", n(c.actuations), "count"),
        metric("sim.actuation_errors", n(c.actuation_errors), "count"),
        metric("sim.faults_injected", n(c.faults_injected), "count"),
        metric("core.build_s", med(&|r| r.core_build_s), "s"),
        metric("core.tick_s", med(&|r| r.tick_s), "s"),
        metric("core.cycles", n(c.cycles), "count"),
        metric("core.phase.demand_s", med(&|r| r.phase_demand_s), "s"),
        metric("core.phase.proactive_s", med(&|r| r.phase_proactive_s), "s"),
        metric("core.phase.reactive_s", med(&|r| r.phase_reactive_s), "s"),
        metric("core.phase.resolve_s", med(&|r| r.phase_resolve_s), "s"),
        metric(
            "core.decisions_proactive",
            n(c.decisions_proactive),
            "count",
        ),
        metric("core.decisions_reactive", n(c.decisions_reactive), "count"),
        metric("core.decisions_hold", n(c.decisions_hold), "count"),
        metric(
            "core.proactive_win_rate",
            ratio(n(c.decisions_proactive), n(decisions)),
            "ratio",
        ),
        metric("core.degradations", n(c.degradations), "count"),
        metric("core.snapshot_s", med(&|r| r.snapshot_s), "s"),
        metric("core.snapshot_bytes", n(c.snapshot_bytes), "bytes"),
        metric("core.restore_s", med(&|r| r.restore_s), "s"),
        metric("core.restores", n(c.restores), "count"),
        metric("core.restores_warm", n(c.restores_warm), "count"),
        metric("timeseries.forecasts", n(c.forecasts), "count"),
        metric(
            "timeseries.trusted_rate",
            ratio(n(c.forecasts_trusted), n(c.forecasts)),
            "ratio",
        ),
        metric(
            "timeseries.mase_p50",
            if finite_mase.is_empty() {
                0.0
            } else {
                median(&finite_mase)
            },
            "ratio",
        ),
        metric(
            "timeseries.mase_unbounded",
            n(c.mase.len() as u64 - finite_mase.len() as u64),
            "count",
        ),
        metric("queueing.cache_hits", n(c.controller_cache_hits), "count"),
        metric(
            "queueing.cache_misses",
            n(c.controller_cache_misses),
            "count",
        ),
        metric(
            "queueing.cache_hit_rate",
            ratio(
                n(c.controller_cache_hits),
                n(c.controller_cache_hits + c.controller_cache_misses),
            ),
            "ratio",
        ),
        metric(
            "queueing.scoring_cache_hits",
            n(c.scoring_cache_hits),
            "count",
        ),
        metric(
            "queueing.scoring_cache_misses",
            n(c.scoring_cache_misses),
            "count",
        ),
        metric(
            "queueing.scoring_cache_hit_rate",
            ratio(
                n(c.scoring_cache_hits),
                n(c.scoring_cache_hits + c.scoring_cache_misses),
            ),
            "ratio",
        ),
        metric("metrics.score_s", med(&|r| r.score_s), "s"),
        metric(
            "metrics.slo_violation_pct",
            c.slo_violation_pct_sum / experiments,
            "%",
        ),
        metric("metrics.apdex_pct", c.apdex_pct_sum / experiments, "%"),
        metric("metrics.instance_hours", c.instance_hours, "h"),
        metric("metrics.billed_instance_s", c.billed_instance_s, "s"),
        metric(
            "process.peak_heap_mb",
            untraced[0].peak_heap_bytes as f64 / MIB,
            "MiB",
        ),
        metric("process.peak_rss_mb", peak_rss, "MiB"),
        metric("obs.events", n(c.events), "count"),
        metric(
            "obs.overhead_pct",
            (ratio(traced_nominal, untraced_nominal) - 1.0) * 100.0,
            "%",
        ),
        metric("share.sim_pct", 100.0 * ratio(sim, wall), "%"),
        metric("share.core_pct", 100.0 * ratio(core, wall), "%"),
        metric(
            "share.score_pct",
            100.0 * ratio(med(&|r| r.score_s), wall),
            "%",
        ),
        metric(
            "share.setup_pct",
            100.0 * ratio(med(&|r| r.setup_s), wall),
            "%",
        ),
    ]
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\nusage: chamulteon-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} core={:?} threads=1 nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        CoreKind::default(),
    );

    // Timed section: whole passes until the budget is spent. A traced run
    // alternates untraced and traced passes so the overhead is measured
    // under the same host conditions.
    let mut checks = Checks::default();
    let mut untraced: Vec<PassRecord> = Vec::new();
    let mut traced: Vec<PassRecord> = Vec::new();
    let mut first_untraced = None;
    let mut first_traced = None;
    let start = Instant::now();
    loop {
        // Stop before a pass that would end past the budget (judged by the
        // longest pass so far), once every kind of pass has run.
        let elapsed = start.elapsed().as_secs_f64();
        let longest = untraced
            .iter()
            .chain(&traced)
            .map(|r| r.wall_s)
            .fold(0.0, f64::max);
        let enough = !untraced.is_empty() && (!args.trace || !traced.is_empty());
        if enough && elapsed + longest > args.seconds {
            break;
        }
        let trace_pass = args.trace && traced.len() < untraced.len();
        match run_pass(args.workload, args.seed, trace_pass) {
            Ok((record, outputs)) => {
                let (label, first, records) = if trace_pass {
                    ("traced", &mut first_traced, &mut traced)
                } else {
                    ("untraced", &mut first_untraced, &mut untraced)
                };
                println!(
                    "# pass {label}: wall_s={:.4} setup_s={:.6} tick_s={:.4} run_until_s={:.4} \
                     reference_us={:.1} nominal_wall_s={:.4}",
                    record.wall_s,
                    record.setup_s,
                    record.tick_s,
                    record.run_until_s,
                    median(&record.experiment_ref_s) * 1e6,
                    record.nominal_wall_s()
                );
                compare_pass(&mut checks, first, trace_pass, &record, outputs);
                records.push(record);
            }
            Err(msg) => {
                checks.verdict(format!("{} pass: {msg}", args.workload.name()), false);
                break;
            }
        }
    }
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    println!(
        "# passes: {} untraced, {} traced, {:.3} s",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );

    // Output checks, outside the timed section.
    if let Some((outputs, _)) = &first_untraced {
        let other = match (&first_traced, args.workload) {
            (Some((outputs, _)), _) => Some(outputs.clone()),
            (None, Workload::GraphCycles) => run_pass(args.workload, args.seed, true)
                .ok()
                .map(|(_, outputs)| outputs),
            (None, _) => None,
        };
        check_outputs(&mut checks, &args, outputs, other.as_ref());
    }
    for line in &checks.lines {
        println!("{line}");
    }

    let attempted: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|r| r.counts.experiments)
        .sum();
    let metrics = if args.trace && !traced.is_empty() {
        per_layer(&traced, &untraced, peak_rss)
    } else if !untraced.is_empty() {
        end_to_end(&untraced)
    } else {
        Vec::new()
    };
    for m in &metrics {
        println!(
            "metric {:<34} {:>18} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
