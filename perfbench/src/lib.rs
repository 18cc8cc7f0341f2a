//! End-to-end benchmark of the Chamulteon control loop, timed layer by
//! layer from outside.
//!
//! The benchmark drives the paper's measurement loop itself through the
//! public APIs only — `SimCore` for the simulator, `Chamulteon` for the
//! controller, `chamulteon_metrics` for scoring — and times every call it
//! makes into a layer. Nothing inside the program is instrumented beyond
//! what already exists: the traced pass attaches `Obs::recording` to the
//! controller and reads its phase histograms, counters and `Forecast`
//! events.
//!
//! One *pass* runs a workload's fixed list of experiments once and returns
//! a [`PassRecord`] (host seconds per layer, deterministic counts, quality
//! figures) plus the experiments' outputs, which the binary checks against
//! `run_experiment_recovered` (trace workloads) or against the traced pass
//! (graph-cycles). Everything runs on one thread.
//!
//! Slices of a fixed reference computation (`calib.rs`) run between the
//! experiments' cycles; the end-to-end times are scaled by them to a
//! nominal host, so the host's drifting speed cancels out.

use std::time::Instant;

mod calib;
mod heap;

use calib::Reference;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

use chamulteon::{
    Chamulteon, ChamulteonConfig, ChargingModel, ControllerSnapshot, DegradationLog,
    DegradationReason, Observation, RetryPolicy,
};
use chamulteon_bench::{
    run_experiment_recovered, CoreKind, ExperimentSpec, FaultClass, ScalerKind, SimCore,
};
use chamulteon_demand::MonitoringSample;
use chamulteon_metrics::{
    adaptation_rate_per_hour, demand_curves_with_cache, elasticity_metrics, instance_seconds,
    ScalerReport, StepFn,
};
use chamulteon_obs::{EventKind, Obs, RingRecorder};
use chamulteon_perfmodel::topology::{self, TopologyFamily};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::min_instances_for_utilization;
use chamulteon_queueing::{CacheStats, CapacityCache};
use chamulteon_sim::{
    DeploymentProfile, FaultPlan, ObservedSample, RecoveryPolicy, SimulationConfig,
    SimulationResult, SloPolicy,
};
use chamulteon_workload::generators::{
    bibsonomy_like, peak_rate_for_total_instances, wikipedia_like,
};
use chamulteon_workload::LoadTrace;

/// Wikipedia-like days per docker-days pass.
const DOCKER_DAYS: usize = 6;
/// Wikipedia-like days per vm-days pass.
const VM_DAYS: usize = 3;
/// BibSonomy-like days per bursty-faults pass. Day `i` runs clean or
/// under one fault class, rotating, so every class runs eight times on
/// distinct days (bursts make one day's request volume, and how often its
/// forecast drifts, vary with the seed, so a pass needs many days for a
/// steady total).
const BURSTY_DAYS: usize = 48;
/// Services in the graph-cycles topology.
const GRAPH_SERVICES: usize = 1000;
/// Graph-cycles runs per pass, each on its own trace and topology.
pub const GRAPH_RUNS: usize = 12;
/// Controller cycles per graph-cycles run.
pub const GRAPH_CYCLES: usize = 60;
/// How many times each experiment's set-up is repeated in a pass; the
/// median repetition is what `setup_s` reports.
const SETUP_REPS: usize = 5;

/// Host seconds one run of the reference computation (`calib.rs`) takes on
/// the nominal host that end-to-end times are scaled to: about its median
/// on a 2-vCPU Intel Xeon VM at 2.1 GHz.
pub const NOMINAL_REFERENCE_S: f64 = 130e-6;

/// Seconds in the synthetic source day before compression.
const SOURCE_DAY: f64 = 86_400.0;
/// Source sampling step of the generators.
const SOURCE_STEP: f64 = 60.0;
/// The paper's per-service demands (UI, validation, data), used to size
/// trace peaks exactly as the paper setups do.
const PAPER_DEMANDS: [f64; 3] = [0.059, 0.1, 0.04];
/// Utilization that translates "peak instances" into a peak rate.
const SIZING_RHO: f64 = 0.8;
/// Scaling interval of the graph-cycles loop, in seconds.
const GRAPH_INTERVAL: f64 = 60.0;
/// Entry arrival rate at the graph-cycles trace peak, in requests/s.
const GRAPH_PEAK_RATE: f64 = 200.0;
/// Bursty-faults variants: clean plus one per fault class.
const BURSTY_VARIANTS: usize = 1 + FaultClass::ALL.len();
/// Ring capacity of the traced pass; drained after every cycle.
const RING_CAPACITY: usize = 1 << 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wikipedia-like days compressed to 1 h on Docker: the simulator.
    DockerDays,
    /// Wikipedia-like days stretched to 6 h on VMs: the forecaster.
    VmDays,
    /// A BibSonomy-like day clean and under every fault class, with FOX
    /// and checkpoint recovery: faults, retries, snapshots, restores.
    BurstyFaults,
    /// The controller alone on a 1000-service graph: Algorithm 1 and the
    /// capacity solver.
    GraphCycles,
}

impl Workload {
    /// Every workload, in a fixed order.
    pub const ALL: [Workload; 4] = [
        Workload::DockerDays,
        Workload::VmDays,
        Workload::BurstyFaults,
        Workload::GraphCycles,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DockerDays => "docker-days",
            Workload::VmDays => "vm-days",
            Workload::BurstyFaults => "bursty-faults",
            Workload::GraphCycles => "graph-cycles",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of experiments in one pass.
    pub fn experiments(self) -> usize {
        match self {
            Workload::DockerDays => DOCKER_DAYS,
            Workload::VmDays => VM_DAYS,
            Workload::BurstyFaults => BURSTY_DAYS,
            Workload::GraphCycles => GRAPH_RUNS,
        }
    }
}

/// Host seconds per layer, deterministic counts and quality figures of
/// one pass. Durations are summed over the pass's experiments.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Host seconds of the pass: one set-up per experiment, the loop and
    /// scoring.
    pub wall_s: f64,
    /// Median set-up repetition, summed over experiments.
    pub setup_s: f64,
    /// Host seconds of every experiment (its set-up, loop and scoring), in
    /// order; they sum to [`PassRecord::wall_s`].
    pub experiment_wall_s: Vec<f64>,
    /// Median set-up repetition of every experiment, in order; they sum to
    /// [`PassRecord::setup_s`].
    pub experiment_setup_s: Vec<f64>,
    /// Host seconds per run of the reference computation, sampled all
    /// through every experiment, in order.
    pub experiment_ref_s: Vec<f64>,
    /// Index into [`PassRecord::tick_ms`] one past every experiment's last
    /// cycle, in order.
    pub experiment_cycles_end: Vec<usize>,
    /// Trace generation inside set-up.
    pub trace_s: f64,
    /// Application-model construction inside set-up.
    pub perfmodel_build_s: f64,
    /// Simulator construction and initial placement inside set-up.
    pub sim_build_s: f64,
    /// Controller construction and warm-up preload inside set-up.
    pub core_build_s: f64,
    /// `SimCore::run_until`, including retry backoffs and the final drain.
    pub run_until_s: f64,
    /// `observe_interval`, `controller_crash_at` and `provisioned`.
    pub observe_s: f64,
    /// `scale_to`.
    pub actuate_s: f64,
    /// `SimCore::finish`.
    pub finish_s: f64,
    /// `tick_observed` / `tick`.
    pub tick_s: f64,
    /// Host milliseconds of every controller cycle, in order.
    pub tick_ms: Vec<f64>,
    /// Controller snapshot plus encoding.
    pub snapshot_s: f64,
    /// Snapshot decoding plus controller restore (or cold rebuild).
    pub restore_s: f64,
    /// Demand curves, elasticity metrics and instance accounting.
    pub score_s: f64,
    /// The controller's `cycle.*_us` phase histograms (traced pass only).
    pub phase_demand_s: f64,
    /// See [`PassRecord::phase_demand_s`].
    pub phase_proactive_s: f64,
    /// See [`PassRecord::phase_demand_s`].
    pub phase_reactive_s: f64,
    /// See [`PassRecord::phase_demand_s`].
    pub phase_resolve_s: f64,
    /// Peak heap bytes held above what was live when the pass started.
    /// Exact for an untraced pass; a traced pass also allocates histogram
    /// buckets, and how many depends on the times measured.
    pub peak_heap_bytes: u64,
    /// Heap bytes held above the pass's start, summed over the samples
    /// taken at the end of every cycle (exact for an untraced pass).
    pub held_heap_bytes_sum: u64,
    /// The pass's deterministic counts and quality figures.
    pub counts: PassCounts,
}

impl PassRecord {
    /// Books one experiment: its median set-up, the host seconds of its
    /// loop (reference slices included) and what its reference slices
    /// took.
    fn add_experiment(&mut self, setup: f64, elapsed: f64, (paused, per_run): (f64, f64)) {
        let seconds = setup + elapsed - paused;
        self.wall_s += seconds;
        self.experiment_wall_s.push(seconds);
        self.experiment_setup_s.push(setup);
        self.experiment_ref_s.push(per_run);
        self.experiment_cycles_end.push(self.tick_ms.len());
    }

    /// Factor that scales experiment `i`'s host seconds to the nominal
    /// host.
    fn to_nominal(&self, i: usize) -> f64 {
        NOMINAL_REFERENCE_S / self.experiment_ref_s[i]
    }

    /// [`PassRecord::wall_s`] on the nominal host.
    pub fn nominal_wall_s(&self) -> f64 {
        (0..self.experiment_wall_s.len())
            .map(|i| self.experiment_wall_s[i] * self.to_nominal(i))
            .sum()
    }

    /// [`PassRecord::setup_s`] on the nominal host.
    pub fn nominal_setup_s(&self) -> f64 {
        (0..self.experiment_setup_s.len())
            .map(|i| self.experiment_setup_s[i] * self.to_nominal(i))
            .sum()
    }

    /// [`PassRecord::tick_ms`] on the nominal host.
    pub fn nominal_tick_ms(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.tick_ms.len());
        let mut begin = 0;
        for (i, &end) in self.experiment_cycles_end.iter().enumerate() {
            let scale = self.to_nominal(i);
            out.extend(self.tick_ms[begin..end].iter().map(|t| t * scale));
            begin = end;
        }
        out
    }
}

/// What a pass did, as counts and quality figures: identical across
/// same-seed passes, so a pure performance change must leave it unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCounts {
    /// Experiments run.
    pub experiments: u64,
    /// Requests the simulator generated.
    pub requests: u64,
    /// `scale_to` calls.
    pub actuations: u64,
    /// `scale_to` calls that failed.
    pub actuation_errors: u64,
    /// Faults the simulator injected.
    pub faults_injected: u64,
    /// Controller cycles.
    pub cycles: u64,
    /// Per-service decisions won by the proactive cycle (traced only).
    pub decisions_proactive: u64,
    /// Per-service decisions won by the reactive cycle (traced only).
    pub decisions_reactive: u64,
    /// Per-service decisions that held the current count (traced only).
    pub decisions_hold: u64,
    /// Degraded decisions recorded (controller plus actuation retries).
    pub degradations: u64,
    /// Bytes of all encoded snapshots.
    pub snapshot_bytes: u64,
    /// Controller restarts after injected crashes.
    pub restores: u64,
    /// Of those, restarts restored from a checkpoint.
    pub restores_warm: u64,
    /// Forecasts made (from `Forecast` events, traced only).
    pub forecasts: u64,
    /// Forecasts that passed the trust threshold (traced only).
    pub forecasts_trusted: u64,
    /// In-sample MASE of every forecast, `inf` where unbounded (traced
    /// only).
    pub mase: Vec<f64>,
    /// Controller capacity-cache hits.
    pub controller_cache_hits: u64,
    /// Controller capacity-cache misses.
    pub controller_cache_misses: u64,
    /// Scoring capacity-cache hits.
    pub scoring_cache_hits: u64,
    /// Scoring capacity-cache misses.
    pub scoring_cache_misses: u64,
    /// Events the traced controller emitted.
    pub events: u64,
    /// Sum over experiments of the SLO-violation percentage.
    pub slo_violation_pct_sum: f64,
    /// Sum over experiments of the Apdex percentage.
    pub apdex_pct_sum: f64,
    /// Instance hours over all experiments.
    pub instance_hours: f64,
    /// FOX-billed instance seconds over all experiments.
    pub billed_instance_s: f64,
}

/// The outputs of one pass, checked outside the timed section.
#[derive(Debug, Clone, PartialEq)]
pub enum PassOutputs {
    /// One entry per trace experiment.
    Trace(Vec<TraceOutput>),
    /// Every cycle's targets of every graph-cycles run, in order.
    Graph(Vec<Vec<u32>>),
}

/// What the measurement loop produced for one trace experiment — the
/// fields `run_experiment_recovered` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutput {
    /// Raw simulation result.
    pub result: SimulationResult,
    /// Scored report.
    pub report: ScalerReport,
    /// FOX-billed instance seconds, when FOX was attached.
    pub billed_instance_seconds: Option<f64>,
    /// Every degraded decision of the run.
    pub degradation: DegradationLog,
}

/// One trace experiment as the check reproduces it.
pub struct TraceCase {
    /// The measurement scenario.
    pub spec: ExperimentSpec,
    /// The scaler driven (plain Chamulteon or FOX on GCP billing).
    pub kind: ScalerKind,
    /// The injected faults, if any.
    pub plan: Option<FaultPlan>,
    /// How controller crashes are recovered from.
    pub recovery: RecoveryPolicy,
}

impl TraceCase {
    /// Runs the repository's reference runner on this case.
    pub fn reference(&self) -> TraceOutput {
        let outcome = run_experiment_recovered(
            &self.spec,
            self.kind,
            self.plan.clone(),
            &RetryPolicy::default(),
            self.recovery,
        );
        TraceOutput {
            result: outcome.outcome.result,
            report: outcome.outcome.report,
            billed_instance_seconds: outcome.outcome.billed_instance_seconds,
            degradation: outcome.degradation,
        }
    }
}

/// Deterministic 64-bit mix of the run seed and a stream index.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One synthetic day compressed to `duration` and sized for about
/// `peak_instances` paper-application instances at the top.
fn paper_trace(
    generator: fn(u64, f64, f64) -> LoadTrace,
    seed: u64,
    duration: f64,
    peak_instances: u32,
) -> LoadTrace {
    let peak = peak_rate_for_total_instances(peak_instances, &PAPER_DEMANDS, SIZING_RHO);
    generator(seed, SOURCE_STEP, SOURCE_DAY)
        .compress_to(duration)
        .scale_to_peak(peak)
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Adds the seconds `f` takes to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Median of `values`, averaging the two middle values of an even count
/// (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Host seconds of one set-up repetition, by layer.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total: f64,
    trace: f64,
    perfmodel: f64,
    sim: f64,
    core: f64,
}

/// Runs `build` [`SETUP_REPS`] times, adds the median repetition's
/// per-layer times to `record` and returns the last repetition's state
/// with the median total.
fn repeat_setup<T>(
    record: &mut PassRecord,
    mut build: impl FnMut(&mut SetupTimes) -> T,
) -> (T, f64) {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let state = build(&mut times);
        times.total = start.elapsed().as_secs_f64();
        reps.push(times);
        built = Some(state);
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let total = pick(|t| t.total);
    record.setup_s += total;
    record.trace_s += pick(|t| t.trace);
    record.perfmodel_build_s += pick(|t| t.perfmodel);
    record.sim_build_s += pick(|t| t.sim);
    record.core_build_s += pick(|t| t.core);
    // SETUP_REPS ≥ 1, so the loop ran at least once.
    (built.expect("set-up ran"), total)
}

/// The trace experiments of one pass, in order (the check rebuilds them
/// from the same seed).
pub fn trace_cases(workload: Workload, seed: u64) -> Vec<TraceCase> {
    (0..workload.experiments())
        .filter_map(|i| trace_case(workload, seed, i, &mut SetupTimes::default()))
        .collect()
}

/// Builds trace experiment `i` of `workload`, timing trace generation and
/// model construction into `times`; `None` for graph-cycles.
fn trace_case(
    workload: Workload,
    seed: u64,
    i: usize,
    times: &mut SetupTimes,
) -> Option<TraceCase> {
    let stream = i as u64;
    let (generator, duration, peak, profile, interval, hist_bucket) = match workload {
        Workload::DockerDays => (
            wikipedia_like as fn(u64, f64, f64) -> LoadTrace,
            3_600.0,
            120,
            DeploymentProfile::docker(),
            60.0,
            300.0,
        ),
        Workload::VmDays => (
            wikipedia_like as fn(u64, f64, f64) -> LoadTrace,
            6.0 * 3_600.0,
            20,
            DeploymentProfile::vm(),
            120.0,
            1_800.0,
        ),
        Workload::BurstyFaults => (
            bibsonomy_like as fn(u64, f64, f64) -> LoadTrace,
            3_600.0,
            120,
            DeploymentProfile::docker(),
            60.0,
            300.0,
        ),
        Workload::GraphCycles => return None,
    };
    let trace = timed(&mut times.trace, || {
        paper_trace(generator, derive_seed(seed, 2 * stream), duration, peak)
    });
    let model = timed(&mut times.perfmodel, ApplicationModel::paper_benchmark);
    let spec = ExperimentSpec {
        name: format!("{}/{i}", workload.name()),
        trace,
        model,
        profile,
        slo: SloPolicy::default(),
        scaling_interval: interval,
        seed: derive_seed(seed, 2 * stream + 1),
        warmup_days: 2,
        hist_bucket,
    };
    let (kind, plan, recovery) = match workload {
        Workload::BurstyFaults => {
            let plan = (i % BURSTY_VARIANTS).checked_sub(1).map(|c| {
                FaultClass::ALL[c].plan(spec.seed, spec.trace.duration(), spec.scaling_interval)
            });
            (
                ScalerKind::ChamulteonFoxGcp,
                plan,
                RecoveryPolicy::Checkpoint { cadence: 1 },
            )
        }
        _ => (ScalerKind::Chamulteon, None, RecoveryPolicy::ColdRestart),
    };
    Some(TraceCase {
        spec,
        kind,
        plan,
        recovery,
    })
}

/// A fresh controller of `kind`'s family, with `obs` attached.
fn new_controller(kind: ScalerKind, model: &ApplicationModel, obs: &Obs) -> Chamulteon {
    let controller = Chamulteon::new(model.clone(), ChamulteonConfig::default());
    let controller = match kind {
        ScalerKind::ChamulteonFoxGcp => controller.with_fox(ChargingModel::gcp_per_minute()),
        _ => controller,
    };
    controller.with_obs(obs.clone())
}

/// A trace experiment built up to its first scaling interval.
struct BuiltTrace {
    case: TraceCase,
    sim: SimCore,
    controller: Chamulteon,
}

/// Set-up of one trace experiment: trace, model, simulator and initial
/// placement, controller and warm-up preload.
fn build_trace(
    workload: Workload,
    seed: u64,
    i: usize,
    obs: &Obs,
    times: &mut SetupTimes,
) -> Option<BuiltTrace> {
    let case = trace_case(workload, seed, i, times)?;
    let spec = &case.spec;
    let sim = timed(&mut times.sim, || {
        let mut config = SimulationConfig::new(spec.profile.clone(), spec.slo, spec.seed)
            .with_monitoring_interval(spec.scaling_interval);
        if let Some(plan) = &case.plan {
            config = config.with_fault_plan(plan.clone());
        }
        let mut sim = SimCore::new(CoreKind::default(), &spec.model, &spec.trace, config);
        // Every tier sized for the initial rate at 60 % utilization.
        let rate0 = spec.trace.rate_at(0.0);
        for (s, (service, visits)) in spec
            .model
            .services()
            .iter()
            .zip(spec.model.visit_ratios())
            .enumerate()
        {
            let n0 = min_instances_for_utilization(rate0 * visits, service.nominal_demand(), 0.6);
            let _ = sim.set_supply(s, n0);
        }
        sim
    });
    let controller = timed(&mut times.core, || {
        let mut controller = new_controller(case.kind, &spec.model, obs);
        if spec.warmup_days > 0 {
            if let Ok(day) = spec.trace.resample(spec.scaling_interval) {
                let rates: Vec<f64> = (0..spec.warmup_days)
                    .flat_map(|_| day.rates().iter().copied())
                    .collect();
                controller.preload_history(spec.scaling_interval, &rates);
            }
        }
        controller
    });
    Some(BuiltTrace {
        case,
        sim,
        controller,
    })
}

/// Rescales a reported utilization from the running instances that
/// produced it to the provisioned count the sample reports; corrupt
/// readings pass through for the controller's boundary to reject.
fn observed_utilization(observed: &ObservedSample, provisioned: u32) -> f64 {
    if observed.utilization.is_finite() && observed.utilization >= 0.0 {
        let running = observed.instances_end.max(1);
        let provisioned = provisioned.max(1);
        (observed.utilization * f64::from(running) / f64::from(provisioned)).clamp(0.0, 1.0)
    } else {
        observed.utilization
    }
}

/// Maps a monitoring report (or its absence) to the controller's input.
fn observation_from(observed: Option<&ObservedSample>, provisioned: u32) -> Observation {
    match observed {
        None => Observation::Missing,
        Some(o) => Observation::Raw {
            duration: o.duration,
            arrivals: o.arrivals,
            completions: o.completions,
            utilization: observed_utilization(o, provisioned),
            instances: provisioned.max(1),
            mean_response_time: o
                .mean_response_time
                .filter(|rt| !(rt.is_finite() && *rt <= 0.0)),
        },
    }
}

/// Adds a capacity cache's counters to a running total.
fn add_stats(hits: &mut u64, misses: &mut u64, stats: CacheStats) {
    *hits += stats.hits;
    *misses += stats.misses;
}

/// Tallies the events the traced controller emitted since the last drain.
fn drain_events(ring: Option<&RingRecorder>, counts: &mut PassCounts) {
    let Some(ring) = ring else {
        return;
    };
    for event in ring.take() {
        counts.events += 1;
        if let EventKind::Forecast { trusted, mase, .. } = event.kind {
            counts.forecasts += 1;
            counts.forecasts_trusted += u64::from(trusted);
            counts.mase.push(mase.unwrap_or(f64::INFINITY));
        }
    }
}

/// Copies the controller's phase histograms and decision counters into
/// the record (zero when the registry is disabled).
fn read_registry(obs: &Obs, record: &mut PassRecord) {
    let metrics = obs.metrics();
    let phase = |name: &str| metrics.histogram(name).map_or(0.0, |h| h.sum() * 1e-6);
    record.phase_demand_s += phase("cycle.demand_us");
    record.phase_proactive_s += phase("cycle.proactive_us");
    record.phase_reactive_s += phase("cycle.reactive_us");
    record.phase_resolve_s += phase("cycle.resolve_us");
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    record.counts.decisions_proactive += counter("decisions.proactive");
    record.counts.decisions_reactive += counter("decisions.reactive");
    record.counts.decisions_hold += counter("decisions.hold");
}

/// The measurement loop of one trace experiment — the same calls, in the
/// same order, as the repository's experiment runner — with every call
/// into a layer timed.
fn drive_trace(
    built: BuiltTrace,
    obs: &Obs,
    ring: Option<&RingRecorder>,
    reference: &mut Reference,
    record: &mut PassRecord,
) -> TraceOutput {
    let BuiltTrace {
        case,
        mut sim,
        mut controller,
    } = built;
    let spec = &case.spec;
    let retry = RetryPolicy::default();
    let interval = spec.scaling_interval;
    let duration = spec.trace.duration();
    let services = spec.model.service_count();
    let intervals = (duration / interval).ceil() as usize;
    let counts = &mut record.counts;
    let mut harness_log = DegradationLog::new();
    let mut checkpoint: Option<String> = None;
    let (mut ctrl_hits, mut ctrl_misses) = (0, 0);

    for k in 1..=intervals {
        reference.maybe_slice();
        let t = (k as f64 * interval).min(duration);
        if timed(&mut record.run_until_s, || sim.run_until(t)).is_err() {
            break;
        }
        let Some(observed) = timed(&mut record.observe_s, || sim.observe_interval(k - 1)) else {
            break;
        };
        if timed(&mut record.observe_s, || sim.controller_crash_at(k, t)) {
            add_stats(
                &mut ctrl_hits,
                &mut ctrl_misses,
                controller.capacity_cache_stats(),
            );
            let start = Instant::now();
            let restored = checkpoint
                .as_deref()
                .and_then(|text| ControllerSnapshot::decode(text).ok())
                .and_then(|snapshot| {
                    Chamulteon::restore(spec.model.clone(), ChamulteonConfig::default(), &snapshot)
                        .ok()
                });
            controller = match restored {
                Some(mut restored) => {
                    restored.set_obs(obs.clone());
                    counts.restores_warm += 1;
                    restored
                }
                None => {
                    checkpoint = None;
                    new_controller(case.kind, &spec.model, obs)
                }
            };
            record.restore_s += start.elapsed().as_secs_f64();
            counts.restores += 1;
        }
        let provisioned: Vec<u32> = timed(&mut record.observe_s, || {
            (0..services).map(|s| sim.provisioned(s)).collect()
        });
        let observations: Vec<Observation> = observed
            .iter()
            .zip(&provisioned)
            .map(|(o, &n)| observation_from(o.as_ref(), n))
            .collect();
        let start = Instant::now();
        let targets = controller.tick_observed(t, &observations);
        let tick = start.elapsed().as_secs_f64();
        record.tick_s += tick;
        record.tick_ms.push(tick * 1e3);
        counts.cycles += 1;
        drain_events(ring, counts);

        // Retries may not cross into the next scaling interval.
        let deadline = ((k + 1) as f64 * interval - 1e-6).min(duration).max(t);
        let mut clock = t;
        for (s, &target) in targets.iter().enumerate() {
            let mut attempt = 0u32;
            loop {
                counts.actuations += 1;
                match timed(&mut record.actuate_s, || sim.scale_to(s, target)) {
                    Ok(()) => break,
                    Err(_) if attempt + 1 < retry.max_attempts && clock < deadline => {
                        counts.actuation_errors += 1;
                        harness_log.record(
                            clock,
                            DegradationReason::ActuationRetried {
                                service: s,
                                attempt,
                            },
                        );
                        clock = (clock + retry.backoff(attempt).max(0.0)).min(deadline);
                        if timed(&mut record.run_until_s, || sim.run_until(clock)).is_err() {
                            break;
                        }
                        attempt += 1;
                    }
                    Err(_) => {
                        counts.actuation_errors += 1;
                        harness_log
                            .record(clock, DegradationReason::ActuationAbandoned { service: s });
                        break;
                    }
                }
            }
        }
        let every = case.recovery.checkpoint_every();
        if every > 0 && k % every == 0 {
            let text = timed(&mut record.snapshot_s, || controller.snapshot().encode());
            counts.snapshot_bytes += text.len() as u64;
            checkpoint = Some(text);
        }
        record.held_heap_bytes_sum += heap::held() as u64;
    }
    let _ = timed(&mut record.run_until_s, || sim.run_until(duration));
    let billed = controller.billed_instance_seconds(duration);
    let mut degradation = controller.take_degradation();
    degradation.merge(harness_log);
    counts.degradations += degradation.len() as u64;
    add_stats(
        &mut ctrl_hits,
        &mut ctrl_misses,
        controller.capacity_cache_stats(),
    );
    counts.controller_cache_hits += ctrl_hits;
    counts.controller_cache_misses += ctrl_misses;
    let result = timed(&mut record.finish_s, || sim.finish());

    let cache = CapacityCache::new();
    let report = timed(&mut record.score_s, || {
        score(spec, case.kind, &result, &cache)
    });
    let counts = &mut record.counts;
    add_stats(
        &mut counts.scoring_cache_hits,
        &mut counts.scoring_cache_misses,
        cache.stats(),
    );
    counts.experiments += 1;
    counts.requests += result.sent_per_second.iter().sum::<u64>();
    counts.faults_injected += result.fault_log.len() as u64;
    counts.slo_violation_pct_sum += report.slo_violations;
    counts.apdex_pct_sum += report.apdex;
    counts.instance_hours += report.instance_hours;
    counts.billed_instance_s += billed.unwrap_or(0.0);
    TraceOutput {
        result,
        report,
        billed_instance_seconds: billed,
        degradation,
    }
}

/// Scores a finished experiment exactly as the repository's runner does.
fn score(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    result: &SimulationResult,
    cache: &CapacityCache,
) -> ScalerReport {
    let services = spec.model.services();
    let nominal: Vec<f64> = services.iter().map(|s| s.nominal_demand()).collect();
    let max_instances = services
        .iter()
        .map(|s| s.max_instances())
        .max()
        .unwrap_or(200);
    let demand = demand_curves_with_cache(
        cache,
        &spec.trace,
        &nominal,
        &spec.model.visit_ratios(),
        spec.slo.response_time_target,
        max_instances,
    );
    let horizon = spec.trace.duration();
    let supplies: Vec<StepFn> = result
        .supply
        .iter()
        .map(|timeline| StepFn::new(timeline.iter().map(|c| (c.time, c.running)).collect()))
        .collect();
    ScalerReport {
        scaler: kind.name().to_owned(),
        per_service: supplies
            .iter()
            .zip(&demand)
            .map(|(supply, demand)| elasticity_metrics(demand, supply, horizon))
            .collect(),
        slo_violations: result.slo_violation_percent(),
        apdex: result.apdex_percent(),
        instance_hours: supplies
            .iter()
            .map(|s| instance_seconds(s, horizon))
            .sum::<f64>()
            / 3600.0,
        adaptations_per_hour: supplies
            .iter()
            .map(|s| adaptation_rate_per_hour(s, horizon))
            .sum(),
    }
}

/// The graph-cycles loop built up to its first cycle.
struct BuiltGraph {
    model: ApplicationModel,
    trace: LoadTrace,
    controller: Chamulteon,
    targets: Vec<u32>,
}

/// Set-up of graph-cycles run `i`: a Wikipedia-like day compressed to
/// [`GRAPH_CYCLES`] intervals, the scale-free model, initial placement
/// and a controller preloaded with two days of history.
fn build_graph(seed: u64, i: usize, obs: &Obs, times: &mut SetupTimes) -> BuiltGraph {
    let stream = 2 * i as u64;
    let trace = timed(&mut times.trace, || {
        wikipedia_like(derive_seed(seed, stream), SOURCE_STEP, SOURCE_DAY)
            .compress_to(GRAPH_CYCLES as f64 * GRAPH_INTERVAL)
            .scale_to_peak(GRAPH_PEAK_RATE)
    });
    // A generated scale-free graph is acyclic by construction, so the
    // model always builds.
    let model = timed(&mut times.perfmodel, || {
        topology::model(
            TopologyFamily::ScaleFree,
            GRAPH_SERVICES,
            derive_seed(seed, stream + 1),
        )
        .expect("generated topology is valid")
    });
    // No simulator here: the initial placement counts as controller set-up.
    let targets = timed(&mut times.core, || {
        let rate0 = trace.rate_at(0.0);
        model
            .services()
            .iter()
            .zip(model.visit_ratios())
            .map(|(service, visits)| {
                min_instances_for_utilization(rate0 * visits, service.nominal_demand(), 0.6)
                    .clamp(service.min_instances(), service.max_instances())
            })
            .collect()
    });
    let controller = timed(&mut times.core, || {
        let mut controller = new_controller(ScalerKind::Chamulteon, &model, obs);
        if let Ok(day) = trace.resample(GRAPH_INTERVAL) {
            let rates: Vec<f64> = (0..2).flat_map(|_| day.rates().iter().copied()).collect();
            controller.preload_history(GRAPH_INTERVAL, &rates);
        }
        controller
    });
    BuiltGraph {
        model,
        trace,
        controller,
        targets,
    }
}

/// The graph-cycles closed loop: each cycle's samples come from the
/// trace's entry rate and the previous cycle's targets. Returns every
/// cycle's targets, or the first out-of-limits target as an error.
fn drive_graph(
    built: BuiltGraph,
    ring: Option<&RingRecorder>,
    reference: &mut Reference,
    record: &mut PassRecord,
) -> Result<Vec<Vec<u32>>, String> {
    let BuiltGraph {
        model,
        trace,
        mut controller,
        mut targets,
    } = built;
    let visits = model.visit_ratios();
    let mut history = Vec::with_capacity(GRAPH_CYCLES);
    for k in 1..=GRAPH_CYCLES {
        reference.maybe_slice();
        let t = k as f64 * GRAPH_INTERVAL;
        let rate = trace.rate_at(t - GRAPH_INTERVAL);
        let samples: Vec<MonitoringSample> = model
            .services()
            .iter()
            .zip(&visits)
            .zip(&targets)
            .map(|((service, &v), &n)| {
                let lambda = rate * v;
                let utilization = (lambda * service.nominal_demand() / f64::from(n)).min(1.0);
                let arrivals = (lambda * GRAPH_INTERVAL).round() as u64;
                MonitoringSample::new(GRAPH_INTERVAL, arrivals, utilization, n, None)
                    .map_err(|e| format!("cycle {k}: invalid sample: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let start = Instant::now();
        let next = controller.tick(t, &samples);
        let tick = start.elapsed().as_secs_f64();
        record.tick_s += tick;
        record.tick_ms.push(tick * 1e3);
        record.counts.cycles += 1;
        drain_events(ring, &mut record.counts);
        for (s, (&target, service)) in next.iter().zip(model.services()).enumerate() {
            if target < service.min_instances() || target > service.max_instances() {
                return Err(format!(
                    "cycle {k}: service {s} target {target} outside [{}, {}]",
                    service.min_instances(),
                    service.max_instances()
                ));
            }
        }
        targets.clone_from(&next);
        history.push(next);
        record.held_heap_bytes_sum += heap::held() as u64;
    }
    let counts = &mut record.counts;
    counts.experiments += 1;
    counts.degradations += controller.degradation().len() as u64;
    add_stats(
        &mut counts.controller_cache_hits,
        &mut counts.controller_cache_misses,
        controller.capacity_cache_stats(),
    );
    Ok(history)
}

/// Runs one pass of `workload` on `seed`. With `traced`, the controller
/// carries `Obs::recording`, and the record holds its phase histograms,
/// decision counters and forecast events.
///
/// # Errors
///
/// A description of the first graph-cycles target outside its service's
/// instance limits.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<(PassRecord, PassOutputs), String> {
    let (obs, ring) = if traced {
        let (obs, ring) = Obs::recording(RING_CAPACITY);
        (obs, Some(ring))
    } else {
        (Obs::disabled(), None)
    };
    let ring = ring.as_deref();
    heap::reset();
    let mut record = PassRecord::default();
    let mut reference = Reference::new();
    let outputs = if workload == Workload::GraphCycles {
        let mut history = Vec::with_capacity(GRAPH_RUNS * GRAPH_CYCLES);
        for i in 0..GRAPH_RUNS {
            reference.slice();
            let (built, setup) =
                repeat_setup(&mut record, |times| build_graph(seed, i, &obs, times));
            let start = Instant::now();
            history.extend(drive_graph(built, ring, &mut reference, &mut record)?);
            let elapsed = start.elapsed().as_secs_f64();
            record.add_experiment(setup, elapsed, reference.take());
        }
        PassOutputs::Graph(history)
    } else {
        let mut outputs = Vec::with_capacity(workload.experiments());
        for i in 0..workload.experiments() {
            reference.slice();
            let (built, setup) = repeat_setup(&mut record, |times| {
                build_trace(workload, seed, i, &obs, times)
            });
            let Some(built) = built else {
                continue;
            };
            let start = Instant::now();
            outputs.push(drive_trace(built, &obs, ring, &mut reference, &mut record));
            let elapsed = start.elapsed().as_secs_f64();
            record.add_experiment(setup, elapsed, reference.take());
        }
        PassOutputs::Trace(outputs)
    };
    if let Some(ring) = ring {
        drain_events(Some(ring), &mut record.counts);
        record.counts.events += ring.dropped();
    }
    read_registry(&obs, &mut record);
    record.peak_heap_bytes = heap::peak() as u64;
    Ok((record, outputs))
}
