//! `fleet_mixed`: `FleetSimulator::run` on the uncompressed reference model
//! with the default `FleetConfig` mix — solar, kinetic and stochastic
//! traces, three policy kinds, a quarter of the devices exposed to faults —
//! over two worker threads.

use crate::report::Report;
use crate::stats::{median, percentile, secs_since};
use crate::trace::Tracer;
use crate::{BenchResult, Scale};
use ie_core::fleet::{DeviceSpec, TraceKind};
use ie_core::{DeployedModel, ExperimentConfig, FleetConfig, FleetReport, FleetSimulator};
use ie_energy::fork_seed;
use std::time::Instant;

/// Worker threads of the fleet run: two, the core count the workloads are
/// sized for.
pub const THREADS: usize = 2;
/// Devices of the 1-versus-2-thread digest check.
const CHECK_DEVICES: u64 = 512;
/// Devices replayed one by one for the per-device timings.
const SAMPLE_DEVICES: u64 = 256;

pub struct FleetInputs {
    pub config: FleetConfig,
    pub model: DeployedModel,
}

impl FleetInputs {
    pub fn new(seed: u64, scale: Scale) -> BenchResult<Self> {
        let devices = match scale {
            Scale::Full => 16_384,
            Scale::Probe => 1_024,
        };
        let mut config = FleetConfig::new(devices, fork_seed(seed, &[3, 1]));
        config.threads = THREADS;
        config.probe_device = Some(fork_seed(seed, &[3, 2]) % devices);
        let model = DeployedModel::uncompressed_reference(&ExperimentConfig::paper_default())?;
        // Warm-up: a small fleet through the same code path.
        let mut warm = config.clone();
        warm.num_devices = 64;
        warm.probe_device = None;
        FleetSimulator::new(&warm).run(&model)?;
        Ok(FleetInputs { config, model })
    }
}

/// The stage's fleet passes, taken one at a time between the other stages'.
pub struct FleetStage {
    inputs: FleetInputs,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    reports: Vec<FleetReport>,
}

impl FleetStage {
    pub fn new(inputs: FleetInputs) -> Self {
        FleetStage { inputs, untraced: Vec::new(), traced: Vec::new(), reports: Vec::new() }
    }

    pub fn inputs(&self) -> &FleetInputs {
        &self.inputs
    }

    /// One fleet pass; it counts as traced when the tracer is recording.
    pub fn step(&mut self, tr: &mut Tracer) -> BenchResult<()> {
        let started = Instant::now();
        let group = self.reports.len() as u64;
        let config = &self.inputs.config;
        let model = &self.inputs.model;
        let fleet =
            tr.span("ie_core.fleet_run", group, |_| FleetSimulator::new(config).run(model))?;
        let rate = fleet.metrics.total_events as f64 / secs_since(started);
        if tr.enabled() { &mut self.traced } else { &mut self.untraced }.push(rate);
        self.reports.push(fleet);
        Ok(())
    }

    /// Output checks and metrics; per-layer ones when `traced_run`.
    pub fn finish(self, tr: &mut Tracer, traced_run: bool, report: &mut Report) -> BenchResult<()> {
        let FleetStage { inputs, untraced, traced, reports } = self;
        finish(&inputs, &untraced, &traced, &reports, tr, traced_run, report)
    }
}

fn finish(
    inputs: &FleetInputs,
    untraced: &[f64],
    traced: &[f64],
    reports: &[FleetReport],
    tr: &mut Tracer,
    traced_run: bool,
    report: &mut Report,
) -> BenchResult<()> {
    let config = &inputs.config;
    report.attempted += reports.len() as u64;
    report.samples("fleet_steps_per_s", untraced);
    let first = &reports[0];
    let m = &first.metrics;

    // Output checks.
    let probe_id = config.probe_device.expect("probe configured");
    let replay = FleetSimulator::new(config).replay_device(&inputs.model, probe_id)?;
    report.check(
        "fleet.probe_matches_replay",
        first.probe == Some(replay),
        format!("device {probe_id}: in-fleet digest equals the isolated replay"),
    );
    report.check(
        "fleet.repeatable",
        reports.iter().all(|r| r == first),
        format!("{} passes give one aggregate (digest xor {:#018x})", reports.len(), m.digest_xor),
    );
    let mut small = config.clone();
    small.num_devices = CHECK_DEVICES;
    small.probe_device = None;
    small.threads = 1;
    let one = FleetSimulator::new(&small).run(&inputs.model)?;
    small.threads = THREADS;
    let two = FleetSimulator::new(&small).run(&inputs.model)?;
    report.check(
        "fleet.thread_invariant",
        one == two,
        format!(
            "{CHECK_DEVICES} devices: the aggregate and digest match at 1 and {THREADS} threads"
        ),
    );

    report.e2e("fleet_steps_per_s", median(untraced), "1/s");
    report.e2e("fleet_accuracy_all_events", m.accuracy_all_events(), "ratio");
    report.count("fleet.devices", m.devices, "counted");
    report.count("fleet.device_steps", m.total_events, "counted");
    report.count("fleet.processed_events", m.processed_events, "counted");

    if traced_run {
        let run_s = median(&tr.durations_s("ie_core.fleet_run"));
        report.layer("ie_core.fleet_run_s", run_s, "s");
        // Overheads are time ratios: traced over untraced time per unit of work.
        report.layer(
            "trace.overhead.fleet_steps_per_s",
            median(untraced) / median(traced),
            "ratio",
        );
        report.layer("ie_core.completion_rate", m.completion_rate(), "ratio");
        report.layer("ie_mcu.recovered_boots", m.recovered_boots as f64, "count");
        report.layer("ie_mcu.torn_writes", m.torn_writes as f64, "count");
        report.layer(
            "ie_mcu.wasted_energy_ratio",
            m.wasted_nj as f64 / (m.consumed_nj + m.wasted_nj).max(1) as f64,
            "ratio",
        );

        // Per-device replay on a fixed, evenly spaced sample of ids.
        tr.set_enabled(true);
        let sim = FleetSimulator::new(config);
        let stride = (config.num_devices / SAMPLE_DEVICES).max(1);
        let mut all = Vec::new();
        let mut by_class: [(&str, Vec<f64>); 5] = [
            ("faulted", Vec::new()),
            ("clean", Vec::new()),
            ("solar", Vec::new()),
            ("kinetic", Vec::new()),
            ("stochastic", Vec::new()),
        ];
        for id in (0..config.num_devices).step_by(stride as usize) {
            let t0 = Instant::now();
            tr.span("ie_core.replay_device", id, |_| sim.replay_device(&inputs.model, id))?;
            let us = secs_since(t0) * 1e6;
            let spec = DeviceSpec::derive(config, id);
            all.push(us);
            by_class[if spec.fault.is_some() { 0 } else { 1 }].1.push(us);
            let kind = match spec.trace_kind {
                TraceKind::Solar => 2,
                TraceKind::Kinetic => 3,
                TraceKind::Stochastic => 4,
            };
            by_class[kind].1.push(us);
        }
        tr.set_enabled(false);
        report.layer("ie_core.device_us.p50", percentile(&all, 0.5), "us");
        report.layer("ie_core.device_us.p99", percentile(&all, 0.99), "us");
        for (class, values) in &by_class {
            report.layer(&format!("ie_core.device_us.{class}"), percentile(values, 0.5), "us");
        }
        let mean_device_s = all.iter().sum::<f64>() * 1e-6 / all.len() as f64;
        report.layer(
            "ie_core.parallel_efficiency",
            mean_device_s * config.num_devices as f64 / (THREADS as f64 * run_s),
            "ratio",
        );
    }
    Ok(())
}
