//! `serve_lenet`: a live open loop through `Server::run_live`.
//!
//! One generator thread (the caller of `run_live`) submits requests on a
//! fixed schedule, regardless of how fast the server answers. The server
//! runs the LeNet multi-exit net in f32 with one worker, a window of 8 and a
//! 1 ms deadline, over an unbounded queue without chaos. Each request's
//! budget comes from one of three classes that the fixed cost table maps to
//! exits 1, 2 and 3; every budget is meetable at the nominal rate.
//!
//! `LiveHandle` exposes no per-request completion time, so the latency
//! percentiles are the `ServeReport`'s (submit to completion) and the
//! generator's own lateness against each request's due time is reported
//! next to them. A growing backlog is read from the drain: how long the
//! server keeps working after the last submission of a step, which is the
//! queue wait at the end of the step's last quarter. When that drain is
//! longer than a few window deadlines, the step's first quarter is run on
//! its own at the same rate and its drain — the wait at the end of the first
//! quarter — is the reference: a queue that keeps growing leaves a drain
//! several times longer at the end than after the first quarter.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{BenchResult, Scale};
use ie_energy::fork_seed;
use ie_nn::train::BatchPlanPool;
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{ServeConfig, ServeReport, Server, Verdict, WindowConfig};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Worker threads of the server.
pub const WORKERS: usize = 1;
/// Batching window: close at this many requests ...
pub const WINDOW: usize = 8;
/// ... or when the oldest request has waited this long.
pub const DEADLINE_S: f64 = 1e-3;
/// Fixed per-exit cost table of the admission LUT (seconds). Admission maps
/// each budget class below onto one exit through it.
pub const EXIT_COST_S: [f64; 3] = [4e-3, 8e-3, 16e-3];
/// Budget of each request class (seconds); class `k` is admitted to exit
/// `k`, checked at set-up.
pub const CLASS_BUDGET_S: [f64; 3] = [6e-3, 10e-3, 16.5e-3];
/// The nominal open-loop rate, about half of the measured capacity.
pub const NOMINAL_RPS: f64 = 1800.0;
/// The fixed rate ladder: `NOMINAL_RPS · LADDER_STEP^k` for `k` in
/// `LADDER_RUNGS`; it straddles the knee.
pub const LADDER_STEP: f64 = 1.04;
pub const LADDER_RUNGS: std::ops::RangeInclusive<i32> = -8..=48;
/// A step holds when at least this share of requests met its budget ...
pub const OK_TARGET: f64 = 0.95;
/// ... the generator kept to its schedule — its p95 lateness stayed below
/// this multiple of the inter-arrival gap, otherwise the offered load was not
/// the rung's and the step is invalid ...
pub const LATE_GAPS: f64 = 1.0;
/// ... and the end-of-step queue wait (the drain) stayed below this multiple
/// of the first quarter's drain plus one window deadline. Drains shorter
/// than `GROWTH_MIN_DRAIN_S` never count as growth.
pub const GROWTH_FACTOR: f64 = 2.0;
pub const GROWTH_MIN_DRAIN_S: f64 = 3.0 * DEADLINE_S;
/// Distinct input images the requests draw from.
const IMAGES: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct ServeSize {
    /// Length of one sub-run at the nominal rate: 1,008 requests, so its
    /// p99 has ten samples beyond it, and as short as that allows, so more
    /// sub-runs escape the host's stalls.
    pub nominal_s: f64,
    /// Length of one ladder step.
    pub ladder_s: f64,
}

impl ServeSize {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => ServeSize { nominal_s: 0.56, ladder_s: 0.6 },
            Scale::Probe => ServeSize { nominal_s: 0.56, ladder_s: 0.4 },
        }
    }
}

pub struct ServeInputs {
    pub network: MultiExitNetwork,
    pub images: Vec<Tensor>,
    pub pool: BatchPlanPool,
    pub seed: u64,
    pub size: ServeSize,
}

pub fn admission() -> BenchResult<LatencyAdmission> {
    Ok(LatencyAdmission::static_lut(
        EXIT_COST_S.to_vec(),
        vec![0.6, 0.7, 0.8],
        StateDiscretizer::paper_default(),
    )?)
}

impl ServeInputs {
    /// LeNet with seeded weights, seeded input images, and one warmed plan.
    pub fn new(seed: u64, scale: Scale) -> BenchResult<Self> {
        let arch = ie_nn::spec::lenet_multi_exit();
        let mut rng = StdRng::seed_from_u64(fork_seed(seed, &[2, 1]));
        let network = MultiExitNetwork::from_architecture(&arch, &mut rng)?;
        let dims = arch.input_dims();
        let images = (0..IMAGES).map(|_| Tensor::randn(&mut rng, &dims, 0.0, 1.0)).collect();
        let mut inputs = ServeInputs {
            network,
            images,
            pool: BatchPlanPool::new(),
            seed,
            size: ServeSize::for_scale(scale),
        };
        inputs.warm_up()?;
        Ok(inputs)
    }

    fn warm_up(&mut self) -> BenchResult<()> {
        let mut plan = self.pool.take(&self.network, WINDOW);
        let batch: Vec<&Tensor> = self.images.iter().take(WINDOW).collect();
        for exit in 0..self.network.num_exits() {
            self.network.forward_to_exit_batch_with(&mut plan, &batch, exit)?;
        }
        self.pool.put(plan);
        Ok(())
    }
}

/// One open-loop step at a fixed rate.
pub struct StepResult {
    pub rate: f64,
    pub sent: usize,
    pub report: ServeReport,
    pub wall_s: f64,
    pub drain_s: f64,
    pub lateness_s: Vec<f64>,
    /// (request id, image index, class) of every request.
    pub plan: Vec<(u64, usize, usize)>,
    pub responses: Vec<ie_serve::Response>,
}

impl StepResult {
    pub fn ok_ratio(&self) -> f64 {
        self.report.deadline_met as f64 / self.sent.max(1) as f64
    }

    fn valid(&self) -> bool {
        percentile(&self.lateness_s, 0.95) <= LATE_GAPS / self.rate
    }

    /// Whether the queue grew over the step, given the same-rate run of
    /// its first quarter.
    fn grew_since(&self, first_quarter: &StepResult) -> bool {
        self.drain_s > GROWTH_FACTOR * first_quarter.drain_s + DEADLINE_S
    }
}

/// Sleeps until shortly before `due`, then spins, so submissions land on
/// schedule without a sleep's wake-up jitter.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one step of `duration_s` at `rate` requests per second.
pub fn run_step(
    inputs: &mut ServeInputs,
    rate: f64,
    duration_s: f64,
    step_key: u64,
    tr: &mut Tracer,
) -> BenchResult<StepResult> {
    let n = (rate * duration_s).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(fork_seed(inputs.seed, &[2, 2, step_key]));
    let plan: Vec<(u64, usize, usize)> = (0..n)
        .map(|i| (i as u64, rng.gen_range(0..inputs.images.len()), rng.gen_range(0..3)))
        .collect();
    let mut admission = admission()?;
    let config =
        ServeConfig::new(WindowConfig { max_batch: WINDOW, deadline_s: DEADLINE_S }, WORKERS);
    let network = &inputs.network;
    let images = &inputs.images;
    let mut server = Server::new(network, config, &mut inputs.pool)?;
    let mut lateness_s = Vec::with_capacity(n);
    let mut submit_error = None;
    let mut last_submit = Instant::now();
    let gap = Duration::from_secs_f64(1.0 / rate);
    let started = Instant::now();
    let outcome = server.run_live(&mut admission, |handle| {
        // A short lead lets the worker reach its wait before the first due time.
        let t0 = Instant::now() + Duration::from_millis(2);
        for (i, &(id, image, class)) in plan.iter().enumerate() {
            let input = images[image].clone();
            let due = t0 + gap * i as u32;
            wait_until(due);
            let s0 = Instant::now();
            lateness_s.push((s0 - due).as_secs_f64());
            let span = tr.begin("ie_serve.submit", id);
            let result = handle.submit(id, CLASS_BUDGET_S[class], input);
            tr.end(span);
            if let Err(e) = result {
                submit_error = Some(e);
                break;
            }
        }
        last_submit = Instant::now();
    })?;
    let done = Instant::now();
    if let Some(e) = submit_error {
        return Err(e.into());
    }
    for p in server.into_plans() {
        inputs.pool.put(p);
    }
    Ok(StepResult {
        rate,
        sent: n,
        report: outcome.report,
        wall_s: (done - started).as_secs_f64(),
        drain_s: (done - last_submit).as_secs_f64(),
        lateness_s,
        plan,
        responses: outcome.responses,
    })
}

/// Re-runs a served sample through the single-input path and compares the
/// prediction and confidence bit for bit.
fn check_sample(inputs: &ServeInputs, step: &StepResult, report: &mut Report) -> BenchResult<()> {
    let mut checked = 0;
    let mut mismatches = 0;
    let stride = (step.responses.len() / 32).max(1);
    for response in step.responses.iter().step_by(stride) {
        let Verdict::Served { exit, prediction, confidence } = response.verdict else { continue };
        let (_, image, class) = step.plan[response.id as usize];
        let (out, _) = inputs.network.forward_to_exit(&inputs.images[image], exit)?;
        checked += 1;
        if exit != class
            || out.prediction != prediction
            || out.confidence.to_bits() != confidence.to_bits()
        {
            mismatches += 1;
        }
    }
    report.check(
        "serve.responses_match_forward_to_exit",
        checked > 0 && mismatches == 0,
        format!("{checked} sampled responses, {mismatches} differ from forward_to_exit or their class exit"),
    );
    Ok(())
}

fn ladder_rate(rung: i32) -> f64 {
    NOMINAL_RPS * LADDER_STEP.powi(rung)
}

/// A rung's verdict is the majority of `RUNG_VOTES` valid attempts (it
/// holds after `RUNG_VOTES / 2 + 1` that hold, fails after as many that do
/// not). The attempts of one rung fall in different rounds, seconds apart,
/// so the verdict reads the server's typical capacity over the run rather
/// than one spell in which the machine was busy or idle. An attempt whose
/// generator fell behind its schedule is not a vote; after `RUNG_VOTES` of
/// those it counts as a miss.
pub const RUNG_VOTES: usize = 3;

/// Binary search over the ladder's rungs for the highest one that holds.
/// Invariant: rung `lo` holds (or lies below the ladder) and rung `hi`
/// fails (or lies above it); the search starts at nominal.
struct Ladder {
    lo: i32,
    hi: i32,
    next: i32,
    /// Votes of rung `next` so far, and its invalid attempts.
    holds: usize,
    misses: usize,
    invalid_here: usize,
    steps_run: usize,
    invalid: usize,
}

impl Ladder {
    fn new() -> Self {
        Ladder {
            lo: *LADDER_RUNGS.start() - 1,
            hi: *LADDER_RUNGS.end() + 1,
            next: 0,
            holds: 0,
            misses: 0,
            invalid_here: 0,
            steps_run: 0,
            invalid: 0,
        }
    }

    fn done(&self) -> bool {
        self.hi - self.lo <= 1
    }

    /// Runs one step at the rung's rate: `Some(holds)` — enough requests
    /// met their budget and the queue did not grow — or `None` when the
    /// generator fell behind its schedule.
    fn attempt(
        &mut self,
        inputs: &mut ServeInputs,
        rung: i32,
        key: u64,
        tr: &mut Tracer,
    ) -> BenchResult<Option<bool>> {
        let rate = ladder_rate(rung);
        let size = inputs.size;
        let step = run_step(inputs, rate, size.ladder_s, key, tr)?;
        self.steps_run += 1;
        if !step.valid() {
            self.invalid += 1;
        }
        let mut holds = step.ok_ratio() >= OK_TARGET && step.report.conservation_holds();
        let mut quarter_drain = f64::NAN;
        if holds && step.drain_s > GROWTH_MIN_DRAIN_S {
            let quarter = run_step(inputs, rate, size.ladder_s / 4.0, key + 100_000, tr)?;
            self.steps_run += 1;
            quarter_drain = quarter.drain_s;
            holds = !step.grew_since(&quarter);
        }
        println!(
            "# serve ladder {:.0} rps: ok {:.4}, p50 {:.3} ms, p99 {:.3} ms, drain {:.2} ms \
             (first quarter {:.2} ms), late p99 {:.1} us -> {}",
            rate,
            step.ok_ratio(),
            step.report.latency_p50_s * 1e3,
            step.report.latency_p99_s * 1e3,
            step.drain_s * 1e3,
            quarter_drain * 1e3,
            percentile(&step.lateness_s, 0.99) * 1e6,
            if !step.valid() {
                "invalid"
            } else if holds {
                "holds"
            } else {
                "fails"
            }
        );
        Ok(step.valid().then_some(holds))
    }

    /// One attempt at the current rung; the search moves on once the rung
    /// has a majority verdict.
    fn probe(&mut self, inputs: &mut ServeInputs, tr: &mut Tracer) -> BenchResult<()> {
        if self.done() {
            return Ok(());
        }
        let rung = self.next;
        let tries = self.holds + self.misses + self.invalid_here;
        let key = 1000 + 10 * (rung - *LADDER_RUNGS.start()) as u64 + tries as u64;
        match self.attempt(inputs, rung, key, tr)? {
            Some(true) => self.holds += 1,
            Some(false) => self.misses += 1,
            None if self.invalid_here < RUNG_VOTES => self.invalid_here += 1,
            None => self.misses += 1,
        }
        let majority = RUNG_VOTES / 2 + 1;
        if self.holds >= majority {
            self.lo = rung;
        } else if self.misses >= majority {
            self.hi = rung;
        } else {
            return Ok(());
        }
        self.holds = 0;
        self.misses = 0;
        self.invalid_here = 0;
        self.next = (self.lo + (self.hi - self.lo) / 2).max(self.lo + 1);
        Ok(())
    }

    fn max_rps(&self) -> f64 {
        if self.lo < *LADDER_RUNGS.start() {
            // Not even the lowest rung holds: report half of it.
            0.5 * ladder_rate(*LADDER_RUNGS.start())
        } else {
            ladder_rate(self.lo)
        }
    }
}

/// The stage's open-loop steps, taken one nominal sub-run and one ladder
/// rung at a time between the other stages' work.
pub struct ServeStage {
    inputs: ServeInputs,
    nominal: Vec<StepResult>,
    traced: Vec<StepResult>,
    nominal_invalid: usize,
    ladder: Ladder,
}

impl ServeStage {
    pub fn new(inputs: ServeInputs) -> Self {
        ServeStage {
            inputs,
            nominal: Vec::new(),
            traced: Vec::new(),
            nominal_invalid: 0,
            ladder: Ladder::new(),
        }
    }

    pub fn inputs(&self) -> &ServeInputs {
        &self.inputs
    }

    /// One nominal-rate sub-run (traced when the tracer is recording) and
    /// one ladder rung (never traced).
    pub fn step(&mut self, tr: &mut Tracer) -> BenchResult<()> {
        let key = (self.nominal.len() + self.traced.len()) as u64;
        let length = self.inputs.size.nominal_s;
        let mut step = run_step(&mut self.inputs, NOMINAL_RPS, length, key, tr)?;
        if !step.valid() {
            // The generator itself fell behind: the machine was busy, not
            // the server. Run the same requests again, once.
            self.nominal_invalid += 1;
            step = run_step(&mut self.inputs, NOMINAL_RPS, length, key, tr)?;
        }
        if tr.enabled() { &mut self.traced } else { &mut self.nominal }.push(step);
        let traced = tr.enabled();
        tr.set_enabled(false);
        self.ladder.probe(&mut self.inputs, tr)?;
        tr.set_enabled(traced);
        Ok(())
    }

    /// Finishes the ladder, then the output checks and metrics; per-layer
    /// ones when `traced_run`.
    pub fn finish(
        mut self,
        tr: &mut Tracer,
        traced_run: bool,
        report: &mut Report,
    ) -> BenchResult<()> {
        while !self.ladder.done() {
            self.ladder.probe(&mut self.inputs, tr)?;
        }
        let ServeStage { inputs, nominal, traced, nominal_invalid, ladder } = &self;
        let mut admission_check = admission()?;
        let classes: Vec<Option<usize>> =
            CLASS_BUDGET_S.iter().map(|&b| admission_check.admit(0, b)).collect();
        report.check(
            "serve.budget_classes_map_to_exits",
            classes == [Some(0), Some(1), Some(2)],
            format!("budgets {CLASS_BUDGET_S:?} s admitted to exits {classes:?}"),
        );
        check_sample(inputs, &nominal[0], report)?;
        report.check(
            "serve.conservation",
            nominal
                .iter()
                .chain(traced)
                .all(|s| s.report.conservation_holds() && s.report.submitted == s.sent),
            "served + rejected + shed = submitted = sent, every nominal step",
        );

        let sent: usize = nominal.iter().map(|s| s.sent).sum();
        // The nominal metrics are those of the best sub-run: a shared host at
        // times deschedules a vCPU for several milliseconds, and a sub-run's
        // p99 (its 11th-worst request) and its share of budgets met then read
        // the stall, not the server.
        let best = |f: &dyn Fn(&StepResult) -> f64, steps: &[StepResult]| {
            percentile(&steps.iter().map(f).collect::<Vec<_>>(), 0.0)
        };
        let p50 = |s: &StepResult| s.report.latency_p50_s * 1e3;
        let p99 = |s: &StepResult| s.report.latency_p99_s * 1e3;
        report.samples("serve_p50_ms", &nominal.iter().map(p50).collect::<Vec<_>>());
        report.samples("ie_serve.latency_p99_ms", &nominal.iter().map(p99).collect::<Vec<_>>());
        report.e2e("serve_p50_ms", best(&p50, nominal), "ms");
        // The p99 and the highest holding rate are reported with the layer
        // metrics, without a bound: in a spell of stalls every sub-run's p99
        // reads the stalls and the server's capacity falls by half or more,
        // which moved them by 40-50 % between sets of runs.
        report.layer("ie_serve.latency_p99_ms", best(&p99, nominal), "ms");
        report.layer("ie_serve.max_rps", ladder.max_rps(), "1/s");
        let ok = |s: &StepResult| s.ok_ratio();
        report.samples("serve_ok_ratio", &nominal.iter().map(ok).collect::<Vec<_>>());
        report.e2e(
            "serve_ok_ratio",
            percentile(&nominal.iter().map(ok).collect::<Vec<_>>(), 1.0),
            "ratio",
        );
        let lateness: Vec<f64> =
            nominal.iter().flat_map(|s| s.lateness_s.iter().copied()).collect();
        println!(
            "# serve nominal {NOMINAL_RPS} rps: {} sub-runs of {} requests; generator lateness \
             p50 {:.1} us, p99 {:.1} us, max {:.1} us",
            nominal.len(),
            nominal[0].sent,
            percentile(&lateness, 0.5) * 1e6,
            percentile(&lateness, 0.99) * 1e6,
            percentile(&lateness, 1.0) * 1e6,
        );
        // Every sub-run with the same key sends the same requests, so the
        // first one's counts repeat exactly for the seed.
        report.count("serve.requests_per_subrun", nominal[0].sent as u64, "counted");
        for (e, c) in nominal[0].report.per_exit.iter().enumerate() {
            report.count(&format!("serve.served_exit{}", e + 1), *c as u64, "counted");
        }
        let traced_sent: usize = traced.iter().map(|s| s.sent).sum();
        report.attempted += (sent + traced_sent + ladder.steps_run + nominal_invalid) as u64;

        if traced_run {
            let submits = tr.durations_s("ie_serve.submit");
            report.layer("ie_serve.submit_us.p50", percentile(&submits, 0.5) * 1e6, "us");
            report.layer("ie_serve.submit_us.p99", percentile(&submits, 0.99) * 1e6, "us");
            let med =
                |f: &dyn Fn(&StepResult) -> f64| median(&nominal.iter().map(f).collect::<Vec<_>>());
            report.layer("ie_serve.queue_wait_ms.p50", med(&|s| s.report.wait_p50_s) * 1e3, "ms");
            report.layer("ie_serve.queue_wait_ms.p99", med(&|s| s.report.wait_p99_s) * 1e3, "ms");
            report.layer("ie_serve.batches", med(&|s| s.report.batches as f64), "count");
            report.layer("ie_serve.batch_fill", med(&|s| s.report.mean_batch_fill), "count");
            report.layer("ie_serve.worker_busy", med(&|s| s.report.compute_s / s.wall_s), "ratio");
            report.layer(
                "ie_serve.rejected",
                nominal.iter().map(|s| s.report.rejected as f64).sum(),
                "count",
            );
            report.layer(
                "ie_serve.shed",
                nominal.iter().map(|s| s.report.shed as f64).sum(),
                "count",
            );
            report.layer("ie_serve.generator_late_us.p50", percentile(&lateness, 0.5) * 1e6, "us");
            report.layer("ie_serve.generator_late_us.p99", percentile(&lateness, 0.99) * 1e6, "us");
            report.layer("ie_serve.generator_late_us.max", percentile(&lateness, 1.0) * 1e6, "us");
            report.layer("ie_serve.nominal_runs", nominal.len() as f64, "count");
            report.layer("ie_serve.nominal_invalid_runs", *nominal_invalid as f64, "count");
            report.layer("ie_serve.ladder_steps", ladder.steps_run as f64, "count");
            report.layer("ie_serve.ladder_invalid_steps", ladder.invalid as f64, "count");
            report.layer(
                "trace.overhead.serve_p50_ms",
                best(&p50, traced) / best(&p50, nominal),
                "ratio",
            );

            // Admission alone, in chunks of calls.
            let mut admission = admission()?;
            for chunk in 0..50u64 {
                tr.set_enabled(true);
                tr.span("ie_runtime.admit_x2000", chunk, |_| {
                    for i in 0..2_000u64 {
                        std::hint::black_box(
                            admission.admit(chunk * 2_000 + i, CLASS_BUDGET_S[(i % 3) as usize]),
                        );
                    }
                });
                tr.set_enabled(false);
            }
            let per_call = percentile(&tr.durations_s("ie_runtime.admit_x2000"), 0.5) / 2_000.0;
            report.layer("ie_runtime.admit_ns", per_call * 1e9, "ns");
        }
        Ok(())
    }
}
