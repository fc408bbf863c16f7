//! `train_lenet`: `train_batched` on LeNet over synthetic 3×32×32 inputs,
//! batch 16, two worker threads. The only stage that runs the backward
//! pass: the same GEMM layer as serving, with transposed operands, gradient
//! writes and weight updates.

use crate::report::{Digest, Report};
use crate::stats::{median, percentile, secs_since};
use crate::trace::Tracer;
use crate::{BenchResult, Scale};
use ie_energy::fork_seed;
use ie_nn::dataset::{Sample, SyntheticDataset};
use ie_nn::spec::MultiExitArchitecture;
use ie_nn::train::{evaluate_batched, train_batched, BatchBackwardPlan, EpochStats, TrainConfig};
use ie_nn::{BackwardPlan, MultiExitNetwork};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub const THREADS: usize = 2;
pub const BATCH: usize = 16;
/// Classes of the synthetic patterns (the generator defines six).
const CLASSES: usize = 6;
/// Standard deviation of the Gaussian noise added to every pattern.
const NOISE_STD: f32 = 3.0;
/// Samples of the 1-versus-2-thread trajectory check.
const CHECK_SAMPLES: usize = 64;

pub struct TrainInputs {
    pub arch: MultiExitArchitecture,
    pub train: Vec<Sample>,
    pub test: Vec<Sample>,
    pub init_seed: u64,
    pub config: TrainConfig,
    pub plan: BatchBackwardPlan,
}

/// Widens a 1×32×32 pattern to three channels with distinct gains, so every
/// input channel carries the class signal.
fn three_channels(sample: &Sample) -> BenchResult<Sample> {
    let plane = sample.image.as_slice();
    let mut data = Vec::with_capacity(3 * plane.len());
    for gain in [1.0f32, 0.75, 0.5] {
        data.extend(plane.iter().map(|v| v * gain));
    }
    let side = sample.image.dims()[1];
    Ok(Sample { image: Tensor::from_vec(data, &[3, side, side])?, label: sample.label })
}

impl TrainInputs {
    pub fn new(seed: u64, scale: Scale) -> BenchResult<Self> {
        // One epoch, inputs with heavy noise: the loss after one epoch moves
        // little from seed to seed, which keeps `train_final_loss` steady
        // across seeds while staying bit-exact for each.
        let (total, epochs) = match scale {
            Scale::Full => (640, 1),
            Scale::Probe => (400, 1),
        };
        let arch = ie_nn::spec::lenet_multi_exit();
        let side = arch.input_dims()[1];
        let data =
            SyntheticDataset::generate(CLASSES, side, total, NOISE_STD, fork_seed(seed, &[4, 1]));
        let train = data.train().iter().map(three_channels).collect::<BenchResult<Vec<_>>>()?;
        let test = data.test().iter().map(three_channels).collect::<BenchResult<Vec<_>>>()?;
        let mut config = TrainConfig::for_exits(arch.num_exits());
        config.epochs = epochs;
        config.batch_size = BATCH;
        let mut inputs = TrainInputs {
            arch,
            train,
            test,
            init_seed: fork_seed(seed, &[4, 2]),
            config,
            plan: BatchBackwardPlan::new(),
        };
        // Warm-up: one step builds and sizes the per-worker plans and stores.
        let mut net = inputs.fresh_network()?;
        let lr = inputs.config.learning_rate;
        let weights = inputs.config.exit_weights.clone();
        inputs.plan.train_step(&mut net, &inputs.train[..BATCH], &weights, lr, THREADS)?;
        Ok(inputs)
    }

    fn fresh_network(&self) -> BenchResult<MultiExitNetwork> {
        let mut rng = StdRng::seed_from_u64(self.init_seed);
        Ok(MultiExitNetwork::from_architecture(&self.arch, &mut rng)?)
    }
}

fn trajectory_digest(history: &[EpochStats]) -> u64 {
    let mut d = Digest::default();
    for e in history {
        d.word(u64::from(e.mean_loss.to_bits()));
        for a in &e.exit_accuracy {
            d.word(u64::from(a.to_bits()));
        }
    }
    d.0
}

/// The stage's training passes, taken one at a time between the other
/// stages'. Every pass trains a fresh network from the same seed.
pub struct TrainStage {
    inputs: TrainInputs,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    histories: Vec<Vec<EpochStats>>,
}

impl TrainStage {
    pub fn new(inputs: TrainInputs) -> Self {
        TrainStage { inputs, untraced: Vec::new(), traced: Vec::new(), histories: Vec::new() }
    }

    pub fn inputs(&self) -> &TrainInputs {
        &self.inputs
    }

    fn samples_per_pass(&self) -> f64 {
        (self.inputs.config.epochs * self.inputs.train.len()) as f64
    }

    /// One training pass; it counts as traced when the tracer is recording.
    pub fn step(&mut self, tr: &mut Tracer) -> BenchResult<()> {
        let mut net = self.inputs.fresh_network()?;
        let inputs = &mut self.inputs;
        let t0 = Instant::now();
        let history = tr.span("ie_nn.train_batched", self.histories.len() as u64, |_| {
            train_batched(
                &mut net,
                &inputs.train,
                &inputs.test,
                &inputs.config,
                THREADS,
                &mut inputs.plan,
            )
        })?;
        let rate = self.samples_per_pass() / secs_since(t0);
        if tr.enabled() { &mut self.traced } else { &mut self.untraced }.push(rate);
        self.histories.push(history);
        Ok(())
    }

    /// Output checks and metrics; per-layer ones when `traced_run`.
    pub fn finish(
        mut self,
        tr: &mut Tracer,
        traced_run: bool,
        report: &mut Report,
    ) -> BenchResult<()> {
        let samples_per_pass = self.samples_per_pass();
        let TrainStage { inputs, untraced, traced, histories } = &mut self;
        report.attempted += histories.len() as u64;
        report.samples("train_samples_per_s", untraced);
        let first = &histories[0];
        let digest = trajectory_digest(first);
        report.check(
            "train.repeatable",
            histories.iter().all(|h| trajectory_digest(h) == digest),
            format!("{} passes give one loss trajectory (digest {digest:#018x})", histories.len()),
        );
        let mut short = inputs.config.clone();
        short.epochs = 2;
        let subset = &inputs.train[..CHECK_SAMPLES];
        let mut by_threads = Vec::new();
        for threads in [1, THREADS] {
            let mut net = inputs.fresh_network()?;
            let mut plan = BatchBackwardPlan::new();
            let history =
                train_batched(&mut net, subset, &inputs.test, &short, threads, &mut plan)?;
            by_threads.push(trajectory_digest(&history));
        }
        report.check(
            "train.thread_invariant",
            by_threads[0] == by_threads[1],
            format!("{CHECK_SAMPLES} samples x 2 epochs: loss trajectory bit-identical at 1 and {THREADS} threads"),
        );

        let final_loss = first.last().map_or(f64::NAN, |e| f64::from(e.mean_loss));
        report.e2e("train_samples_per_s", median(untraced), "1/s");
        report.e2e("train_final_loss", final_loss, "nats");
        let steps_per_epoch = inputs.train.len().div_ceil(BATCH);
        report.count("train.samples_per_pass", samples_per_pass as u64, "counted");
        report.count(
            "train.steps_per_pass",
            (steps_per_epoch * inputs.config.epochs) as u64,
            "counted",
        );
        let traffic = BackwardPlan::for_architecture(&inputs.arch).traffic_bytes();
        report.count("train.traffic_bytes_per_sample", traffic, "computed");

        if traced_run {
            report.layer(
                "trace.overhead.train_samples_per_s",
                median(untraced) / median(traced),
                "ratio",
            );
            layer_probes(inputs, traffic, tr, report)?;
        }
        Ok(())
    }
}

/// Per-layer timings: one training step at 2 and at 1 thread, the batched
/// forward half, and the held-out evaluation.
fn layer_probes(
    inputs: &mut TrainInputs,
    traffic: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> BenchResult<()> {
    tr.set_enabled(true);
    let lr = inputs.config.learning_rate;
    let weights = inputs.config.exit_weights.clone();
    let mut step_times = Vec::new();
    for threads in [THREADS, 1] {
        let name = if threads == 1 { "ie_nn.train_step_1t" } else { "ie_nn.train_step" };
        let mut net = inputs.fresh_network()?;
        for (i, batch) in inputs.train.chunks_exact(BATCH).enumerate() {
            let plan = &mut inputs.plan;
            tr.span(name, i as u64, |_| plan.train_step(&mut net, batch, &weights, lr, threads))?;
        }
        step_times.push(tr.durations_s(name));
    }
    let step = percentile(&step_times[0], 0.5);
    report.layer("ie_nn.train_step_ms.p50", step * 1e3, "ms");
    report.layer("ie_nn.train_step_ms.p99", percentile(&step_times[0], 0.99) * 1e3, "ms");
    report.layer("ie_nn.thread_speedup", percentile(&step_times[1], 0.5) / step, "ratio");
    report.layer("ie_nn.traffic_gbps", traffic as f64 * BATCH as f64 / step / 1e9, "GB/s");

    let net = inputs.fresh_network()?;
    let mut plan = net.batch_plan(BATCH);
    let batch: Vec<&Tensor> = inputs.train[..BATCH].iter().map(|s| &s.image).collect();
    for i in 0..30 {
        tr.span("ie_nn.forward_b16", i, |_| net.forward_all_batch_with(&mut plan, &batch, |_| ()))?;
    }
    let forward = percentile(&tr.durations_s("ie_nn.forward_b16"), 0.5);
    report.layer("ie_nn.forward_b16_ms", forward * 1e3, "ms");
    report.layer("ie_nn.backward_share", 1.0 - forward / step, "ratio");
    for i in 0..5 {
        tr.span("ie_nn.evaluate", i, |_| evaluate_batched(&net, &inputs.test, BATCH, THREADS))?;
    }
    report.layer(
        "ie_nn.evaluate_ms",
        percentile(&tr.durations_s("ie_nn.evaluate"), 0.5) * 1e3,
        "ms",
    );
    tr.set_enabled(false);
    Ok(())
}
