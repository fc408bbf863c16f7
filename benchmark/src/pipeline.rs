//! `paper_pipeline`: the paper's offline flow, making the same calls as the
//! `figures` binary — the compression study (full precision, best uniform
//! point, reference policy, DDPG search) followed by the system comparison
//! (Q-learning runtime adaptation plus the three baselines).

use crate::report::{Digest, Report};
use crate::stats::{median, percentile, secs_since};
use crate::trace::Tracer;
use crate::{BenchResult, Scale};
use ie_baselines::{BaselineNetwork, BaselineRunner};
use ie_bench::experiments::reference_nonuniform_policy;
use ie_compress::{CalibratedAccuracyModel, CompressionPolicy, LayerPolicy, PolicyEvaluator};
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig, SimulationReport};
use ie_energy::fork_seed;
use ie_rl::{DdpgAgent, DdpgConfig, Transition};
use ie_runtime::{AdaptationConfig, RuntimeAdaptation};
use ie_search::{
    best_uniform_policy, observation_for_layer, CompressionEnv, DdpgCompressionSearch, RewardMode,
    SearchConfig, OBSERVATION_DIM,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Sizes of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSize {
    pub search_episodes: usize,
    pub adaptation_episodes: usize,
    /// Uniform-policy sweep resolution (`figures` uses 10).
    pub uniform_steps: usize,
}

impl PipelineSize {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // The `figures` settings.
            Scale::Full => {
                PipelineSize { search_episodes: 60, adaptation_episodes: 16, uniform_steps: 10 }
            }
            Scale::Probe => {
                PipelineSize { search_episodes: 12, adaptation_episodes: 4, uniform_steps: 4 }
            }
        }
    }
}

/// Environments the system comparison runs over. One 500-event draw swings
/// the all-event accuracy by more than ten percent from seed to seed; four
/// draws average over 2,000 events.
pub const ENVIRONMENTS: u64 = 4;

/// Inputs of the workload, generated from the seed: the paper's default
/// environment with the event, trace and simulation seeds forked from the
/// workload seed (the first one also drives the compression study), plus
/// the search seed.
pub struct PipelineInputs {
    pub configs: Vec<ExperimentConfig>,
    pub search_seed: u64,
    pub size: PipelineSize,
}

impl PipelineInputs {
    pub fn new(seed: u64, scale: Scale) -> BenchResult<Self> {
        let configs = (0..ENVIRONMENTS)
            .map(|env| {
                let mut config = ExperimentConfig::paper_default();
                config.event_seed = fork_seed(seed, &[1, env, 1]);
                config.trace_seed = fork_seed(seed, &[1, env, 2]);
                config.simulation_seed = fork_seed(seed, &[1, env, 3]);
                config.validate().map(|()| config)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PipelineInputs {
            configs,
            search_seed: fork_seed(seed, &[1, 4]),
            size: PipelineSize::for_scale(scale),
        })
    }
}

/// What one pass produced.
struct PassOutcome {
    seconds: f64,
    digest: u64,
    correct_events: usize,
    total_events: usize,
    harvested_mj: f64,
    episodes: usize,
    feasible_episodes: usize,
    simulated_events: u64,
    conserved: bool,
    deployed: DeployedModel,
    nonuniform: CompressionPolicy,
}

fn fold_report(d: &mut Digest, r: &SimulationReport) {
    for v in [r.total_events, r.processed_events, r.missed_events, r.correct_events] {
        d.word(v as u64);
    }
    for &c in &r.exit_counts {
        d.word(c as u64);
    }
    d.float(r.total_harvested_mj);
    d.float(r.total_consumed_mj);
    d.float(r.total_latency_s);
    d.word(r.total_flops);
    for rec in &r.records {
        d.word(u64::from(rec.outcome.is_correct()) << 1 | u64::from(rec.outcome.is_processed()));
        d.float(rec.energy_mj);
        d.float(rec.latency_s);
    }
}

fn conserved(r: &SimulationReport, events: usize) -> bool {
    r.total_events == events && r.processed_events + r.missed_events == r.total_events
}

fn run_pass(inputs: &PipelineInputs, tr: &mut Tracer, group: u64) -> BenchResult<PassOutcome> {
    let config = &inputs.configs[0];
    let size = inputs.size;
    let started = Instant::now();
    let pass = tr.begin("pipeline.pass", group);

    // Compression study.
    let env = tr.span("ie_search.env_new", group, |_| {
        CompressionEnv::new(config, RewardMode::ExitGuided)
    })?;
    let n = env.num_layers();
    tr.span("ie_search.evaluate", group, |_| env.evaluate(&CompressionPolicy::full_precision(n)))?;
    tr.span("ie_search.uniform", group, |_| best_uniform_policy(&env, size.uniform_steps))?;
    let reference_policy = reference_nonuniform_policy(env.layers());
    let reference = tr.span("ie_search.evaluate", group, |_| env.evaluate(&reference_policy))?;
    let search = DdpgCompressionSearch::new(SearchConfig {
        episodes: size.search_episodes,
        warmup_episodes: (size.search_episodes / 4).max(1),
        seed: inputs.search_seed,
        ..SearchConfig::default()
    });
    let result = tr.span("ie_search.run", group, |_| search.run(&env))?;
    let feasible_episodes = result.history.iter().filter(|e| e.feasible).count();
    let episodes = result.history.len();
    let (nonuniform, outcome) = if result.best_outcome.feasible
        && result.best_outcome.accuracy_reward >= reference.accuracy_reward
    {
        (result.best_policy, result.best_outcome)
    } else {
        (reference_policy, reference)
    };

    // System comparison, on every environment.
    let deployed = DeployedModel::new(outcome.profile.clone(), config.cost_model());
    let mut reports = Vec::new();
    let mut ours = Vec::new();
    for config in &inputs.configs {
        let adaptation = tr.span("ie_runtime.adapt", group, |_| {
            RuntimeAdaptation::new(AdaptationConfig {
                episodes: size.adaptation_episodes,
                ..AdaptationConfig::default()
            })
            .run(config, &deployed)
        })?;
        let runner = BaselineRunner::new(config);
        for baseline in BaselineNetwork::paper_baselines() {
            let name = format!("ie_baselines.run.{}", baseline.name());
            reports.push(tr.span(name, group, |_| runner.run(&baseline))?);
        }
        reports.push(adaptation.static_report);
        ours.push(adaptation.final_report);
    }
    tr.end(pass);
    let seconds = secs_since(started);

    let mut digest = Digest::default();
    for h in &result.history {
        digest.float(h.accuracy_reward);
        digest.float(h.prune_reward);
        digest.float(h.quant_reward);
    }
    let mut simulated_events = 0u64;
    let mut all_conserved = true;
    for r in ours.iter().chain(&reports) {
        fold_report(&mut digest, r);
        simulated_events += r.total_events as u64;
        all_conserved &= conserved(r, config.num_events);
    }
    // Every environment evaluation (full precision, the uniform sweep over
    // five bit widths, the reference policy, one per search episode) and
    // every earlier adaptation episode replays an event sequence as well.
    let evaluations = 2 + 5 * size.uniform_steps + episodes;
    let replays = evaluations + (size.adaptation_episodes - 1) * inputs.configs.len();
    simulated_events += replays as u64 * config.num_events as u64;
    Ok(PassOutcome {
        seconds,
        digest: digest.0,
        correct_events: ours.iter().map(|r| r.correct_events).sum(),
        total_events: ours.iter().map(|r| r.total_events).sum(),
        harvested_mj: ours.iter().map(|r| r.total_harvested_mj).sum(),
        episodes,
        feasible_episodes,
        simulated_events,
        conserved: all_conserved,
        deployed,
        nonuniform,
    })
}

/// The stage's passes, taken one at a time between the other stages'.
pub struct PipelineStage {
    inputs: PipelineInputs,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    outcomes: Vec<PassOutcome>,
}

impl PipelineStage {
    pub fn new(inputs: PipelineInputs) -> Self {
        PipelineStage { inputs, untraced: Vec::new(), traced: Vec::new(), outcomes: Vec::new() }
    }

    pub fn inputs(&self) -> &PipelineInputs {
        &self.inputs
    }

    /// One pass; it counts as traced when the tracer is recording.
    pub fn step(&mut self, tr: &mut Tracer) -> BenchResult<()> {
        let outcome = run_pass(&self.inputs, tr, self.outcomes.len() as u64)?;
        if tr.enabled() { &mut self.traced } else { &mut self.untraced }.push(outcome.seconds);
        self.outcomes.push(outcome);
        Ok(())
    }

    /// Output checks and metrics; per-layer ones when `traced_run`.
    pub fn finish(self, tr: &mut Tracer, traced_run: bool, report: &mut Report) -> BenchResult<()> {
        let PipelineStage { inputs, untraced, traced, outcomes } = self;
        report.attempted += outcomes.len() as u64;
        report.samples("pipeline_s", &untraced);
        let first = &outcomes[0];
        report.check(
            "pipeline.repeatable",
            outcomes.len() >= 2 && outcomes.iter().all(|o| o.digest == first.digest),
            format!("{} passes on one seed, report digest {:#018x}", outcomes.len(), first.digest),
        );
        report.check(
            "pipeline.events_conserved",
            outcomes.iter().all(|o| o.conserved),
            format!(
                "processed + missed = {} events in every report of {} environments",
                inputs.configs[0].num_events,
                inputs.configs.len()
            ),
        );

        report.e2e("pipeline_s", median(&untraced), "s");
        report.e2e(
            "sim_accuracy_all_events",
            first.correct_events as f64 / first.total_events as f64,
            "ratio",
        );
        report.e2e("sim_iepmj", first.correct_events as f64 / first.harvested_mj, "1/mJ");
        report.count("pipeline.ddpg_episodes", first.episodes as u64, "counted");
        report.count("pipeline.simulated_events", first.simulated_events, "counted");
        report.count("pipeline.feasible_episodes", first.feasible_episodes as u64, "counted");

        if traced_run {
            let med = |name: &str| median(&tr.durations_s(name));
            report.layer("ie_search.run_s", med("ie_search.run"), "s");
            report.layer("ie_search.uniform_s", med("ie_search.uniform"), "s");
            report.layer("ie_search.episodes", first.episodes as f64, "count");
            report.layer(
                "ie_search.feasible_ratio",
                first.feasible_episodes as f64 / first.episodes.max(1) as f64,
                "ratio",
            );
            report.layer("ie_runtime.adapt_s", med("ie_runtime.adapt"), "s");
            for baseline in BaselineNetwork::paper_baselines() {
                let span = format!("ie_baselines.run.{}", baseline.name());
                report.layer(
                    &format!("ie_baselines.run_ms.{}", baseline.name()),
                    med(&span) * 1e3,
                    "ms",
                );
            }
            report.layer("trace.overhead.pipeline_s", median(&traced) / median(&untraced), "ratio");
            layer_probes(&inputs, first, tr, report)?;
        }
        Ok(())
    }
}

/// Per-layer timings outside the passes: the environment's evaluation, one
/// DDPG update, the policy evaluator and one simulation.
fn layer_probes(
    inputs: &PipelineInputs,
    pass: &PassOutcome,
    tr: &mut Tracer,
    report: &mut Report,
) -> BenchResult<()> {
    tr.set_enabled(true);
    let config = &inputs.configs[0];
    let group = u64::MAX;
    let env = CompressionEnv::new(config, RewardMode::ExitGuided)?;

    // As many evaluations as the search made, on seeded random policies.
    let mut rng = StdRng::seed_from_u64(fork_seed(inputs.search_seed, &[7]));
    let n = env.num_layers();
    for _ in 0..pass.episodes {
        let layers = (0..n)
            .map(|_| {
                LayerPolicy::new(
                    0.05 + 0.95 * rng.gen::<f32>(),
                    1 + (rng.gen::<f32>() * 7.0).round() as u8,
                    1 + (rng.gen::<f32>() * 7.0).round() as u8,
                )
                .map(|p| p.snapped())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let policy = CompressionPolicy::from_layers(layers);
        tr.span("ie_search.evaluate_probe", group, |_| env.evaluate(&policy))?;
    }
    let evals = tr.durations_s("ie_search.evaluate_probe");
    report.layer("ie_search.evaluate_ms", percentile(&evals, 0.5) * 1e3, "ms");

    // One agent with the search's network width, its replay buffer filled
    // with as many transitions as the search stores.
    let search = SearchConfig::default();
    let mut agent = DdpgAgent::new(
        &mut rng,
        OBSERVATION_DIM,
        2,
        DdpgConfig { hidden: 48, ..DdpgConfig::default() },
    );
    let layers = env.layers().to_vec();
    for _ in 0..pass.episodes {
        for l in 0..n {
            let state = observation_for_layer(&layers, &pass.nonuniform, l);
            let next = observation_for_layer(&layers, &pass.nonuniform, (l + 1) % n);
            agent.observe(Transition {
                state,
                action: vec![rng.gen::<f32>(), rng.gen::<f32>()],
                reward: rng.gen::<f32>(),
                next_state: next,
                done: l + 1 == n,
            });
        }
    }
    for _ in 0..20 {
        tr.span("ie_rl.update", group, |_| agent.update(&mut rng, search.batch_size))?;
    }
    report.layer("ie_rl.update_ms", percentile(&tr.durations_s("ie_rl.update"), 0.5) * 1e3, "ms");

    let evaluator =
        PolicyEvaluator::new(&config.architecture, CalibratedAccuracyModel::for_paper_backbone());
    // Chunks of 100 calls: one evaluation takes about a microsecond.
    for chunk in 0..30 {
        tr.span("ie_compress.profile_x100", chunk, |_| {
            (0..100).try_for_each(|_| evaluator.evaluate(&pass.nonuniform).map(drop))
        })?;
    }
    report.layer(
        "ie_compress.profile_us",
        percentile(&tr.durations_s("ie_compress.profile_x100"), 0.5) * 1e4,
        "us",
    );

    let simulator = EventLoopSimulator::new(config);
    for _ in 0..10 {
        let mut policy = GreedyAffordablePolicy::new();
        tr.span("ie_core.simulate", group, |_| simulator.run(&pass.deployed, &mut policy))?;
    }
    let sim = percentile(&tr.durations_s("ie_core.simulate"), 0.5);
    report.layer("ie_core.simulate_ms", sim * 1e3, "ms");
    report.layer("ie_core.sim_events_per_s", config.num_events as f64 / sim, "1/s");
    tr.set_enabled(false);
    Ok(())
}
