use crate::metrics::{EventOutcome, EventRecord, RecoveryStats, SimulationReport};
use crate::step::{step_event, StepState};
use crate::{CoreError, DeployedModel, EventFeedback, ExitPolicy, ExperimentConfig, Result};
use ie_mcu::FaultInjector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replays the configured event sequence over the configured power trace,
/// letting an [`ExitPolicy`] decide how each event is handled, and produces a
/// [`SimulationReport`].
///
/// Correctness of each processed event is sampled from the deployed model's
/// per-exit accuracy (the analytic counterpart of running the real compressed
/// network on a labelled input — see `DESIGN.md`); the result's confidence is
/// sampled so that wrong answers tend to look less confident, which is what
/// makes entropy-triggered incremental inference useful.
#[derive(Debug, Clone)]
pub struct EventLoopSimulator {
    config: ExperimentConfig,
}

impl EventLoopSimulator {
    /// Creates a simulator for the given experiment configuration.
    pub fn new(config: &ExperimentConfig) -> Self {
        EventLoopSimulator { config: config.clone() }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the simulation, handling every event at its arrival instant.
    ///
    /// Equivalent to [`Self::run_batched`] with a wake window of one event
    /// (and implemented as exactly that, so the two paths cannot drift).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration or
    /// [`CoreError::UnknownExit`] when the policy requests a non-existent exit.
    pub fn run(
        &self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
    ) -> Result<SimulationReport> {
        self.run_batched(model, policy, 1)
    }

    /// Runs the simulation with events batched per wake window: the device
    /// sleeps while up to `window` events accumulate (harvesting energy the
    /// whole time), then wakes once and drains the pending batch in arrival
    /// order. This is the intermittent-serving analogue of batched inference
    /// — a wake-up is amortized over a whole window, and energy that arrives
    /// while events queue is available to the entire batch, so energy-bound
    /// traces typically miss fewer events at the cost of queueing latency
    /// (each record's `latency_s` includes the time the event waited for its
    /// window to close).
    ///
    /// A window of 1 reproduces [`Self::run`] exactly: every event is drained
    /// at its own arrival time with zero wait.
    ///
    /// A window of 0 is meaningless (a batch that can never hold an event)
    /// and is rejected up front rather than silently treated as 1 — the same
    /// contract the serving layer's `WindowConfig` enforces for its
    /// `max_batch`, so a zero window can never loop forever or drop events
    /// in either batching path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration or a
    /// zero window, and [`CoreError::UnknownExit`] when the policy requests a
    /// non-existent exit.
    pub fn run_batched(
        &self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
        window: usize,
    ) -> Result<SimulationReport> {
        if window == 0 {
            return Err(CoreError::InvalidConfig("wake window must be at least one event".into()));
        }
        self.config.validate()?;
        let faults = self.config.fault.map_or_else(FaultInjector::none, |f| f.injector());
        let threshold = self.config.incremental_enabled.then_some(self.config.confidence_threshold);
        let mut state = StepState::new(
            model,
            threshold,
            self.config.build_harvest_simulator(),
            StdRng::seed_from_u64(self.config.simulation_seed),
            faults,
        );
        let events = self.config.build_events();
        let mut records = Vec::with_capacity(events.len());
        let mut recovery = RecoveryStats::default();

        for batch in events.chunks(window) {
            // One wake-up per window: harvest up to the latest arrival before
            // any queued event is considered.
            let wake_time = batch.last().expect("chunks are non-empty").time_s;
            state.sim.advance_to(wake_time);
            for event in batch {
                let step = step_event(&mut state, policy, event, wake_time - event.time_s)?;
                recovery.absorb(&step.recovery);
                let outcome = match step.final_exit {
                    None => EventOutcome::Missed,
                    Some(exit) => EventOutcome::Processed {
                        exit,
                        correct: step.correct,
                        incremental: step.incremental,
                    },
                };
                policy.observe_outcome(&EventFeedback {
                    event_id: event.id,
                    chosen_exit: step.chosen_exit,
                    final_exit: step.final_exit,
                    expected_accuracy: step.final_exit.map_or(0.0, |e| model.exit_accuracy(e)),
                    correct: step.correct,
                    energy_spent_mj: step.energy_mj,
                    missed: step.final_exit.is_none(),
                });
                records.push(EventRecord {
                    event_id: event.id,
                    time_s: event.time_s,
                    outcome,
                    latency_s: step.latency_s,
                    energy_mj: step.energy_mj,
                    flops: step.flops,
                });
            }
        }

        // Harvest the remainder of the trace so E_total covers the full fixed
        // energy budget of the environment.
        state.sim.advance_to(self.config.trace_duration_s);
        let total_harvested = self.config.total_harvestable_mj();
        Ok(SimulationReport::from_records(records, model.num_exits(), total_harvested)
            .with_recovery(recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FixedExitPolicy, GreedyAffordablePolicy, ReserveMarginPolicy};
    use crate::{EventContext, ExitChoice};

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_test()
    }

    /// A random cut schedule whose seed mixes in `IE_FAULT_SEED`, so the CI
    /// fault matrix runs a different schedule family per seed.
    fn fault(seed: u64, cut_probability: f64, max_cuts: u64) -> crate::FaultConfig {
        let seed = seed ^ ie_mcu::fault_seed_from_env().unwrap_or(0);
        crate::FaultConfig { seed, cut_probability, max_cuts }
    }

    #[test]
    fn every_event_is_accounted_for() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let mut policy = GreedyAffordablePolicy::new();
        let report = EventLoopSimulator::new(&c).run(&model, &mut policy).unwrap();
        assert_eq!(report.total_events, c.num_events);
        assert_eq!(report.processed_events + report.missed_events, report.total_events);
        assert_eq!(report.exit_counts.iter().sum::<usize>(), report.processed_events);
        assert!(report.correct_events <= report.processed_events);
        assert!(report.total_harvested_mj > 0.0);
        assert!(report.total_consumed_mj <= report.total_harvested_mj + c.initial_energy_mj + 1e-6);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let a =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let b =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_deep_exit_misses_more_events_than_greedy() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let greedy =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let fixed_deep =
            EventLoopSimulator::new(&c).run(&model, &mut FixedExitPolicy::new(2)).unwrap();
        assert!(
            fixed_deep.missed_events >= greedy.missed_events,
            "always demanding the deepest exit can only miss more events ({} vs {})",
            fixed_deep.missed_events,
            greedy.missed_events
        );
        assert!(greedy.processed_events > 0);
    }

    #[test]
    fn disabling_incremental_inference_removes_continuations() {
        let mut c = config();
        c.incremental_enabled = false;
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let report =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(report.incremental_count, 0);
        c.incremental_enabled = true;
        let with_inc =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        // Greedy continues whenever affordable, so with the threshold at its
        // default some continuations should occur.
        assert!(with_inc.incremental_count >= report.incremental_count);
    }

    #[test]
    fn a_wake_window_of_one_reproduces_the_unbatched_run() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let plain =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let windowed = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut GreedyAffordablePolicy::new(), 1)
            .unwrap();
        assert_eq!(plain, windowed);
    }

    #[test]
    fn batched_windows_account_for_every_event_and_stay_deterministic() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        for window in [2usize, 5, c.num_events] {
            let a = EventLoopSimulator::new(&c)
                .run_batched(&model, &mut GreedyAffordablePolicy::new(), window)
                .unwrap();
            let b = EventLoopSimulator::new(&c)
                .run_batched(&model, &mut GreedyAffordablePolicy::new(), window)
                .unwrap();
            assert_eq!(a, b, "window {window} must be deterministic");
            assert_eq!(a.total_events, c.num_events);
            assert_eq!(a.processed_events + a.missed_events, a.total_events);
            assert_eq!(a.exit_counts.iter().sum::<usize>(), a.processed_events);
            assert!(
                a.total_consumed_mj <= a.total_harvested_mj + c.initial_energy_mj + 1e-6,
                "window {window} cannot consume more than the budget"
            );
        }
    }

    #[test]
    fn queued_events_pay_their_wait_in_latency() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        // One wake for the whole trace: every processed event except the last
        // waited for the window to close.
        let report = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut FixedExitPolicy::new(0), c.num_events)
            .unwrap();
        assert!(report.processed_events > 0, "the drained batch must process something");
        let inference_latency = model.exit_latency_s(0);
        let waited = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, EventOutcome::Processed { .. }))
            .filter(|r| r.latency_s > inference_latency + 1e-12)
            .count();
        assert!(waited > 0, "queued events must include their wait in latency_s");
    }

    #[test]
    fn a_zero_wake_window_is_rejected() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let err = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut GreedyAffordablePolicy::new(), 0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn fault_injection_is_deterministic_and_accounted() {
        let mut c = config();
        c.fault = Some(fault(11, 0.5, 40));
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let a =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let b =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(a, b, "faulted runs must be deterministic per seed");
        assert!(a.recovery.recovered_boots > 0, "p=0.5 over 60 events must cut something");
        assert!(a.recovery.recovered_boots <= 40);
        assert!(a.recovery.wasted_reexecution_mj >= 0.0);
        assert_eq!(a.total_events, c.num_events);
        assert_eq!(a.processed_events + a.missed_events, a.total_events);
        assert!(a.total_consumed_mj <= a.total_harvested_mj + c.initial_energy_mj + 1e-6);
    }

    #[test]
    fn fault_injection_never_perturbs_the_fault_free_stream() {
        // The cut RNG is separate from the correctness RNG, so a zero-cut
        // fault config must reproduce the fault-free run bit-for-bit.
        let c = config();
        let mut zero_cut = config();
        zero_cut.fault = Some(fault(3, 0.0, 64));
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let free =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let zero = EventLoopSimulator::new(&zero_cut)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .unwrap();
        assert_eq!(free, zero);
        assert_eq!(free.recovery, crate::RecoveryStats::default());
    }

    #[test]
    fn injected_cuts_cost_energy_or_events() {
        let c = config();
        let mut faulty = config();
        faulty.fault = Some(fault(5, 0.8, 200));
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let free =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let hit = EventLoopSimulator::new(&faulty)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .unwrap();
        assert!(hit.recovery.recovered_boots > 0);
        // Re-execution burns budget: the faulted run can only do worse or
        // equal on correct events, and its waste shows up somewhere — fewer
        // correct events or more energy consumed.
        assert!(
            hit.correct_events <= free.correct_events
                || hit.total_consumed_mj > free.total_consumed_mj
        );
    }

    #[test]
    fn unknown_exit_choice_is_an_error() {
        struct Bogus;
        impl ExitPolicy for Bogus {
            fn choose_exit(&mut self, _ctx: &EventContext) -> ExitChoice {
                ExitChoice::Exit(99)
            }
        }
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let err = EventLoopSimulator::new(&c).run(&model, &mut Bogus).unwrap_err();
        assert!(matches!(err, CoreError::UnknownExit { requested: 99, .. }));
    }

    #[test]
    fn reserve_policy_shifts_selection_towards_cheap_exits() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let greedy =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let reserved =
            EventLoopSimulator::new(&c).run(&model, &mut ReserveMarginPolicy::new(0.6)).unwrap();
        // The reserve policy must use exit 0 at least as often as greedy does.
        assert!(reserved.exit_counts[0] >= greedy.exit_counts[0]);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = config();
        c.num_events = 0;
        let model = DeployedModel::uncompressed_reference(&config()).unwrap();
        assert!(EventLoopSimulator::new(&c)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .is_err());
    }
}
