//! Property tests of the event-loop simulator under random power cuts, at
//! every wake window from 1 to 8 events.
//!
//! Whatever the schedule, every event is accounted for exactly once, each
//! torn write costs a recovered boot and no more boots are recovered than
//! cuts were allowed, the device never spends more than it harvested plus
//! its initial charge, and a schedule that never cuts reproduces the
//! fault-free run bit for bit.
//!
//! The `IE_FAULT_SEED` env knob is mixed into every schedule seed so CI can
//! exercise disjoint schedule families without code changes.

mod common;

use common::ShallowThenContinue;
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{
    DeployedModel, EventLoopSimulator, ExitPolicy, ExperimentConfig, FaultConfig, SimulationReport,
};
use ie_mcu::fault_seed_from_env;
use proptest::prelude::*;

fn simulate(config: &ExperimentConfig, window: usize, shallow: bool) -> SimulationReport {
    let model = DeployedModel::uncompressed_reference(config).expect("reference model builds");
    let mut greedy = GreedyAffordablePolicy::new();
    let policy: &mut dyn ExitPolicy = if shallow { &mut ShallowThenContinue } else { &mut greedy };
    EventLoopSimulator::new(config).run_batched(&model, policy, window).expect("simulation runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faulted_runs_conserve_events_and_energy(
        seed in 0u64..1_000_000,
        cut_probability in 0.0f64..=1.0,
        max_cuts in 0u64..80,
        window in 1usize..=8,
        shallow in any::<bool>(),
    ) {
        let mut config = ExperimentConfig::small_test();
        let fault = FaultConfig {
            seed: seed ^ fault_seed_from_env().unwrap_or(0),
            cut_probability,
            max_cuts,
        };
        config.fault = Some(fault);
        let report = simulate(&config, window, shallow);

        prop_assert_eq!(report.total_events, config.num_events);
        prop_assert_eq!(report.processed_events + report.missed_events, report.total_events);
        prop_assert_eq!(report.exit_counts.iter().sum::<usize>(), report.processed_events);
        prop_assert_eq!(report.records.len(), report.total_events);
        let recovery = report.recovery;
        prop_assert!(recovery.torn_writes <= recovery.recovered_boots);
        prop_assert!(recovery.recovered_boots <= max_cuts);
        prop_assert!(recovery.wasted_reexecution_mj >= 0.0);
        prop_assert!(
            report.total_consumed_mj <= report.total_harvested_mj + config.initial_energy_mj + 1e-6,
            "consumed {} of {} harvested + {} initial",
            report.total_consumed_mj,
            report.total_harvested_mj,
            config.initial_energy_mj
        );
    }

    #[test]
    fn a_schedule_that_never_cuts_changes_nothing(
        seed in 0u64..1_000_000,
        max_cuts in 0u64..80,
        window in 1usize..=8,
        shallow in any::<bool>(),
    ) {
        let free = ExperimentConfig::small_test();
        let mut never = free.clone();
        never.fault = Some(FaultConfig {
            seed: seed ^ fault_seed_from_env().unwrap_or(0),
            cut_probability: 0.0,
            max_cuts,
        });
        prop_assert_eq!(simulate(&never, window, shallow), simulate(&free, window, shallow));
    }
}
