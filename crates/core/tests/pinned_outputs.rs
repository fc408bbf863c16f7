//! Pinned fault-free outputs of the event-loop simulator and the fleet.
//!
//! The other tests check that runs are deterministic; these check that they
//! stay the *same* runs. Each value was recorded from the code before the
//! simulator and the fleet were moved onto one per-event kernel, so any
//! change to the fault-free energy ledger, latency sums, RNG draw order or
//! continuation rule shows up here as a changed digest.

mod common;

use common::ShallowThenContinue;
use ie_core::fleet::{FleetConfig, FleetSimulator};
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{
    DeployedModel, EventLoopSimulator, EventOutcome, ExitPolicy, ExperimentConfig, SimulationReport,
};
use ie_energy::fork_seed;

/// Folds every per-event record and every aggregate of `report`, bit for bit.
fn report_digest(report: &SimulationReport) -> u64 {
    let mut digest = fork_seed(report.total_events as u64, &[report.processed_events as u64]);
    for r in &report.records {
        let outcome = match r.outcome {
            EventOutcome::Missed => u64::MAX,
            EventOutcome::Processed { exit, correct, incremental } => {
                ((exit as u64) << 2) | (u64::from(correct) << 1) | u64::from(incremental)
            }
        };
        digest = fork_seed(
            digest,
            &[
                r.event_id as u64,
                r.time_s.to_bits(),
                outcome,
                r.latency_s.to_bits(),
                r.energy_mj.to_bits(),
                r.flops,
            ],
        );
    }
    let counts = report.exit_counts.iter().map(|&c| c as u64);
    digest = fork_seed(digest, &counts.collect::<Vec<_>>());
    fork_seed(
        digest,
        &[
            report.correct_events as u64,
            report.incremental_count as u64,
            report.total_harvested_mj.to_bits(),
            report.total_consumed_mj.to_bits(),
            report.total_latency_s.to_bits(),
            report.total_flops,
            report.recovery.recovered_boots,
            report.recovery.torn_writes,
            report.recovery.wasted_reexecution_mj.to_bits(),
        ],
    )
}

fn simulate(config: &ExperimentConfig, window: usize) -> SimulationReport {
    simulate_with(config, window, &mut GreedyAffordablePolicy::new())
}

fn simulate_with(
    config: &ExperimentConfig,
    window: usize,
    policy: &mut dyn ExitPolicy,
) -> SimulationReport {
    let model = DeployedModel::uncompressed_reference(config).expect("reference model builds");
    EventLoopSimulator::new(config)
        .run_batched(&model, policy, window)
        .expect("fault-free simulation runs")
}

#[test]
fn simulator_reports_are_pinned() {
    let small = ExperimentConfig::small_test();
    let mut no_incremental = ExperimentConfig::small_test();
    no_incremental.incremental_enabled = false;
    let mut low_threshold = ExperimentConfig::small_test();
    low_threshold.confidence_threshold = 0.3;
    let paper = ExperimentConfig::paper_default();
    let shallow = &mut ShallowThenContinue;
    let cases = [
        ("greedy, small_test, window 1", simulate(&small, 1), 0x58ceee1c3900fe61),
        ("greedy, small_test, window 4", simulate(&small, 4), 0x54749c64bddb9490),
        ("greedy, no incremental", simulate(&no_incremental, 1), 0x58ceee1c3900fe61),
        ("greedy, threshold 0.3", simulate(&low_threshold, 1), 0x58ceee1c3900fe61),
        ("greedy, paper_default, window 1", simulate(&paper, 1), 0xb30d16f28eb5bbd4),
        ("shallow, small_test, window 1", simulate_with(&small, 1, shallow), 0xd8d9634ecf9aaf03),
        ("shallow, small_test, window 4", simulate_with(&small, 4, shallow), 0x378e1bf3d0407e48),
        ("shallow, no incremental", simulate_with(&no_incremental, 1, shallow), 0xe14cc88fa58b9af7),
        ("shallow, threshold 0.3", simulate_with(&low_threshold, 1, shallow), 0x77d2bd5118be9567),
        ("shallow, paper_default, window 1", simulate_with(&paper, 1, shallow), 0x49d548e24cc866e7),
    ];
    for (name, report, pinned) in &cases {
        assert_eq!(report_digest(report), *pinned, "{name}: {:#018x}", report_digest(report));
    }
    // The greedy runs never continue, so the continuation path is pinned by
    // the shallow policy; make sure it really ran.
    assert!(cases[5].1.incremental_count > 0 && cases[9].1.incremental_count > 0);
}

const FLEET_JSON: &str = r#"{
  "devices": 96,
  "total_events": 2304,
  "processed_events": 1432,
  "missed_events": 872,
  "correct_events": 957,
  "incremental_events": 2,
  "completion_rate": 0.621527778,
  "accuracy_all_events": 0.415364583,
  "exit_counts": [779, 144, 509, 0, 0, 0, 0, 0],
  "recovered_boots": 114,
  "torn_writes": 55,
  "wasted_reexecution_mj": 26.965348,
  "consumed_mj": 2016.239332,
  "mean_energy_per_inference_mj": 1.407988360,
  "energy_p50_mj": 0.732121791,
  "energy_p90_mj": 2.428939327,
  "energy_p99_mj": 2.428939327,
  "latency_p50_s": 2.004856687,
  "latency_p90_s": 7.680980573,
  "latency_p99_s": 7.680980573,
  "digest_xor": "f86d1b98bd448668",
  "digest_sum": "248640f0c03e003a"
}
"#;

#[test]
fn fleet_aggregate_is_pinned() {
    let model = DeployedModel::uncompressed_reference(&ExperimentConfig::paper_default())
        .expect("reference model builds");
    let metrics = FleetSimulator::new(&FleetConfig::new(96, 2026)).run(&model).unwrap().metrics;
    assert_eq!(metrics.digest_xor, 0xf86d1b98bd448668);
    assert_eq!(metrics.digest_sum, 0x248640f0c03e003a);
    assert_eq!(metrics.to_json(), FLEET_JSON);
}
