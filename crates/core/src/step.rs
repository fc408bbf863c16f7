//! The per-event kernel shared by [`crate::EventLoopSimulator`] and
//! [`crate::FleetSimulator`]: one rule for choosing, paying for, faulting
//! and refining an inference, so the two simulators keep one energy ledger.

use crate::metrics::RecoveryStats;
use crate::{
    ContinueContext, CoreError, DeployedModel, EventContext, ExitChoice, ExitPolicy, Result,
};
use ie_energy::{Event, HarvestSimulator};
use ie_mcu::{FaultInjector, TaskCut};
use rand::rngs::StdRng;
use rand::Rng;

/// Analytic checkpoint record length (bytes) offered to the fault injector
/// for a torn write after each processed event.
const CHECKPOINT_RECORD_LEN: usize = 64;

/// One run's mutable device state: the harvester, the correctness and
/// confidence stream, the fault schedule and the policy's view of the
/// device.
pub(crate) struct StepState<'m> {
    model: &'m DeployedModel,
    /// Confidence below which a continuation is offered to the policy;
    /// `None` disables incremental inference.
    threshold: Option<f64>,
    pub(crate) sim: HarvestSimulator,
    rng: StdRng,
    faults: FaultInjector,
    // The per-exit cost/accuracy tables are fixed for the whole run, so the
    // context is built once and only its scalar fields change per event.
    ctx: EventContext,
}

impl<'m> StepState<'m> {
    pub(crate) fn new(
        model: &'m DeployedModel,
        threshold: Option<f64>,
        sim: HarvestSimulator,
        rng: StdRng,
        faults: FaultInjector,
    ) -> Self {
        let ctx = EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: 0.0,
            capacity_mj: sim.storage().capacity_mj(),
            charging_efficiency: 0.0,
            exit_energy_mj: model.exit_energies_mj(),
            exit_accuracy: model.exit_accuracies(),
        };
        StepState { model, threshold, sim, rng, faults, ctx }
    }
}

/// What one event came to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepOutcome {
    /// The exit the policy asked for (`None` when it skipped).
    pub(crate) chosen_exit: Option<usize>,
    /// The exit that produced the result (`None` when the event was missed).
    pub(crate) final_exit: Option<usize>,
    /// Whether the result was correct.
    pub(crate) correct: bool,
    /// Whether an incremental continuation ran.
    pub(crate) incremental: bool,
    /// Energy drawn for the event, including work a cut destroyed, mJ.
    pub(crate) energy_mj: f64,
    /// Arrival-to-result latency, seconds (0 for a missed event).
    pub(crate) latency_s: f64,
    /// FLOPs of the result (0 for a missed event).
    pub(crate) flops: u64,
    /// Boots, torn writes and destroyed energy the event's cuts caused.
    pub(crate) recovery: RecoveryStats,
}

impl StepOutcome {
    fn missed(chosen_exit: Option<usize>, energy_mj: f64, recovery: RecoveryStats) -> Self {
        StepOutcome {
            chosen_exit,
            final_exit: None,
            correct: false,
            incremental: false,
            energy_mj,
            latency_s: 0.0,
            flops: 0,
            recovery,
        }
    }
}

/// Samples a normalised confidence for a result that is `correct` or not:
/// correct results are usually confident, wrong results usually are not.
fn sample_confidence(rng: &mut StdRng, correct: bool) -> f64 {
    if correct {
        0.55 + 0.45 * rng.gen::<f64>()
    } else {
        0.75 * rng.gen::<f64>()
    }
}

/// Handles `event` once the harvester has advanced to the device's wake
/// time; `wait_s` is how long the event queued for that wake-up.
///
/// In order: the policy chooses an exit; an unknown exit is an error and an
/// unaffordable one a miss; the fault injector may cut power at task start
/// (before any work: a boot; mid-task: the partial energy is wasted and the
/// retry is abandoned if the store can no longer pay); the exit's energy is
/// consumed and the harvester advances by its latency; correctness, then
/// confidence, are drawn; a low-confidence result may continue to the next
/// exit; finally the checkpoint commit gets its torn-write chance.
///
/// Energy and latency are summed in a fixed order — energy as
/// `0 + partial + exit + continuation`, latency as
/// `wait + partial + exit + continuation` — and the draws come in the order
/// correctness, confidence, fix, so every caller sees the same bits.
pub(crate) fn step_event(
    state: &mut StepState<'_>,
    policy: &mut dyn ExitPolicy,
    event: &Event,
    wait_s: f64,
) -> Result<StepOutcome> {
    let model = state.model;
    let sim = &mut state.sim;
    state.ctx.event_id = event.id;
    state.ctx.time_s = event.time_s;
    state.ctx.available_energy_mj = sim.storage().level_mj();
    state.ctx.charging_efficiency = sim.charging_efficiency();
    let ExitChoice::Exit(exit) = policy.choose_exit(&state.ctx) else {
        return Ok(StepOutcome::missed(None, 0.0, RecoveryStats::default()));
    };
    if exit >= model.num_exits() {
        return Err(CoreError::UnknownExit { requested: exit, available: model.num_exits() });
    }
    let cost = model.exit_energy_mj(exit);
    if !sim.storage().can_supply(cost) {
        return Ok(StepOutcome::missed(Some(exit), 0.0, RecoveryStats::default()));
    }

    // Injected power cut: the analytic model of the `ie_mcu` executor's
    // recovery. Partial work is destroyed, the device reboots and retries
    // the whole inference if the remaining charge affords it.
    let inference_latency = model.exit_latency_s(exit);
    let mut recovery = RecoveryStats::default();
    let mut energy = 0.0;
    let mut latency = wait_s;
    match state.faults.on_task_start() {
        Some(TaskCut::Before) => recovery.recovered_boots += 1,
        Some(TaskCut::Mid { fraction }) => {
            let partial = fraction * cost;
            sim.consume(partial)?;
            sim.advance_by(fraction * inference_latency);
            recovery.recovered_boots += 1;
            recovery.wasted_reexecution_mj = partial;
            energy += partial;
            latency += fraction * inference_latency;
            if !sim.storage().can_supply(cost) {
                return Ok(StepOutcome::missed(Some(exit), energy, recovery));
            }
        }
        None => {}
    }
    sim.consume(cost)?;
    sim.advance_by(inference_latency);
    energy += cost;
    latency += inference_latency;
    let mut flops = model.exit_flops(exit);
    let mut final_exit = exit;
    let mut incremental = false;
    let mut correct = state.rng.gen::<f64>() < model.exit_accuracy(exit);
    let confidence = sample_confidence(&mut state.rng, correct);

    let next_exit = exit + 1;
    let offered = state.threshold.is_some_and(|t| confidence < t) && next_exit < model.num_exits();
    if offered {
        let inc_energy = model.incremental_energy_mj(exit, next_exit)?;
        let cc = ContinueContext {
            event_id: event.id,
            current_exit: exit,
            next_exit,
            confidence,
            available_energy_mj: sim.storage().level_mj(),
            capacity_mj: sim.storage().capacity_mj(),
            incremental_energy_mj: inc_energy,
        };
        if policy.choose_continue(&cc) && sim.storage().can_supply(inc_energy) {
            sim.consume(inc_energy)?;
            let inc_latency = model.incremental_latency_s(exit, next_exit)?;
            sim.advance_by(inc_latency);
            energy += inc_energy;
            latency += inc_latency;
            flops += model.incremental_flops(exit, next_exit)?;
            final_exit = next_exit;
            incremental = true;
            // Conditional refinement: inputs the shallow exit already got
            // right stay right; inputs it got wrong are *hard*, so the deeper
            // exit only fixes the fraction that makes its unconditional
            // accuracy come out at `exit_accuracy(next)`.
            if !correct {
                let a_shallow = model.exit_accuracy(exit);
                let a_deep = model.exit_accuracy(next_exit);
                let fix_probability =
                    ((a_deep - a_shallow) / (1.0 - a_shallow).max(1e-9)).clamp(0.0, 1.0);
                correct = state.rng.gen::<f64>() < fix_probability;
            }
        }
    }

    // Post-inference checkpoint commit: a cut here tears the NV write; the
    // previous checkpoint stays valid, so recovery costs a boot. A cut just
    // after a complete write costs nothing here.
    if let Some(torn_at) = state.faults.on_commit(CHECKPOINT_RECORD_LEN) {
        if torn_at < CHECKPOINT_RECORD_LEN {
            recovery.torn_writes += 1;
            recovery.recovered_boots += 1;
        }
    }

    Ok(StepOutcome {
        chosen_exit: Some(exit),
        final_exit: Some(final_exit),
        correct,
        incremental,
        energy_mj: energy,
        latency_s: latency,
        flops,
        recovery,
    })
}
