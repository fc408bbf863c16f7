//! Deep deterministic policy gradient (DDPG) with small MLP actor/critic
//! networks, as used by the paper's compression agents.

use crate::{OrnsteinUhlenbeck, ReplayBuffer};
use ie_nn::{Mlp, MlpPass, OutputActivation, Result as NnResult};
use ie_tensor::Tensor;
use rand::Rng;

/// One experience tuple collected while exploring compression policies.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation before acting.
    pub state: Vec<f32>,
    /// Action taken (each component in `[0, 1]`).
    pub action: Vec<f32>,
    /// Scalar reward.
    pub reward: f32,
    /// Observation after acting.
    pub next_state: Vec<f32>,
    /// Whether the episode ended with this transition.
    pub done: bool,
}

/// Hyper-parameters of a [`DdpgAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// Learning rate of the actor network.
    pub actor_lr: f32,
    /// Learning rate of the critic network.
    pub critic_lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak averaging coefficient τ for the target networks.
    pub tau: f32,
    /// Hidden-layer width of both networks.
    pub hidden: usize,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Initial Ornstein–Uhlenbeck noise magnitude.
    pub noise_sigma: f32,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            actor_lr: 1e-3,
            critic_lr: 1e-2,
            gamma: 0.95,
            tau: 0.01,
            hidden: 64,
            replay_capacity: 2_000,
            noise_sigma: 0.3,
        }
    }
}

/// A DDPG agent over a continuous action space in `[0, 1]^action_dim`.
///
/// The actor ends in a sigmoid so actions land directly in the unit box the
/// compression search expects (pruning rates, normalised bitwidths).
#[derive(Debug, Clone)]
pub struct DdpgAgent {
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    noise: OrnsteinUhlenbeck,
    replay: ReplayBuffer<Transition>,
    config: DdpgConfig,
    state_dim: usize,
    action_dim: usize,
    scratch: UpdateScratch,
}

/// The buffers of [`DdpgAgent::update`], sized by its first call. The target
/// networks share the pass buffers of their online twins: each target
/// forward is consumed before the online network runs.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    actor: MlpPass,
    critic: MlpPass,
    /// Replay indices of the current minibatch.
    indices: Vec<usize>,
    /// Critic input `[state, action]`.
    input: Vec<f32>,
    /// `dQ/d(input)` of the actor step.
    dq_dinput: Vec<f32>,
    /// `−dQ/d(action)`, the actor's output gradient.
    action_grad: Vec<f32>,
}

impl DdpgAgent {
    /// Creates an agent for the given state/action dimensions.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        state_dim: usize,
        action_dim: usize,
        config: DdpgConfig,
    ) -> Self {
        let actor = Mlp::new(
            rng,
            &[state_dim, config.hidden, config.hidden, action_dim],
            OutputActivation::Sigmoid,
        );
        let critic = Mlp::new(
            rng,
            &[state_dim + action_dim, config.hidden, config.hidden, 1],
            OutputActivation::Linear,
        );
        let target_actor = actor.clone();
        let target_critic = critic.clone();
        let noise = OrnsteinUhlenbeck::new(action_dim, 0.15, config.noise_sigma);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let scratch = UpdateScratch {
            dq_dinput: vec![0.0; state_dim + action_dim],
            ..UpdateScratch::default()
        };
        DdpgAgent {
            actor,
            critic,
            target_actor,
            target_critic,
            noise,
            replay,
            config,
            state_dim,
            action_dim,
            scratch,
        }
    }

    /// Dimension of the observation vector.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Dimension of the action vector.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Anneals the exploration noise magnitude.
    pub fn set_noise_sigma(&mut self, sigma: f32) {
        self.noise.set_sigma(sigma);
    }

    /// Deterministic (exploitation) action for a state.
    ///
    /// # Errors
    ///
    /// Returns an error when `state` has the wrong dimension.
    pub fn act(&self, state: &[f32]) -> NnResult<Vec<f32>> {
        let s = Tensor::from_vec(state.to_vec(), &[state.len()]).map_err(ie_nn::NnError::from)?;
        Ok(self.actor.forward(&s)?.into_vec())
    }

    /// Exploratory action: the deterministic action plus OU noise, clamped to
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error when `state` has the wrong dimension.
    pub fn act_exploring<R: Rng + ?Sized>(
        &mut self,
        state: &[f32],
        rng: &mut R,
    ) -> NnResult<Vec<f32>> {
        let mut action = self.act(state)?;
        let noise = self.noise.sample(rng);
        for (a, n) in action.iter_mut().zip(noise) {
            *a = (*a + n).clamp(0.0, 1.0);
        }
        Ok(action)
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, transition: Transition) {
        self.replay.push(transition);
    }

    /// Resets the exploration noise (call at the start of each episode).
    pub fn begin_episode(&mut self) {
        self.noise.reset();
    }

    /// Critic value `Q(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the concatenated input has the wrong dimension.
    pub fn q_value(&self, state: &[f32], action: &[f32]) -> NnResult<f32> {
        let mut input = state.to_vec();
        input.extend_from_slice(action);
        let len = input.len();
        let x = Tensor::from_vec(input, &[len]).map_err(ie_nn::NnError::from)?;
        Ok(self.critic.forward(&x)?.as_slice()[0])
    }

    /// Performs one mini-batch update of the critic and actor and soft-updates
    /// the target networks. Returns the mean critic TD error of the batch, or
    /// `None` when the replay buffer is still empty.
    ///
    /// Runs on the agent's reusable pass buffers: once warmed by a first
    /// call, an update allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying networks.
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        batch_size: usize,
    ) -> NnResult<Option<f32>> {
        if self.replay.is_empty() {
            return Ok(None);
        }
        let DdpgAgent {
            actor, critic, target_actor, target_critic, replay, config, scratch, ..
        } = self;
        let UpdateScratch {
            actor: actor_pass,
            critic: critic_pass,
            indices,
            input,
            dq_dinput,
            action_grad,
        } = scratch;
        replay.sample_indices_into(rng, batch_size.max(1), indices);
        let n = indices.len() as f32;

        // --- Critic update: minimise (Q(s,a) − y)² with y = r + γ·Q'(s', µ'(s')).
        let mut td_error_sum = 0.0;
        for &i in indices.iter() {
            let t = &replay[i];
            let target = if t.done {
                t.reward
            } else {
                let next_action = target_actor.forward_pass(&t.next_state, actor_pass)?;
                concat_into(input, &t.next_state, next_action);
                t.reward + config.gamma * target_critic.forward_pass(input, critic_pass)?[0]
            };
            concat_into(input, &t.state, &t.action);
            let q = critic.forward_pass(input, critic_pass)?[0];
            let td = q - target;
            td_error_sum += td.abs();
            critic.backward_pass(critic_pass, &[2.0 * td], None)?;
        }
        critic.apply_gradients(config.critic_lr / n);

        // --- Actor update: ascend ∇_a Q(s, µ(s)) ∇_θ µ(s). The critic only
        // supplies dQ/d(input); its parameter gradients stay untouched.
        for &i in indices.iter() {
            let t = &replay[i];
            let action = actor.forward_pass(&t.state, actor_pass)?;
            concat_into(input, &t.state, action);
            critic.forward_pass(input, critic_pass)?;
            critic.input_grad_pass(critic_pass, &[1.0], dq_dinput)?;
            // Gradient ascent on Q == descent on −Q.
            action_grad.clear();
            action_grad.extend(dq_dinput[t.state.len()..].iter().map(|g| -g));
            actor.backward_pass(actor_pass, action_grad, None)?;
        }
        actor.apply_gradients(config.actor_lr / n);

        // --- Target network soft updates.
        target_actor.blend_from(actor, config.tau);
        target_critic.blend_from(critic, config.tau);

        Ok(Some(td_error_sum / n))
    }
}

/// Overwrites `dst` with `[head, tail]` (no allocation once `dst` has the
/// capacity).
fn concat_into(dst: &mut Vec<f32>, head: &[f32], tail: &[f32]) {
    dst.clear();
    dst.extend_from_slice(head);
    dst.extend_from_slice(tail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The allocating update the pass-buffer [`DdpgAgent::update`] replaced:
    /// clones the minibatch, builds a tensor per concatenation, and lets the
    /// actor step accumulate critic gradients only to clear them again. Kept
    /// as the bit-identity reference.
    fn reference_update<R: Rng + ?Sized>(
        agent: &mut DdpgAgent,
        rng: &mut R,
        batch_size: usize,
    ) -> NnResult<Option<f32>> {
        fn tensor(v: Vec<f32>) -> NnResult<Tensor> {
            let len = v.len();
            Tensor::from_vec(v, &[len]).map_err(ie_nn::NnError::from)
        }
        if agent.replay.is_empty() {
            return Ok(None);
        }
        let mut indices = Vec::new();
        agent.replay.sample_indices_into(rng, batch_size.max(1), &mut indices);
        let batch: Vec<Transition> = indices.iter().map(|&i| agent.replay[i].clone()).collect();
        let n = batch.len() as f32;

        let mut td_error_sum = 0.0;
        for t in &batch {
            let target = if t.done {
                t.reward
            } else {
                let a = agent.target_actor.forward(&tensor(t.next_state.clone())?)?;
                let mut input = t.next_state.clone();
                input.extend_from_slice(a.as_slice());
                let q = agent.target_critic.forward(&tensor(input)?)?.as_slice()[0];
                t.reward + agent.config.gamma * q
            };
            let mut input = t.state.clone();
            input.extend_from_slice(&t.action);
            let x = tensor(input)?;
            let q = agent.critic.forward(&x)?.as_slice()[0];
            let td = q - target;
            td_error_sum += td.abs();
            agent.critic.backward(&x, &tensor(vec![2.0 * td])?)?;
        }
        agent.critic.apply_gradients(agent.config.critic_lr / n);

        for t in &batch {
            let s = tensor(t.state.clone())?;
            let action = agent.actor.forward(&s)?;
            let mut input = t.state.clone();
            input.extend_from_slice(action.as_slice());
            let dq_dinput = agent.critic.backward(&tensor(input)?, &tensor(vec![1.0])?)?;
            agent.critic.zero_grad();
            let grad = dq_dinput.as_slice()[t.state.len()..].iter().map(|g| -g).collect();
            agent.actor.backward(&s, &tensor(grad)?)?;
        }
        agent.actor.apply_gradients(agent.config.actor_lr / n);

        agent.target_actor.blend_from(&agent.actor, agent.config.tau);
        agent.target_critic.blend_from(&agent.critic, agent.config.tau);
        Ok(Some(td_error_sum / n))
    }

    fn parameter_bits(mlp: &Mlp) -> Vec<u32> {
        mlp.layers()
            .iter()
            .flat_map(|l| l.weight().as_slice().iter().chain(l.bias().as_slice()))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn update_is_bit_identical_to_the_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = DdpgConfig { hidden: 16, replay_capacity: 64, ..DdpgConfig::default() };
        let mut fast = DdpgAgent::new(&mut rng, 5, 3, config);
        let mut reference = fast.clone();
        let mut fast_rng = StdRng::seed_from_u64(12);
        let mut reference_rng = fast_rng.clone();
        for step in 0..50 {
            let state: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let transition = Transition {
                action: fast.act_exploring(&state, &mut rng).unwrap(),
                reward: rng.gen_range(-1.0..1.0),
                next_state: (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                done: step % 3 == 0,
                state,
            };
            fast.observe(transition.clone());
            reference.observe(transition);
            let got = fast.update(&mut fast_rng, 12).unwrap().unwrap();
            let want = reference_update(&mut reference, &mut reference_rng, 12).unwrap().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "TD error at update {step}");
        }
        for (name, a, b) in [
            ("actor", &fast.actor, &reference.actor),
            ("critic", &fast.critic, &reference.critic),
            ("target actor", &fast.target_actor, &reference.target_actor),
            ("target critic", &fast.target_critic, &reference.target_critic),
        ] {
            assert_eq!(parameter_bits(a), parameter_bits(b), "{name} parameters diverged");
        }
    }

    #[test]
    fn actions_are_in_the_unit_box() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = DdpgAgent::new(&mut rng, 4, 3, DdpgConfig::default());
        let a = agent.act(&[0.1, 0.5, -0.3, 2.0]).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| (0.0..=1.0).contains(v)));
        let e = agent.act_exploring(&[0.1, 0.5, -0.3, 2.0], &mut rng).unwrap();
        assert!(e.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(agent.act(&[0.0; 3]).is_err(), "wrong state dimension must fail");
    }

    #[test]
    fn update_without_experience_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DdpgAgent::new(&mut rng, 2, 1, DdpgConfig::default());
        assert_eq!(agent.update(&mut rng, 8).unwrap(), None);
    }

    #[test]
    fn agent_learns_a_simple_bandit() {
        // Reward = 1 − (a − 0.8)²: the optimal action is 0.8 regardless of state.
        let mut rng = StdRng::seed_from_u64(7);
        let config = DdpgConfig {
            actor_lr: 5e-3,
            critic_lr: 2e-2,
            gamma: 0.0,
            tau: 0.05,
            hidden: 24,
            replay_capacity: 512,
            noise_sigma: 0.4,
        };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        let state = vec![0.5f32];
        for episode in 0..60 {
            agent.begin_episode();
            agent.set_noise_sigma(0.4 * (1.0 - episode as f32 / 60.0) + 0.05);
            for _ in 0..10 {
                let a = agent.act_exploring(&state, &mut rng).unwrap();
                let reward = 1.0 - (a[0] - 0.8).powi(2);
                agent.observe(Transition {
                    state: state.clone(),
                    action: a,
                    reward,
                    next_state: state.clone(),
                    done: true,
                });
                agent.update(&mut rng, 32).unwrap();
            }
        }
        let final_action = agent.act(&state).unwrap()[0];
        assert!(
            (final_action - 0.8).abs() < 0.2,
            "agent should converge near 0.8, got {final_action}"
        );
    }

    #[test]
    fn q_values_track_observed_rewards() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = DdpgConfig { gamma: 0.0, critic_lr: 5e-2, ..DdpgConfig::default() };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        // Fixed state/action with constant reward 2.0.
        for _ in 0..200 {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.5],
                reward: 2.0,
                next_state: vec![0.0],
                done: true,
            });
            agent.update(&mut rng, 16).unwrap();
        }
        let q = agent.q_value(&[0.0], &[0.5]).unwrap();
        assert!((q - 2.0).abs() < 0.5, "critic should approach the reward, got {q}");
    }

    #[test]
    fn replay_is_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = DdpgConfig { replay_capacity: 16, ..DdpgConfig::default() };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        for i in 0..100 {
            agent.observe(Transition {
                state: vec![i as f32],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert_eq!(agent.replay_len(), 16);
    }
}
