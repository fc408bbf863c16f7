//! Property-based equivalence of the planned batched path and the allocating
//! single-input path.
//!
//! The contract under test: for ANY batch size in `1..=16`, ANY inputs and
//! ANY sparse-hint (pruned-weight) configuration, every sample's logits,
//! probabilities, prediction and confidence from a [`ie_nn::BatchPlan`] pass
//! are **bit-identical** to running that sample alone through the allocating
//! [`ie_nn::MultiExitNetwork::forward_to_exit`]. The compressed-policy variant
//! (pruning + quantization applied through real `ie_compress` policies) lives
//! in `ie_compress`'s tests to keep the dependency direction intact.

use ie_nn::spec::tiny_multi_exit;
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a tiny network, optionally pruning a fraction of each conv's
/// filters and setting the sparse hint (the layer state `ie_compress`'s
/// channel pruning produces).
fn build_net(seed: u64, prune_mod: usize) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
    if prune_mod > 0 {
        for layers in net.segments_mut().iter_mut() {
            prune(layers, prune_mod);
        }
        for layers in net.branches_mut().iter_mut() {
            prune(layers, prune_mod);
        }
    }
    net
}

fn prune(layers: &mut [Layer], prune_mod: usize) {
    for layer in layers.iter_mut() {
        if let Layer::Conv2d(conv) = layer {
            let out_ch = conv.out_channels();
            let per_filter = conv.weight().len() / out_ch;
            for (i, w) in conv.weight_mut().as_mut_slice().iter_mut().enumerate() {
                if (i / per_filter) % prune_mod == 0 {
                    *w = 0.0;
                }
            }
            conv.set_sparse_hint(true);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched logits are bit-identical to N independent allocating
    /// single-input passes, for random batch sizes, inputs, seeds and pruning
    /// densities.
    #[test]
    fn batched_logits_bit_identical_to_single_planned(
        seed in 0u64..1_000,
        batch in 1usize..=16,
        prune_mod in 0usize..=3,
        data in proptest::collection::vec(-3.0f32..3.0, 16 * 64),
    ) {
        // prune_mod 0 => dense weights; 2/3 => every 2nd/3rd filter zeroed
        // with the sparse-aware GEMM selected.
        let net = build_net(seed, if prune_mod == 1 { 2 } else { prune_mod });
        let inputs: Vec<Tensor> = (0..batch)
            .map(|s| {
                Tensor::from_vec(data[s * 64..(s + 1) * 64].to_vec(), &[1, 8, 8])
                    .expect("slice length matches shape")
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut batch_plan = net.batch_plan(batch);
        for exit in 0..net.num_exits() {
            let out = net.forward_to_exit_batch_with(&mut batch_plan, &refs, exit).unwrap();
            prop_assert_eq!(out.len(), batch);
            for (i, input) in inputs.iter().enumerate() {
                let (single, _) = net.forward_to_exit(input, exit).unwrap();
                prop_assert_eq!(out.prediction(i), single.prediction);
                prop_assert_eq!(out.confidence(i).to_bits(), single.confidence.to_bits());
                let batched_bits: Vec<u32> =
                    out.logits(i).iter().map(|v| v.to_bits()).collect();
                let single_bits: Vec<u32> =
                    single.logits.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(batched_bits, single_bits, "exit {} sample {}", exit, i);
                let batched_probs: Vec<u32> =
                    out.probs(i).iter().map(|v| v.to_bits()).collect();
                let single_probs: Vec<u32> =
                    single.probs.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(batched_probs, single_probs, "exit {} sample {}", exit, i);
            }
        }
    }

    /// A batched continuation equals the batched direct pass to the deeper
    /// exit (and therefore, transitively, the allocating path).
    #[test]
    fn batched_continuation_equals_direct(
        seed in 0u64..1_000,
        batch in 1usize..=8,
        data in proptest::collection::vec(-2.0f32..2.0, 8 * 64),
    ) {
        let net = build_net(seed, 0);
        let inputs: Vec<Tensor> = (0..batch)
            .map(|s| {
                Tensor::from_vec(data[s * 64..(s + 1) * 64].to_vec(), &[1, 8, 8])
                    .expect("slice length matches shape")
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut direct = net.batch_plan(batch);
        net.forward_to_exit_batch_with(&mut direct, &refs, 1).unwrap();
        let mut incremental = net.batch_plan(batch);
        net.forward_to_exit_batch_with(&mut incremental, &refs, 0).unwrap();
        net.continue_to_exit_batch_with(&mut incremental, 1).unwrap();
        for i in 0..batch {
            let a: Vec<u32> =
                incremental.output(1).logits(i).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = direct.output(1).logits(i).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "sample {}", i);
        }
    }
}
