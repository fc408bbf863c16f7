//! Property-based equivalence of batched and single-input inference on
//! **compressed** networks: random pruning/quantization policies are applied
//! through the real `apply_policy` path (which zeroes channels, fake-quantizes
//! weights and sets the sparse GEMM hint), then every sample's batched logits
//! must be bit-identical to a separate allocating single-input pass, and the
//! sharded batched dataset evaluation must equal a sequential per-sample
//! count for every worker count.

use ie_compress::apply::apply_policy;
use ie_compress::{CompressionPolicy, LayerPolicy};
use ie_nn::dataset::{Sample, SyntheticDataset};
use ie_nn::spec::tiny_multi_exit;
use ie_nn::MultiExitNetwork;
use ie_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_layer_policy() -> impl Strategy<Value = LayerPolicy> {
    (1usize..=20, 1u8..=32, 1u8..=32).prop_map(|(ratio_steps, w_bits, a_bits)| {
        LayerPolicy::new(ratio_steps as f32 / 20.0, w_bits, a_bits)
            .expect("generated policies are within range")
    })
}

/// The sequential accuracy oracle: one allocating `forward_all` per sample,
/// correct predictions counted per exit.
fn reference_evaluate(net: &MultiExitNetwork, samples: &[Sample]) -> Vec<f32> {
    let mut correct = vec![0usize; net.num_exits()];
    for sample in samples {
        for out in net.forward_all(&sample.image).unwrap() {
            correct[out.exit] += usize::from(out.prediction == sample.label);
        }
    }
    correct.iter().map(|&c| c as f32 / samples.len() as f32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random compression policies (pruned + quantized, sparse-hinted convs):
    /// batched logits stay bit-identical to N allocating single-input passes.
    #[test]
    fn batched_logits_match_single_planned_on_compressed_networks(
        seed in 0u64..500,
        batch in 1usize..=16,
        policies in proptest::collection::vec(arb_layer_policy(), 5),
        data in proptest::collection::vec(-2.0f32..2.0, 16 * 64),
    ) {
        let arch = tiny_multi_exit(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
        let policy: CompressionPolicy = policies.into_iter().collect();
        prop_assume!(policy.layers().len() == arch.compressible_layers().len());
        apply_policy(&mut net, &policy).unwrap();

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
            for (i, input) in inputs.iter().enumerate() {
                let (reference, _) = net.forward_to_exit(input, exit).unwrap();
                let batched: Vec<u32> = out.logits(i).iter().map(|v| v.to_bits()).collect();
                let single: Vec<u32> =
                    reference.logits.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(batched, single, "exit {} sample {}", exit, i);
            }
        }
    }

    /// The sharded evaluation of a compressed network is invariant in the
    /// worker count and equal to the sequential per-sample count.
    #[test]
    fn sharded_evaluation_is_worker_count_invariant(
        seed in 0u64..500,
        ratio_steps in 2usize..=20,
        threads in 1usize..=6,
    ) {
        let arch = tiny_multi_exit(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
        let n_layers = arch.compressible_layers().len();
        let policy =
            CompressionPolicy::uniform(n_layers, ratio_steps as f32 / 20.0, 8, 8).unwrap();
        apply_policy(&mut net, &policy).unwrap();
        let data = SyntheticDataset::generate(3, 8, 60, 0.1, seed);
        let sequential = reference_evaluate(&net, data.test());
        let sharded =
            ie_nn::train::evaluate_batched(&net, data.test(), 4, threads).unwrap();
        prop_assert_eq!(sharded, sequential, "threads {}", threads);
    }
}
