//! Equivalence property tests of the quantized (integer) execution backend.
//!
//! Over random per-layer policies — mixing i8, i16 and f32 kernels — and
//! random batch sizes 1..=16, the optimized quantized plans must reproduce
//! the naive fake-quant reference ([`ie_nn::quant::fake_quant_logits`])
//! **bit for bit**: integer accumulation is associative, so any divergence
//! is a real bug in the kernels, the lowering, the requantization epilogue
//! or the mixed-precision chaining, never harmless float reassociation.

use ie_compress::apply::apply_policy_quantized;
use ie_compress::{CompressionPolicy, LayerPolicy};
use ie_nn::dataset::{Sample, SyntheticDataset};
use ie_nn::quant::{fake_quant_logits, QuantizedModel};
use ie_nn::spec::tiny_multi_exit;
use ie_nn::MultiExitNetwork;
use ie_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weight bitwidth choices: i8 kernels (1..=8), i16 kernels (9..=16) and the
/// f32 fallback (32).
const WEIGHT_BITS: [u8; 7] = [1, 2, 4, 8, 12, 16, 32];
/// Activation bitwidth choices: quantizable (≤ 8) and the f32 fallback.
const ACT_BITS: [u8; 3] = [4, 8, 32];

fn tiny_net(seed: u64) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
}

/// One random layer policy: (weight-bits index, act-bits index, ratio).
fn arb_layer() -> impl Strategy<Value = (usize, usize, f32)> {
    (0usize..WEIGHT_BITS.len(), 0usize..ACT_BITS.len(), 0.3f32..1.0)
}

fn policy_from(choices: &[(usize, usize, f32)]) -> CompressionPolicy {
    choices
        .iter()
        .map(|&(w, a, ratio)| LayerPolicy::new(ratio, WEIGHT_BITS[w], ACT_BITS[a]).unwrap())
        .collect()
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

    /// The planned quantized path (one-slot and batched, including
    /// incremental continuation) is bit-identical to the naive fake-quant
    /// reference for arbitrary kernel mixes and batch sizes.
    #[test]
    fn quantized_plans_match_the_fake_quant_reference_bit_for_bit(
        choices in proptest::collection::vec(arb_layer(), 5usize),
        batch in 1usize..=16,
        net_seed in 0u64..4,
    ) {
        let net = tiny_net(net_seed);
        prop_assert_eq!(net.architecture().compressible_layers().len(), choices.len());
        let policy = policy_from(&choices);
        let data = SyntheticDataset::generate(3, 8, 40, 0.05, net_seed.wrapping_add(90));
        let mut qnet = net.clone();
        // Calibrate on a few samples only, so evaluation inputs can exceed
        // the calibrated ranges (the epilogue's saturation is exercised).
        let cfg = apply_policy_quantized(&mut qnet, &policy, &data.train()[..8]).expect("config");
        let model = QuantizedModel::for_network(&qnet, &cfg).expect("model");
        let mut single = qnet.batch_plan_quantized(&cfg, 1).expect("one-slot plan");
        let mut batched = qnet.batch_plan_quantized(&cfg, batch).expect("batch plan");
        let inputs: Vec<&Tensor> =
            data.train().iter().take(batch).map(|s| &s.image).collect();
        prop_assert_eq!(inputs.len(), batch);
        for exit in 0..qnet.num_exits() {
            let out = qnet
                .forward_to_exit_batch_with(&mut batched, &inputs, exit)
                .expect("batched forward");
            for (i, input) in inputs.iter().enumerate() {
                let reference = fake_quant_logits(&qnet, &model, input, exit).expect("reference");
                let one = qnet
                    .forward_to_exit_batch_with(&mut single, &[*input], exit)
                    .expect("planned forward");
                let single_bits: Vec<u32> = one.logits(0).iter().map(|v| v.to_bits()).collect();
                let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                let batch_bits: Vec<u32> = out.logits(i).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&single_bits, &ref_bits, "planned vs reference, exit {} sample {}", exit, i);
                prop_assert_eq!(&batch_bits, &ref_bits, "batched vs reference, exit {} sample {}", exit, i);
            }
        }
        // Incremental continuation from exit 0 agrees with the reference too.
        let input = inputs[0];
        qnet.forward_to_exit_batch_with(&mut single, &[input], 0).expect("planned forward");
        let out = qnet.continue_to_exit_batch_with(&mut single, 1).expect("continuation");
        let reference = fake_quant_logits(&qnet, &model, input, 1).expect("reference");
        prop_assert_eq!(out.logits(0), reference.as_slice());
    }
}

#[test]
fn an_i8_dominant_policy_keeps_usable_accuracy_through_the_integer_backend() {
    // End-to-end sanity beyond bit-identity: 8-bit integer execution of a
    // trained tiny network scores close to the fake-quant f32 path.
    use ie_nn::train::{evaluate_quantized, train, TrainConfig};

    let data = SyntheticDataset::generate(3, 8, 140, 0.05, 41);
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
    let mut cfg = TrainConfig::for_exits(2);
    cfg.epochs = 5;
    cfg.learning_rate = 0.1;
    train(&mut net, data.train(), data.test(), &cfg).unwrap();

    let n = net.architecture().compressible_layers().len();
    let policy = CompressionPolicy::uniform(n, 1.0, 8, 8).unwrap();
    let mut qnet = net.clone();
    let quant_cfg = apply_policy_quantized(&mut qnet, &policy, data.train()).unwrap();
    let float_accs = reference_evaluate(&net, data.test());
    let int_accs = evaluate_quantized(&qnet, &quant_cfg, data.test(), 8, 2).unwrap();
    for (f, q) in float_accs.iter().zip(&int_accs) {
        assert!((f - q).abs() < 0.15, "8-bit integer accuracy {q} strays too far from float {f}");
    }
    assert!(int_accs.iter().all(|&a| a > 0.5), "integer accuracy stays usable: {int_accs:?}");
}
