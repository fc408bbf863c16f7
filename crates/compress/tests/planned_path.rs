//! The planned (allocation-free) forward path — a one-slot `BatchPlan` — and
//! the allocating path must agree bit for bit on *compressed* networks too —
//! after `apply_policy` has pruned channels and flipped the affected conv
//! layers onto the sparsity-aware GEMM.

use ie_compress::{apply::apply_policy, CompressionPolicy};
use ie_nn::spec::tiny_multi_exit;
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn network(seed: u64) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
}

#[test]
fn pruning_flips_conv_layers_onto_the_sparse_kernel() {
    let mut net = network(1);
    let n = net.architecture().compressible_layers().len();
    apply_policy(&mut net, &CompressionPolicy::uniform(n, 0.5, 8, 8).unwrap()).unwrap();
    for layer in net.segments().iter().flatten() {
        if let Layer::Conv2d(conv) = layer {
            assert!(conv.sparse_hint(), "pruned conv layers must use the sparse-aware GEMM");
        }
    }
    let mut untouched = network(1);
    apply_policy(&mut untouched, &CompressionPolicy::full_precision(n)).unwrap();
    for layer in untouched.segments().iter().flatten() {
        if let Layer::Conv2d(conv) = layer {
            assert!(!conv.sparse_hint(), "unpruned conv layers keep the dense kernel");
        }
    }
}

#[test]
fn planned_and_allocating_paths_agree_on_compressed_networks() {
    for seed in 0..3u64 {
        let mut net = network(seed);
        let n = net.architecture().compressible_layers().len();
        apply_policy(&mut net, &CompressionPolicy::uniform(n, 0.4, 4, 8).unwrap()).unwrap();
        let mut plan = net.batch_plan(1);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        for _ in 0..3 {
            let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
            for exit in 0..net.num_exits() {
                let (reference, _) = net.forward_to_exit(&x, exit).unwrap();
                let planned = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
                assert_eq!(planned.prediction(0), reference.prediction);
                assert_eq!(planned.logits(0), reference.logits.as_slice());
                assert_eq!(planned.probs(0), reference.probs.as_slice());
            }
        }
    }
}
