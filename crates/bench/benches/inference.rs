//! Criterion benches of the neural-network substrate: forward passes of the
//! multi-exit backbone, incremental continuation and compression mechanics.

use criterion::{criterion_group, criterion_main, Criterion};
use ie_compress::{apply::apply_policy, pruning, quantize, CompressionPolicy};
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::MultiExitNetwork;
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_multi_exit_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let arch = lenet_multi_exit();
    let net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
    let input = Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0);
    let mut group = c.benchmark_group("multi_exit_forward");
    group.sample_size(10);
    for exit in 0..3 {
        group.bench_function(format!("to_exit_{}", exit + 1), |b| {
            b.iter(|| black_box(net.forward_to_exit(&input, exit).unwrap().0.prediction))
        });
    }
    group.bench_function("incremental_exit1_to_exit3", |b| {
        b.iter(|| {
            let (_, state) = net.forward_to_exit(&input, 0).unwrap();
            black_box(net.continue_to_exit(&state, 2).unwrap().0.prediction)
        })
    });
    group.finish();

    // Planned (allocation-free) path — a one-slot plan — against the
    // allocating API on the same network and input, so the two groups are
    // directly comparable.
    let mut plan = net.batch_plan(1);
    let mut group = c.benchmark_group("multi_exit_forward_planned");
    group.sample_size(10);
    for exit in 0..3 {
        group.bench_function(format!("to_exit_{}", exit + 1), |b| {
            b.iter(|| {
                black_box(
                    net.forward_to_exit_batch_with(&mut plan, &[&input], exit)
                        .unwrap()
                        .prediction(0),
                )
            })
        });
    }
    group.bench_function("incremental_exit1_to_exit3", |b| {
        b.iter(|| {
            net.forward_to_exit_batch_with(&mut plan, &[&input], 0).unwrap();
            black_box(net.continue_to_exit_batch_with(&mut plan, 2).unwrap().prediction(0))
        })
    });
    group.finish();

    // Batched path: 8 samples per widened pass through a reusable BatchPlan,
    // directly comparable to 8 iterations of the planned group above.
    let batch_inputs: Vec<Tensor> =
        (0..8).map(|_| Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0)).collect();
    let batch_refs: Vec<&Tensor> = batch_inputs.iter().collect();
    let mut batch_plan = net.batch_plan(8);
    let mut group = c.benchmark_group("multi_exit_forward_batched");
    group.sample_size(10);
    for exit in 0..3 {
        group.bench_function(format!("to_exit_{}_batch8", exit + 1), |b| {
            b.iter(|| {
                black_box(
                    net.forward_to_exit_batch_with(&mut batch_plan, &batch_refs, exit)
                        .unwrap()
                        .prediction(0),
                )
            })
        });
    }
    group.bench_function("incremental_exit1_to_exit3_batch8", |b| {
        b.iter(|| {
            net.forward_to_exit_batch_with(&mut batch_plan, &batch_refs, 0).unwrap();
            black_box(net.continue_to_exit_batch_with(&mut batch_plan, 2).unwrap().prediction(7))
        })
    });
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let arch = tiny_multi_exit(4);
    let mut net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
    let input = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
    c.bench_function("tiny_multi_exit_train_step", |b| {
        b.iter(|| {
            let loss = net.backward(&input, 1, &[1.0, 1.0]).unwrap();
            net.apply_gradients(0.01);
            black_box(loss)
        })
    });
}

fn bench_compression_mechanics(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let weights = Tensor::randn(&mut rng, &[64, 48, 5, 5], 0.0, 0.1);
    c.bench_function("channel_importance_64x48x5x5", |b| {
        b.iter(|| black_box(pruning::channel_importance(&weights).len()))
    });
    c.bench_function("quantize_weights_4bit_64x48x5x5", |b| {
        b.iter(|| black_box(quantize::quantize_weights(&weights, 4).mse))
    });
    let arch = lenet_multi_exit();
    let net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
    let n = arch.compressible_layers().len();
    let policy = CompressionPolicy::uniform(n, 0.5, 4, 8).unwrap();
    c.bench_function("apply_policy_to_backbone", |b| {
        b.iter(|| {
            let mut clone = net.clone();
            apply_policy(&mut clone, &policy).unwrap();
            black_box(clone.parameter_count())
        })
    });
}

criterion_group!(
    name = inference;
    config = Criterion::default().sample_size(10);
    targets = bench_multi_exit_forward, bench_training_step, bench_compression_mechanics
);
criterion_main!(inference);
