//! Counting-allocator regression test: a warmed-up planned forward pass
//! performs **zero** heap allocations.
//!
//! The counting is per-thread (a `const`-initialised thread-local `Cell`, so
//! the bookkeeping itself never allocates and never races with the other test
//! threads of the harness), and the whole file contains a single test so no
//! sibling test can interleave allocations on this thread.

use ie_nn::quant::config_from_bits;
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::MultiExitNetwork;
use ie_tensor::{QuantParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a thread-local counter bump, which cannot allocate or
// unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[test]
fn warmed_planned_forward_performs_zero_heap_allocations() {
    let mut rng = StdRng::seed_from_u64(42);
    let tiny = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
    let lenet = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
    let tiny_input = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
    let lenet_input = Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0);
    // Single inputs run as one-slot plans.
    let mut tiny_plan = tiny.batch_plan(1);
    let mut lenet_plan = lenet.batch_plan(1);

    // Batched plans: the ref slices are built up front so the measured loop
    // only reuses them.
    let mut tiny_batch_plan = tiny.batch_plan(2);
    let mut lenet_batch_plan = lenet.batch_plan(4);
    let tiny_batch = [Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0), tiny_input.clone()];
    let tiny_refs: Vec<&Tensor> = tiny_batch.iter().collect();
    let lenet_batch: Vec<Tensor> =
        (0..4).map(|_| Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0)).collect();
    let lenet_refs: Vec<&Tensor> = lenet_batch.iter().collect();

    // Quantized plans: a kernel mix (i8, i16, f32) so the integer GEMMs, the
    // quantized im2col, the widening scratch and both requantization
    // emissions (codes and f32) are all exercised inside the measured loop.
    let n = lenet.architecture().compressible_layers().len();
    let first = QuantParams::from_range(-3.0, 3.0, 8);
    let act = QuantParams::from_range(0.0, 12.0, 8);
    let entries: Vec<Option<(u8, QuantParams)>> = (0..n)
        .map(|i| match i % 3 {
            0 => Some((8, if i == 0 { first } else { act })),
            1 => Some((12, act)),
            _ => None,
        })
        .collect();
    let quant_cfg = config_from_bits(&lenet, &entries).unwrap();
    let mut quant_plan = lenet.batch_plan_quantized(&quant_cfg, 1).unwrap();
    let mut quant_batch_plan = lenet.batch_plan_quantized(&quant_cfg, 4).unwrap();

    // Warm-up: touch every code path the measured section will run.
    for _ in 0..2 {
        tiny.forward_to_exit_batch_with(&mut tiny_plan, &[&tiny_input], 0).unwrap();
        tiny.continue_to_exit_batch_with(&mut tiny_plan, 1).unwrap();
        tiny.forward_all_batch_with(&mut tiny_plan, &[&tiny_input], |_| {}).unwrap();
        for exit in 0..3 {
            lenet.forward_to_exit_batch_with(&mut lenet_plan, &[&lenet_input], exit).unwrap();
        }
        lenet.forward_to_exit_batch_with(&mut lenet_plan, &[&lenet_input], 0).unwrap();
        lenet.continue_to_exit_batch_with(&mut lenet_plan, 2).unwrap();
        tiny.forward_all_batch_with(&mut tiny_batch_plan, &tiny_refs, |_| {}).unwrap();
        lenet.forward_to_exit_batch_with(&mut lenet_batch_plan, &lenet_refs, 0).unwrap();
        lenet.continue_to_exit_batch_with(&mut lenet_batch_plan, 2).unwrap();
        lenet.forward_to_exit_batch_with(&mut quant_plan, &[&lenet_input], 0).unwrap();
        lenet.continue_to_exit_batch_with(&mut quant_plan, 2).unwrap();
        lenet.forward_to_exit_batch_with(&mut quant_batch_plan, &lenet_refs, 2).unwrap();
    }

    let before = allocations_on_this_thread();
    let mut checksum = 0usize;
    for _ in 0..10 {
        checksum += tiny
            .forward_to_exit_batch_with(&mut tiny_plan, &[&tiny_input], 0)
            .unwrap()
            .sample(0)
            .prediction;
        checksum += tiny.continue_to_exit_batch_with(&mut tiny_plan, 1).unwrap().prediction(0);
        tiny.forward_all_batch_with(&mut tiny_plan, &[&tiny_input], |out| {
            checksum += out.prediction(0);
        })
        .unwrap();
        for exit in 0..3 {
            checksum += lenet
                .forward_to_exit_batch_with(&mut lenet_plan, &[&lenet_input], exit)
                .unwrap()
                .prediction(0);
        }
        checksum += lenet
            .forward_to_exit_batch_with(&mut lenet_plan, &[&lenet_input], 0)
            .unwrap()
            .prediction(0);
        checksum += lenet.continue_to_exit_batch_with(&mut lenet_plan, 2).unwrap().prediction(0);
        // A warmed multi-sample pass is equally allocation-free.
        tiny.forward_all_batch_with(&mut tiny_batch_plan, &tiny_refs, |out| {
            checksum += out.prediction(0) + out.prediction(1);
        })
        .unwrap();
        checksum += lenet
            .forward_to_exit_batch_with(&mut lenet_batch_plan, &lenet_refs, 0)
            .unwrap()
            .prediction(3);
        checksum +=
            lenet.continue_to_exit_batch_with(&mut lenet_batch_plan, 2).unwrap().prediction(1);
        // A warmed quantized plan (integer kernels + requantization) is
        // equally allocation-free, one-slot and batched.
        checksum += lenet
            .forward_to_exit_batch_with(&mut quant_plan, &[&lenet_input], 0)
            .unwrap()
            .prediction(0);
        checksum += lenet.continue_to_exit_batch_with(&mut quant_plan, 2).unwrap().prediction(0);
        checksum += lenet
            .forward_to_exit_batch_with(&mut quant_batch_plan, &lenet_refs, 2)
            .unwrap()
            .prediction(2);
    }
    let after = allocations_on_this_thread();

    assert_eq!(
        after - before,
        0,
        "warmed planned inference must not allocate (checksum {checksum})"
    );
}
