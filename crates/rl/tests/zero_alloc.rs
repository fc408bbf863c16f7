//! Counting-allocator regression test: a warmed-up DDPG minibatch update
//! performs **zero** heap allocations.
//!
//! The counting is per-thread (a `const`-initialised thread-local `Cell`, so
//! the bookkeeping itself never allocates and never races with the other test
//! threads of the harness), and the whole file contains a single test so no
//! sibling test can interleave allocations on this thread.

use ie_rl::{DdpgAgent, DdpgConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
fn warmed_ddpg_update_performs_zero_heap_allocations() {
    // The compression search's shape: a 12-wide observation, a 48-wide
    // hidden layer and a minibatch of 48.
    let mut rng = StdRng::seed_from_u64(3);
    let config = DdpgConfig { hidden: 48, replay_capacity: 256, ..DdpgConfig::default() };
    let mut agent = DdpgAgent::new(&mut rng, 12, 2, config);
    for step in 0..100 {
        let state: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let action = agent.act_exploring(&state, &mut rng).unwrap();
        agent.observe(Transition {
            action,
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            done: step % 4 == 0,
            state,
        });
    }
    // Warm-up: the first update sizes the pass buffers and the minibatch
    // index buffer.
    agent.update(&mut rng, 48).unwrap().expect("replay is not empty");

    let before = allocations_on_this_thread();
    let mut td = 0.0;
    for _ in 0..20 {
        td += agent.update(&mut rng, 48).unwrap().expect("replay is not empty");
    }
    let allocations = allocations_on_this_thread() - before;
    assert!(td.is_finite());
    assert_eq!(allocations, 0, "a warmed DDPG update must not allocate");
}
