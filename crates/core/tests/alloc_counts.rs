//! Heap allocations of plan lowering and pricing, counted by a counting
//! global allocator: lowering allocates per plan, not per DAG node, and the
//! walker allocates per span, not per edge or per total it reads back.
//!
//! The counter is thread-local, because the test harness runs tests on
//! parallel threads. CI also runs this target in the optimised build
//! (`cargo test --release -p asr-accel --test alloc_counts`), where the
//! optimiser may remove or merge allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asr_accel::plan::{walk_cost, ExecPlan};
use asr_accel::{AccelConfig, Architecture, ServeConfig};
use asr_systolic::abft::IntegrityLevel;

/// The system allocator, counting every block it hands out (a `realloc`
/// hands out a new one) on the calling thread.
struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count_block() {
    // A const-initialised `Cell` has no destructor, so the slot is never
    // torn down; `try_with` only keeps the allocator from ever panicking.
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks `f` allocates on this thread, with its result.
fn blocks<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

/// The two builds the pools and the benchmark price: the serve pool's int8
/// card and the paper build at s = 32.
fn configs() -> [(&'static str, AccelConfig); 2] {
    [("serve", ServeConfig::new(2, 0, 120.0, 0.2).accel), ("paper", AccelConfig::paper_default())]
}

const LEVELS: [IntegrityLevel; 2] = [IntegrityLevel::Off, IntegrityLevel::Detect];

fn lower(cfg: &AccelConfig, arch: Architecture, batch: usize, level: IntegrityLevel) -> ExecPlan {
    ExecPlan::lower(cfg, arch, cfg.max_seq_len, batch, level).unwrap()
}

#[test]
fn lowering_allocates_per_plan_not_per_node() {
    for (name, cfg) in configs() {
        for arch in Architecture::ALL {
            lower(&cfg, arch, 1, IntegrityLevel::Off); // warm any one-time set-up
            let solo = blocks(|| lower(&cfg, arch, 1, IntegrityLevel::Off)).0;
            for level in LEVELS {
                for batch in [1usize, 8] {
                    let (n, plan) = blocks(|| lower(&cfg, arch, batch, level));
                    assert_eq!(
                        n,
                        solo,
                        "{name} {arch:?} batch {batch} {level:?}: {} nodes cost {n} blocks, \
                         the solo unchecked plan {solo}",
                        plan.nodes.len()
                    );
                }
            }
        }
    }
}

#[test]
fn walking_allocates_fewer_than_two_blocks_per_span() {
    for (name, cfg) in configs() {
        for arch in Architecture::ALL {
            for level in LEVELS {
                for batch in [1usize, 8] {
                    let plan = lower(&cfg, arch, batch, level);
                    walk_cost(&cfg, &plan); // warm any one-time set-up
                    let (n, cost) = blocks(|| walk_cost(&cfg, &plan));
                    let spans = cost.timeline.spans().len();
                    assert!(
                        n < 2 * spans,
                        "{name} {arch:?} batch {batch} {level:?}: {n} blocks for {spans} spans"
                    );
                }
            }
        }
    }
}
