//! Heap allocations of plan lowering and pricing, counted by a counting
//! global allocator: lowering allocates per plan, not per DAG node or per
//! phase label, and the walker allocates for its timeline's vectors, not
//! per span label, per edge or per total it reads back.
//!
//! The counter is thread-local, because the test harness runs tests on
//! parallel threads. CI also runs this target in the optimised build
//! (`cargo test --release -p asr-accel --test alloc_counts`), where the
//! optimiser may remove or merge allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asr_accel::plan::{walk_cost, ExecPlan};
use asr_accel::serve::ServePool;
use asr_accel::{AccelConfig, Architecture, ServeConfig};
use asr_systolic::abft::IntegrityLevel;
use asr_transformer::TransformerConfig;

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

/// The paper build with a 2 + 1-layer model: a schedule a sixth as deep.
fn shallow() -> AccelConfig {
    let mut cfg = AccelConfig::paper_default();
    cfg.model = TransformerConfig::tiny();
    cfg.parallel_heads = 4; // tiny() has 4 heads
    cfg
}

const LEVELS: [IntegrityLevel; 2] = [IntegrityLevel::Off, IntegrityLevel::Detect];

/// What lowering allocates for any eager plan whose labels the name table
/// holds, whatever its depth, batch or checks: the batch's input lengths
/// (twice: `lower` builds them, the plan keeps a copy), the phase table,
/// the resident-stripe flags, and the node, load and compute tables.
const LOWER_BLOCKS: usize = 7;

/// What the walker allocates for a plan of the 18-layer schedule: the
/// per-phase compute times and the cache of their kinds, the per-phase load
/// and compute end times, and the timeline's span vector, unit list and
/// per-unit span indices as they grow (36 spans at A1 and A2, 48 at A3).
fn walk_blocks(arch: Architecture) -> usize {
    match arch {
        Architecture::A3 => 23,
        _ => 20,
    }
}

fn lower(cfg: &AccelConfig, arch: Architecture, batch: usize, level: IntegrityLevel) -> ExecPlan {
    ExecPlan::lower(cfg, arch, cfg.max_seq_len, batch, level).unwrap()
}

#[test]
fn lowering_allocates_per_plan_not_per_node() {
    for (name, cfg) in configs().into_iter().chain([("2 + 1 layers", shallow())]) {
        for arch in Architecture::ALL {
            lower(&cfg, arch, 1, IntegrityLevel::Off); // warm any one-time set-up
            for level in LEVELS {
                for batch in [1usize, 8] {
                    let (n, plan) = blocks(|| lower(&cfg, arch, batch, level));
                    assert_eq!(
                        n,
                        LOWER_BLOCKS,
                        "{name} {arch:?} batch {batch} {level:?}: {} phases and {} nodes",
                        plan.phases.len(),
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
                        n < 2 * spans && n == walk_blocks(arch),
                        "{name} {arch:?} batch {batch} {level:?}: {n} blocks for {spans} spans"
                    );
                }
            }
        }
    }
}

/// A serve pool's set-up lowers and walks its solo plan once; the rest of
/// what it allocates is the pool's own per-card state.
#[test]
fn a_serve_pool_sets_up_in_a_fixed_number_of_blocks() {
    let cfg = ServeConfig::new(2, 0, 120.0, 0.2);
    ServePool::new(cfg.clone()).unwrap(); // warm any one-time set-up
    let (n, _) = blocks(move || ServePool::new(cfg).unwrap());
    assert_eq!(n, 33, "ServePool::new of a 2-card int8 pool");
}
