//! A warmed plan executes with zero heap allocations.
//!
//! The scratch arena ([`wp_engine::Scratch`]) exists so the global
//! allocator is off the engine hot path: every activation plane, raw
//! accumulator and kernel working set is checked out of per-worker pools
//! and returned after use. A run's buffer demand is fixed by the plan,
//! so after a handful of warmup runs every pool holds its peak demand
//! and [`wp_engine::PreparedNet::run`], with its outputs handed back via
//! [`Scratch::put_planes`], stops touching the allocator entirely. This
//! test pins that with a counting global allocator: warm the arena, then
//! assert **zero** allocations across whole solo (a batch of one) and
//! batched inferences.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrent test's allocations would race the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::{Rng, SeedableRng};
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{
    avx2_available, BackendKind, EngineOptions, MacRoute, PreparedNet, ScatterRoute, Scratch,
};

/// Counts allocator entries (alloc/realloc) while armed; frees are not
/// counted — a steady state may still *return* warmup memory, it just
/// must not request more.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f` with the counter armed.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Every kernel kind the engine implements, so the steady state covers
/// the whole dispatch surface: direct conv, pooled conv, max/avg pool,
/// depthwise, residual, global avg pool and dense.
fn all_kinds_bundle() -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0A11);
    let vectors: Vec<Vec<f32>> =
        (0..16).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let spec = NetSpec {
        name: "zero-alloc".into(),
        input: (8, 8, 8),
        classes: 5,
        layers: vec![
            LayerSpec::Conv(ConvSpec {
                in_ch: 8,
                out_ch: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: false,
            }),
            LayerSpec::Conv(ConvSpec {
                in_ch: 8,
                out_ch: 16,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: true,
            }),
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::DwConv { channels: 16, kernel: 3, stride: 1, pad: 1 },
            LayerSpec::ResidualAdd,
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 16, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> = (0..8 * 8 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let indices: Vec<u8> = (0..16 * 9).map(|_| rng.gen_range(0..16) as u8).collect();
    DeployBundle {
        spec,
        pool,
        lut,
        convs: vec![
            ConvPayload::Direct { weights: direct, scale: 0.01 },
            ConvPayload::Pooled { indices },
        ],
        act_bits: 8,
    }
}

#[test]
fn warmed_runs_do_not_allocate() {
    // The swar tier: the steady state covers the batched pooled-gather
    // tiles, the fused write-out, the pooling kernels' row buffers and
    // the SSE2 madd kernels of the direct, depthwise and dense layers,
    // whose staged `i16` rows come from the arena. The avx2 tier (where the CPU has it) runs the
    // register-resident pooled scatter and the AVX2 madd kernels.
    // Untraced — the traced path is allowed to allocate in its observers.
    let mut tiers = vec![(BackendKind::Swar, ScatterRoute::Gather, MacRoute::Madd)];
    if avx2_available() {
        tiers.push((BackendKind::Avx2, ScatterRoute::Registers, MacRoute::Madd));
    }
    for (tier, scatter, mac) in tiers {
        let opts = EngineOptions::new().with_act_bits(2).with_backend(tier);
        let net = PreparedNet::from_bundle(&all_kinds_bundle(), &opts);
        assert_eq!(net.scatter_routes(), [scatter], "{tier}");
        assert_eq!(net.mac_routes(), [mac; 3], "{tier}");
        assert_steady_state_is_allocation_free(&net, tier);
    }
}

fn assert_steady_state_is_allocation_free(net: &PreparedNet, tier: BackendKind) {
    let mut scratch = Scratch::new();
    let inputs = net.fabricate_inputs(11, 7);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let want_solo = vec![net.run_one(&inputs[0])];
    let want_batch: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();

    // Warm every pool to its peak demand (the demand multiset is fixed
    // by the plan, so a few runs converge).
    for _ in 0..8 {
        let outs = net.run(&refs[..1], &mut scratch);
        scratch.put_planes(outs);
        let outs = net.run(&refs, &mut scratch);
        scratch.put_planes(outs);
    }

    // Comparing borrowed planes allocates nothing, so the check runs
    // inside the armed window, before the outputs go back to the arena.
    let (mut solo_ok, mut batch_ok) = (false, false);
    let solo_allocs = allocations_during(|| {
        let outs = net.run(&refs[..1], &mut scratch);
        solo_ok = outs == want_solo;
        scratch.put_planes(outs);
    });
    let batch_allocs = allocations_during(|| {
        let outs = net.run(&refs, &mut scratch);
        batch_ok = outs == want_batch;
        scratch.put_planes(outs);
    });

    // The runs must still compute the right thing...
    assert!(solo_ok, "{tier}: warmed solo run diverged from run_one");
    assert!(batch_ok, "{tier}: warmed batched run diverged from run_one");
    // ...without ever entering the allocator.
    assert_eq!(solo_allocs, 0, "{tier}: solo steady state must not allocate");
    assert_eq!(batch_allocs, 0, "{tier}: batched steady state must not allocate");
}
