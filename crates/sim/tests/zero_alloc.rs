//! Steady-state allocation audit for the timing engine.
//!
//! The per-epoch loop (schedulers, coalescing, MSHR bookkeeping, phase
//! B) must not touch the heap: every buffer is either sized at setup or
//! reaches its high-water mark within the first few epochs. The test
//! pins that property with a counting global allocator — a long kernel
//! and a short kernel with the same per-epoch structure must cost the
//! engine *exactly* the same number of allocations, i.e. the marginal
//! allocation cost of an epoch is zero.

use gvf_sim::{AccessTag, Gpu, GpuConfig, KernelTrace, MemOp, Op, Probe, Space, WarpTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation path
/// that can hand out a new block (alloc, alloc_zeroed, realloc).
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so tests running
    /// side by side (and the harness's own threads) never count each
    /// other's allocations; the engine runs serially on the calling
    /// thread here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A kernel of `reps` identical rounds per warp: loads that hit and
/// miss, a diverged store, constant traffic and ALU work — every hot
/// path the epoch loop has. More rounds means more epochs with the
/// same per-epoch structure.
fn kernel(warps: usize, reps: usize) -> KernelTrace {
    let mk = |wi: usize| {
        let mut w = WarpTrace::new();
        for k in 0..reps {
            w.push(Op::Alu(3));
            let addrs: Vec<u64> = (0..32)
                .map(|l| ((wi * 64 + (k % 7) * 8 + l) as u64) * 32)
                .collect();
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: addrs.into(),
                tag: AccessTag::VtablePtr,
            }));
            w.push(Op::IndirectCall { target: 0 });
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: true,
                width: 4,
                mask: u32::MAX,
                addrs: (0..32u64)
                    .map(|l| 0x40_0000 + (wi as u64 * 32 + l) * 4)
                    .collect::<Vec<_>>()
                    .into(),
                tag: AccessTag::Other,
            }));
            w.push(Op::Mem(MemOp {
                space: Space::Const,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: vec![0x100 + (k as u64 % 4) * 64; 32].into(),
                tag: AccessTag::ConstIndirection,
            }));
        }
        w
    };
    KernelTrace {
        warps: (0..warps).map(mk).collect(),
    }
}

/// Asserts that `long` (more epochs, same per-epoch structure as
/// `short`) costs the engine exactly as many allocations as `short`,
/// and that it really simulated more cycles.
fn assert_epochs_allocation_free(gpu: &Gpu, short: &KernelTrace, long: &KernelTrace) {
    // Warm-up: let lazy one-time allocations (rayon-free, but e.g.
    // stdio locks or TLS inits) happen outside the measured windows.
    gpu.execute_serial(short);
    let a_short = allocs_during(|| {
        gpu.execute_serial(short);
    });
    let a_long = allocs_during(|| {
        gpu.execute_serial(long);
    });
    // More epochs, identical per-epoch structure: any marginal
    // allocation per epoch would show up as a_long > a_short.
    assert_eq!(
        a_long, a_short,
        "per-epoch allocation detected: long run cost {a_long} allocations, short run {a_short}"
    );
    let s = gpu.execute_serial(short);
    let l = gpu.execute_serial(long);
    assert!(l.cycles > s.cycles);
}

#[test]
fn epoch_loop_is_allocation_free() {
    let gpu = Gpu::new(GpuConfig::small()).with_threads(1);
    assert_epochs_allocation_free(&gpu, &kernel(40, 8), &kernel(40, 32));
}

/// A kernel of `reps` rounds per warp of fully diverged loads (32
/// sectors each) over a footprint far beyond the small config's caches:
/// every round misses to DRAM, so a small MSHR file stays saturated.
fn miss_kernel(warps: usize, reps: usize) -> KernelTrace {
    let mk = |wi: usize| {
        let mut w = WarpTrace::new();
        for k in 0..reps {
            let base = ((k * warps + wi) as u64) << 14;
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: (0..32u64)
                    .map(|l| base + l * 128)
                    .collect::<Vec<_>>()
                    .into(),
                tag: AccessTag::Field,
            }));
            w.push(Op::Alu(1));
        }
        w
    };
    KernelTrace {
        warps: (0..warps).map(mk).collect(),
    }
}

/// Counts the misses that found the MSHR file full.
struct MshrWaits(u64);

impl Probe for MshrWaits {
    fn mshr_wait(&mut self, _cycle: u64, _until: u64) {
        self.0 += 1;
    }
}

/// The MSHR-gated path allocates nothing per epoch either: with the
/// file smaller than one warp's miss burst, every load waits in
/// `mshr_acquire` and the scheduler's back-pressure defers the rest,
/// and the sorted file's inserts must stay within its preallocated
/// capacity.
#[test]
fn mshr_gated_epoch_loop_is_allocation_free() {
    let mut cfg = GpuConfig::small();
    cfg.mshr_per_sm = 16;
    let gpu = Gpu::new(cfg).with_threads(1);
    let short = miss_kernel(16, 8);
    let long = miss_kernel(16, 32);
    let (_, probes) = gpu.execute_serial_probed(&short, |_| MshrWaits(0));
    assert!(
        probes.iter().all(|p| p.0 > 0),
        "kernel does not saturate the MSHR file on every SM"
    );
    assert_epochs_allocation_free(&gpu, &short, &long);
}
