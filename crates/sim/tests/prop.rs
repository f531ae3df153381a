//! Property tests for the simulator's structural invariants (on the
//! in-repo `gvf-prop` harness; the workspace builds offline).

use gvf_mem::DeviceMemory;
use gvf_prop::{gen, props, Rng};
use gvf_sim::{
    lanes_from_fn, run_kernel, AccessTag, AttribReport, AttributionProbe, CycleAuditProbe,
    CycleAuditReport, Gpu, GpuConfig, KernelTrace, MemOp, Op, Probe, SectoredCache, SimPool, Space,
    Stats, WarpTrace,
};

fn mem_op(addrs: Vec<u64>, tag: AccessTag) -> Op {
    let mask = if addrs.len() >= 32 {
        u32::MAX
    } else {
        (1u32 << addrs.len()) - 1
    };
    Op::Mem(MemOp {
        space: Space::Global,
        is_store: false,
        width: 8,
        mask,
        addrs: addrs.into(),
        tag,
    })
}

/// Coalescing: transactions per load are between 1 and the lane count,
/// and equal the number of distinct sectors.
#[test]
fn coalescer_counts_distinct_sectors() {
    props!(48, |rng| {
        let addrs = gen::vec(gen::range_u64(0, 1_000_000), 1..32)(rng);
        let mut distinct: Vec<u64> = addrs.iter().map(|a| a / 32).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut w = WarpTrace::new();
        w.push(mem_op(addrs.clone(), AccessTag::Field));
        let s = Gpu::new(GpuConfig::small()).execute(&KernelTrace { warps: vec![w] });
        assert_eq!(s.global_load_transactions, distinct.len() as u64);
        assert!(s.global_load_transactions >= 1);
        assert!(s.global_load_transactions <= addrs.len() as u64);
    });
}

/// Monotonicity: appending work never reduces simulated cycles, and
/// cycles are always positive for non-empty kernels.
#[test]
fn more_work_never_faster() {
    props!(48, |rng| {
        let n_alu = rng.range_u64(1, 200) as u16;
        let extra = rng.range_u64(1, 200) as u16;
        let mk = |n: u16| {
            let mut w = WarpTrace::new();
            w.push(Op::Alu(n));
            Gpu::new(GpuConfig::small())
                .execute(&KernelTrace { warps: vec![w] })
                .cycles
        };
        let a = mk(n_alu);
        let b = mk(n_alu + extra);
        assert!(a > 0);
        assert!(b >= a);
    });
}

/// Instruction accounting: the engine reports exactly the dynamic
/// instructions present in the trace, for any op mix.
#[test]
fn instruction_accounting_exact() {
    props!(48, |rng| {
        let ops = gen::vec(gen::range_usize(0, 5), 1..64)(rng);
        let mut w = WarpTrace::new();
        let mut expect = 0u64;
        for (i, k) in ops.iter().enumerate() {
            match k {
                0 => {
                    w.push(Op::Alu(3));
                    expect += 3;
                }
                1 => {
                    w.push(Op::Branch);
                    expect += 1;
                }
                2 => {
                    w.push(mem_op(vec![i as u64 * 64], AccessTag::Other));
                    expect += 1;
                }
                3 => {
                    w.push(Op::IndirectCall { target: 0 });
                    expect += 1;
                }
                _ => {
                    w.push(Op::Ret);
                    expect += 1;
                }
            }
        }
        let s = Gpu::new(GpuConfig::small()).execute(&KernelTrace {
            warps: vec![w.clone()],
        });
        assert_eq!(s.total_instrs(), expect);
        assert_eq!(s.total_instrs(), w.dyn_instrs());
    });
}

/// The cache never reports more hits than accesses, regardless of the
/// access stream.
#[test]
fn cache_hits_bounded() {
    props!(48, |rng| {
        let stream = gen::vec(gen::range_u64(0, 4096), 1..512)(rng);
        let mut c = SectoredCache::new(1024, 2, 128, 32);
        for a in stream {
            c.access(a);
        }
        assert!(c.hits() + c.misses() > 0);
        assert!(c.hit_rate() <= 1.0);
        // Re-touching the same address immediately must hit.
        c.access(12345);
        let h = c.hits();
        c.access(12345);
        assert_eq!(c.hits(), h + 1);
    });
}

/// An arbitrary counter set, every field populated.
fn arb_stats(rng: &mut Rng) -> Stats {
    let mut s = Stats::new();
    s.cycles = rng.range_u64(0, 1 << 40);
    s.instrs_mem = rng.next_u64() >> 20;
    s.instrs_compute = rng.next_u64() >> 20;
    s.instrs_ctrl = rng.next_u64() >> 20;
    s.global_load_transactions = rng.next_u64() >> 20;
    s.global_store_transactions = rng.next_u64() >> 20;
    s.l1_accesses = rng.next_u64() >> 20;
    s.l1_hits = rng.next_u64() >> 20;
    s.l2_accesses = rng.next_u64() >> 20;
    s.l2_hits = rng.next_u64() >> 20;
    s.dram_accesses = rng.next_u64() >> 20;
    s.const_accesses = rng.next_u64() >> 20;
    s.const_hits = rng.next_u64() >> 20;
    for slot in s.stall_by_tag.iter_mut() {
        *slot = rng.next_u64() >> 20;
    }
    for slot in s.load_transactions_by_tag.iter_mut() {
        *slot = rng.next_u64() >> 20;
    }
    s.warps = rng.range_u64(0, 1 << 20);
    s.vfunc_calls = rng.next_u64() >> 20;
    s
}

/// `Stats::merged` is order-independent and associative — the property
/// the deterministic parallel merge rests on.
#[test]
fn stats_merge_order_independent() {
    props!(48, |rng| {
        let parts: Vec<Stats> = gen::vec(arb_stats, 1..12)(rng);
        let merged = Stats::merged(&parts);
        let mut reversed: Vec<Stats> = parts.clone();
        reversed.reverse();
        assert_eq!(merged, Stats::merged(&reversed));
        // Associativity: fold a random split pairwise.
        let cut = rng.range_usize(0, parts.len());
        let left = Stats::merged(&parts[..cut]);
        let right = Stats::merged(&parts[cut..]);
        assert_eq!(merged, Stats::merged([&left, &right]));
        // Merging matches sequential AddAssign accumulation.
        let mut acc = Stats::new();
        for p in &parts {
            acc += p;
        }
        assert_eq!(merged, acc);
    });
}

/// Merging with zeroed counters is the identity, and per-field totals
/// are exact sums.
#[test]
fn stats_merge_identity_and_sums() {
    props!(48, |rng| {
        let parts: Vec<Stats> = gen::vec(arb_stats, 1..8)(rng);
        let merged = Stats::merged(&parts);
        let mut with_zero = parts.clone();
        with_zero.push(Stats::new());
        assert_eq!(merged, Stats::merged(&with_zero));
        let total: u64 = parts.iter().map(|p| p.cycles).sum();
        assert_eq!(merged.cycles, total);
        let l1: u64 = parts.iter().map(|p| p.l1_hits).sum();
        assert_eq!(merged.l1_hits, l1);
    });
}

/// A `SimPool` sweep merges to the same totals for any job count.
#[test]
fn pool_sweep_merge_deterministic() {
    props!(8, |rng| {
        let seeds = gen::vec(gen::any_u64(), 2..6)(rng);
        let sweep = |jobs: usize| -> Stats {
            let results = SimPool::new(jobs).run(&seeds, |&seed| {
                let mut w = WarpTrace::new();
                let addrs: Vec<u64> = (0..32).map(|l| (seed % 4096) * 64 + l * 40).collect();
                w.push(mem_op(addrs, AccessTag::VtablePtr));
                w.push(Op::Alu((seed % 7) as u16 + 1));
                Gpu::new(GpuConfig::small()).execute(&KernelTrace { warps: vec![w] })
            });
            Stats::merged(&results)
        };
        assert_eq!(sweep(1), sweep(4));
    });
}

/// Functional layer: masked stores only write active lanes, whatever
/// the mask.
#[test]
fn masked_stores_respect_mask() {
    props!(48, |rng| {
        let mask = rng.range_u64(1, u32::MAX as u64 + 1) as u32;
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let base = mem.reserve(256, 8);
        run_kernel(&mut mem, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 8)));
            let vals = lanes_from_fn(|_| Some(7u64));
            w.with_mask(mask, |w| w.st(AccessTag::Other, 8, &addrs, &vals));
        });
        for i in 0..32 {
            let v = mem.read_u64(base.offset(i as u64 * 8)).unwrap();
            let expect = if (mask >> i) & 1 == 1 { 7 } else { 0 };
            assert_eq!(v, expect, "lane {i}");
        }
    });
}

/// Generates a random multi-warp kernel mixing ALU, control, dispatch
/// and tagged memory ops (loads, stores, constant-space walks).
fn arb_kernel(rng: &mut Rng) -> KernelTrace {
    let n_warps = rng.range_usize(1, 20);
    let mut warps = Vec::with_capacity(n_warps);
    for _ in 0..n_warps {
        let mut w = WarpTrace::new();
        for _ in 0..rng.range_usize(1, 20) {
            match rng.range_usize(0, 6) {
                0 => w.push(Op::Alu(rng.range_u64(1, 8) as u16)),
                1 => w.push(Op::Branch),
                2 => w.push(Op::IndirectCall {
                    target: rng.range_u64(0, 6),
                }),
                3 => {
                    let tag = AccessTag::ALL[rng.range_usize(0, AccessTag::ALL.len())];
                    let addrs = gen::vec(gen::range_u64(0, 1 << 16), 1..32)(rng);
                    w.push(mem_op(addrs, tag));
                }
                4 => {
                    let addrs = gen::vec(gen::range_u64(0, 1 << 16), 1..32)(rng);
                    let mask = (1u32 << addrs.len().min(31)) - 1;
                    w.push(Op::Mem(MemOp {
                        space: Space::Global,
                        is_store: true,
                        width: 8,
                        mask: mask.max(1),
                        addrs: addrs.into(),
                        tag: AccessTag::Field,
                    }));
                }
                _ => {
                    let addrs = gen::vec(gen::range_u64(0, 4096), 1..32)(rng);
                    let mask = (1u32 << addrs.len().min(31)) - 1;
                    w.push(Op::Mem(MemOp {
                        space: Space::Const,
                        is_store: false,
                        width: 8,
                        mask: mask.max(1),
                        addrs: addrs.into(),
                        tag: AccessTag::VfuncPtr,
                    }));
                }
            }
        }
        warps.push(w);
    }
    KernelTrace { warps }
}

/// Attribution histograms merge associatively and commutatively with
/// exact totals — the algebra the thread-count-independent merged
/// report rests on.
#[test]
fn log_hist_merge_associative_commutative() {
    use gvf_sim::LogHist;
    props!(48, |rng| {
        let mk = |rng: &mut Rng| {
            let mut h = LogHist::new();
            for _ in 0..rng.range_usize(0, 20) {
                h.record(rng.next_u64() >> rng.range_u64(0, 64));
            }
            h
        };
        let (a, b, c) = (mk(rng), mk(rng), mk(rng));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge is associative");
        assert_eq!(ab_c.total(), a.total() + b.total() + c.total());
    });
}

/// Attribution inherits the engine's determinism contract: on arbitrary
/// kernels, the merged [`AttribReport`] is identical for any host
/// thread count and any merge order, probing never perturbs `Stats`,
/// and the attributed per-tag transaction totals reconcile exactly with
/// the `Stats` load-transaction counters (the profiler's hard
/// cross-check invariant).
#[test]
fn attribution_identical_any_thread_count() {
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let plain = Gpu::new(cfg.clone()).execute(&kernel);
        let (stats, probes) =
            Gpu::new(cfg.clone()).execute_probed(&kernel, |_| AttributionProbe::new());
        assert_eq!(stats, plain, "attribution probe perturbed Stats");
        let mut serial = AttribReport::default();
        for p in probes {
            serial.merge(p.report());
        }
        for tag in AccessTag::ALL {
            assert_eq!(
                serial.transactions_by_tag(tag),
                plain.load_transactions_by_tag[tag.index()],
                "attribution does not reconcile for {tag:?}"
            );
        }
        for threads in [2usize, 5] {
            let (s, probes) = Gpu::new(cfg.clone())
                .with_threads(threads)
                .execute_probed(&kernel, |_| AttributionProbe::new());
            assert_eq!(s, plain, "probed Stats diverged at {threads} threads");
            // Merge in reverse SM order: commutativity must make the
            // whole-GPU report insensitive to it.
            let mut reports: Vec<AttribReport> = probes
                .into_iter()
                .map(AttributionProbe::into_report)
                .collect();
            reports.reverse();
            let mut total = AttribReport::default();
            for r in &reports {
                total.merge(r);
            }
            assert_eq!(total, serial, "attribution diverged at {threads} threads");
        }
    });
}

/// Cycle-audit invariants: (1) the audit probe never perturbs `Stats`;
/// (2) the epoch-class accounting covers each SM's timeline exactly —
/// `active + stalledKnown + stalledOther + drained + skipped + tail ==
/// sms × Stats::cycles`; (3) the merged report is bit-identical for
/// any host thread count (the serial-vs-parallel byte-diff CI gate in
/// library form), on arbitrary kernels.
#[test]
fn cycle_audit_reconciles_and_is_thread_count_invariant() {
    let audit_of = |gpu: Gpu, kernel: &KernelTrace, plain: &Stats| -> CycleAuditReport {
        let (stats, probes) = gpu.execute_probed(kernel, |_| CycleAuditProbe::new());
        assert_eq!(&stats, plain, "audit probe perturbed Stats");
        let mut report = CycleAuditReport {
            sms: probes.len() as u64,
            audited_cycles: stats.cycles,
            ..CycleAuditReport::default()
        };
        for p in probes {
            p.finalize_into(stats.cycles, &mut report);
        }
        report
    };
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let plain = Gpu::new(cfg.clone()).execute(&kernel);
        let serial = audit_of(Gpu::new(cfg.clone()), &kernel, &plain);
        assert!(
            serial.reconciles(),
            "audit classes {} != {} sms x {} cycles",
            serial.classes_total(),
            serial.sms,
            serial.audited_cycles
        );
        assert_eq!(serial.audited_cycles, plain.cycles);
        for threads in [2usize, 5] {
            let parallel = audit_of(Gpu::new(cfg.clone()).with_threads(threads), &kernel, &plain);
            assert_eq!(parallel, serial, "audit diverged at {threads} threads");
        }
    });
}

/// The determinism-checked artifacts of one run: [`Stats`], the merged
/// attribution report and the merged cycle-audit report, from
/// [`Gpu::execute_serial_probed`] or [`Gpu::execute_probed`].
fn determinism_artifacts(
    gpu: &Gpu,
    serial: bool,
    kernel: &KernelTrace,
) -> (Stats, AttribReport, CycleAuditReport) {
    let (stats, aprobes) = if serial {
        gpu.execute_serial_probed(kernel, |_| AttributionProbe::new())
    } else {
        gpu.execute_probed(kernel, |_| AttributionProbe::new())
    };
    let mut attrib = AttribReport::default();
    for p in aprobes {
        attrib.merge(p.report());
    }
    let (s2, cprobes) = if serial {
        gpu.execute_serial_probed(kernel, |_| CycleAuditProbe::new())
    } else {
        gpu.execute_probed(kernel, |_| CycleAuditProbe::new())
    };
    assert_eq!(stats, s2, "Stats differ across probe kinds");
    let mut audit = CycleAuditReport {
        sms: cprobes.len() as u64,
        audited_cycles: s2.cycles,
        ..CycleAuditReport::default()
    };
    for p in cprobes {
        p.finalize_into(s2.cycles, &mut audit);
    }
    (stats, attrib, audit)
}

/// [`Gpu::execute`] and [`Gpu::execute_serial`] both reproduce the
/// serial reference's artifacts with fast-forward on and off, at 1/2/8
/// host threads.
fn assert_execute_matches_serial(cfg: &GpuConfig, kernel: &KernelTrace) {
    let reference = determinism_artifacts(&Gpu::new(cfg.clone()), true, kernel);
    for ff in [true, false] {
        for threads in [1usize, 2, 8] {
            let gpu = Gpu::new(cfg.clone())
                .with_threads(threads)
                .with_fast_forward(ff);
            let parallel = determinism_artifacts(&gpu, false, kernel);
            assert_eq!(
                parallel, reference,
                "execute diverged from serial reference (ff={ff}, threads={threads})"
            );
            let serial = determinism_artifacts(&gpu, true, kernel);
            assert_eq!(
                serial, reference,
                "execute_serial diverged (ff={ff}, threads={threads})"
            );
        }
    }
}

/// The engine's whole determinism contract in property form:
/// [`Gpu::execute`] ≡ [`Gpu::execute_serial`] over random programs,
/// with fast-forward on and off, at 1/2/8 host threads. All three
/// determinism-checked artifacts must agree — [`Stats`], the merged
/// attribution report and the merged cycle-audit report. The structs
/// compared here are exactly what the harness serializes, and the
/// serializer is deterministic, so struct equality is artifact
/// byte-equality.
#[test]
fn execute_matches_execute_serial_over_ff_and_threads() {
    props!(8, |rng| {
        let kernel = arb_kernel(rng);
        assert_execute_matches_serial(&GpuConfig::small(), &kernel);
    });
}

/// Counts the misses that found the MSHR file full.
#[derive(Default)]
struct MshrWaits(u64);

impl Probe for MshrWaits {
    fn mshr_wait(&mut self, _cycle: u64, _until: u64) {
        self.0 += 1;
    }
}

/// Generates a miss-heavy kernel: many warps issuing diverged loads
/// over a footprint far beyond the small config's caches, so the MSHR
/// file fills.
fn arb_miss_kernel(rng: &mut Rng) -> KernelTrace {
    let warps = (0..rng.range_usize(4, 24))
        .map(|_| {
            let mut w = WarpTrace::new();
            for _ in 0..rng.range_usize(1, 10) {
                if rng.bool(0.2) {
                    w.push(Op::Alu(rng.range_u64(1, 4) as u16));
                    continue;
                }
                let base = rng.range_u64(0, 1 << 24) * 32;
                let stride = *rng.pick(&[32u64, 128, 4096]);
                let lanes = rng.range_u64(8, 33);
                let tag = *rng.pick(&[AccessTag::Field, AccessTag::VtablePtr, AccessTag::VfuncPtr]);
                w.push(mem_op((0..lanes).map(|l| base + l * stride).collect(), tag));
            }
            w
        })
        .collect();
    KernelTrace { warps }
}

/// The determinism contract in the MSHR-gated regime: with a small
/// `mshr_per_sm`, scheduler back-pressure (file within a warp of full)
/// and `mshr_acquire` (file full, the miss waits) both gate issue, and
/// [`Gpu::execute`] ≡ [`Gpu::execute_serial`] must still hold with
/// fast-forward on and off at 1/2/8 host threads. At least one case
/// must actually wait on a full file, or the property covers nothing.
#[test]
fn execute_matches_execute_serial_with_mshr_gating() {
    let mut waits = 0u64;
    props!(8, |rng| {
        let kernel = arb_miss_kernel(rng);
        let mut cfg = GpuConfig::small();
        cfg.mshr_per_sm = rng.range_usize(4, 49);
        let (_, probes) = Gpu::new(cfg.clone()).execute_serial_probed(&kernel, |_| MshrWaits(0));
        waits += probes.iter().map(|p| p.0).sum::<u64>();
        assert_execute_matches_serial(&cfg, &kernel);
    });
    assert!(waits > 0, "no generated case waited on a full MSHR file");
}

/// Observability invariant: probes never perturb the run (`Stats` from
/// a probed execution are bit-identical to the un-probed `NopProbe`
/// path), and the hook stream is *complete* — a [`CountingProbe`]
/// reconstructs every event-derived counter exactly. Holds serially and
/// in parallel for any host thread count, on arbitrary kernels.
#[test]
fn probe_events_reconstruct_stats_any_thread_count() {
    use gvf_sim::CountingProbe;
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let plain = Gpu::new(cfg.clone()).execute(&kernel);
        for threads in [1usize, 2, 5] {
            let gpu = Gpu::new(cfg.clone()).with_threads(threads);
            let (s, probes) = gpu.execute_probed(&kernel, |_| CountingProbe::new());
            assert_eq!(s, plain, "probed Stats diverged at {threads} threads");
            let mut view = CountingProbe::merged(&probes);
            // The trace-derived trio is carried by no event; copy it
            // over and demand everything else match exactly.
            view.cycles = plain.cycles;
            view.warps = plain.warps;
            view.vfunc_calls = plain.vfunc_calls;
            assert_eq!(view, plain, "event stream incomplete at {threads} threads");
        }
    });
}
