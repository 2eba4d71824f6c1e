//! Asynchronous background compilation outside the differential oracle.
//! The oracle (`aoci_fuzz::oracle`) runs every cell of its matrix with and
//! without the background scheduler, so result equivalence and same-seed
//! reproducibility are its job; two properties stay here:
//!
//! * **Accounting.** In a faultless, OSR-less run the compilation thread
//!   is charged exactly the booked stall, and compiles really overlap
//!   execution.
//! * **Pinned schedules.** The foreground and the background scheduler
//!   share one way to compile and differ in order, charging and events —
//!   all of which key the fault injector's draw sequence. One chaos run of
//!   each is pinned to the numbers the commit before that sharing printed
//!   ([`chaos_runs_match_the_parent_commit`]).

use aoci_aos::{
    AosConfig, AosReport, AosSystem, AsyncCompileEvents, FaultConfig, RecoveryEvents, TraceConfig,
};
use aoci_core::PolicyKind;
use aoci_fuzz::oracle;
use aoci_vm::Component;
use aoci_workloads::{build, spec_by_name, WorkloadSpec};

fn small(name: &str) -> WorkloadSpec {
    let mut spec = spec_by_name(name).expect("suite workload");
    spec.iterations = 120;
    spec
}

fn run(program: &aoci_ir::Program, c: AosConfig) -> AosReport {
    AosSystem::new(program, c).run().expect("adaptive run succeeds")
}

/// The overlap/stall split accounts for every compilation-thread cycle in a
/// faultless, OSR-less async run: the thread is only ever charged the
/// stall, and some compile work really ran beside the application.
#[test]
fn async_stall_accounts_for_all_compile_cycles() {
    for name in ["mtrt", "jess"] {
        let w = build(&small(name));
        let c = oracle::config(PolicyKind::Fixed { max: 3 }).enable_async_compile();
        let report = run(&w.program, c);
        let ev = report.async_compile;
        assert_eq!(
            report.compile_cycles(),
            ev.foreground_stall_cycles,
            "{name}: compilation-thread cycles must equal the booked stall: {ev:?}"
        );
        assert!(
            ev.background_overlap_cycles > 0,
            "{name}: background compiles must overlap execution: {ev:?}"
        );
        assert!(
            ev.dispatched >= ev.completed,
            "{name}: completions cannot exceed dispatches: {ev:?}"
        );
        assert!(
            ev.enqueued >= ev.dispatched,
            "{name}: dispatches cannot exceed enqueues: {ev:?}"
        );
    }
}

/// What [`chaos_runs_match_the_parent_commit`] pins of one run.
#[derive(Debug, PartialEq)]
struct Pinned {
    total_cycles: u64,
    compilation_thread: u64,
    controller_thread: u64,
    recovery_cycles: u64,
    /// Without the rendered dump, which the fold covers.
    recovery: RecoveryEvents,
    async_compile: AsyncCompileEvents,
    /// The compilation log as `(method index, install cycle)`.
    compilations: Vec<(usize, u64)>,
    /// 64-bit FNV-1a over the rendered lines of the unbounded trace: every
    /// event, in order, with its timestamp.
    trace_fold: u64,
}

fn pinned(program: &aoci_ir::Program, c: AosConfig) -> Pinned {
    let r = run(program, c.enable_trace_with(TraceConfig { capacity: usize::MAX }));
    let resolve = |m: aoci_ir::MethodId| program.method(m).name().to_string();
    let log = r.trace_log.as_ref().expect("tracing is on");
    assert_eq!(log.dropped, 0, "the log is unbounded");
    let mut trace_fold = 0xcbf2_9ce4_8422_2325u64;
    for byte in log.render_lines(&resolve).iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        trace_fold = (trace_fold ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Pinned {
        total_cycles: r.total_cycles(),
        compilation_thread: r.clock.component(Component::CompilationThread),
        controller_thread: r.clock.component(Component::ControllerThread),
        recovery_cycles: r.clock.component(Component::Recovery),
        recovery: RecoveryEvents { trace_dump: Vec::new(), ..r.recovery.clone() },
        async_compile: r.async_compile,
        compilations: r.compilations.iter().map(|c| (c.method.index(), c.cycle)).collect(),
        trace_fold,
    }
}

/// One chaos run under each scheduler, against literals printed by this
/// body at the commit *before* the two compile paths were folded into one
/// `build` and one `land`. The fault injector's draws are keyed to the order
/// compiles start in, and the fold covers every event with its timestamp:
/// a moved draw, a reordered queue, a charge on the other side of an event
/// or a hash order reaching the compile queue each change these numbers.
/// The `trace_fold` literals moved once since, when `retry-scheduled` lines
/// gained their `cause=` token and `compile-finish` lines their `landed=`
/// token (the lines are otherwise byte-identical; neither run has a burst
/// before its first install). Every literal moved when an invalidation
/// began to plan its recompile in the same tick instead of one backoff
/// later, a method began to hold one retry deadline that its next install
/// clears, and the `cause=` token left `retry-scheduled` lines.
#[test]
fn chaos_runs_match_the_parent_commit() {
    let w = build(&small("compress"));
    let config = || {
        oracle::config(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_faults(FaultConfig::chaos(42))
    };
    let foreground = Pinned {
        total_cycles: 4_408_940,
        compilation_thread: 2_667_150,
        controller_thread: 11_250,
        recovery_cycles: 22_000,
        recovery: RecoveryEvents {
            invalidations: 32, compile_retries: 13, quarantined_methods: 5, rejected_traces: 60,
            injected_compile_faults: 14, injected_corrupt_traces: 60, dropped_samples: 78,
            receiver_bursts: 43,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 0, dispatched: 0, completed: 0, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 0, background_overlap_cycles: 0,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 72_548), (64, 167_348), (6, 214_409), (28, 295_859), (37, 314_459), (6, 334_867),
            (6, 368_279), (14, 436_923), (0, 482_590), (75, 556_540), (76, 570_040), (14, 638_890),
            (58, 670_366), (72, 735_149), (75, 810_299), (86, 858_569), (19, 883_079),
            (32, 927_122), (28, 1_015_880), (1, 1_025_180), (12, 1_072_580), (2, 1_087_162),
            (19, 1_113_262), (75, 1_191_862), (0, 1_199_315), (43, 1_241_200), (53, 1_269_250),
            (14, 1_339_300), (72, 1_409_650), (75, 1_501_608), (3, 1_510_961), (13, 1_536_442),
            (92, 1_617_099), (92, 1_712_625), (64, 1_822_786), (12, 1_887_253), (37, 1_917_553),
            (72, 2_027_964), (76, 2_140_441), (92, 2_235_101), (0, 2_345_087), (14, 2_417_387),
            (19, 2_475_680), (2, 2_507_941), (1, 2_634_611), (58, 2_670_512), (3, 2_686_770),
            (86, 2_774_482), (2, 2_946_324), (13, 2_985_580), (58, 3_053_344), (64, 3_157_150),
            (53, 3_325_449), (1, 3_355_155), (53, 3_412_795), (37, 3_462_802), (19, 3_493_626),
            (86, 3_970_677), (43, 4_182_169), (37, 4_245_174), (76, 4_367_228),
        ],
        trace_fold: 0x02ae_5104_2137_c0a2,
    };
    assert_eq!(pinned(&w.program, config()), foreground, "foreground scheduler");
    let background = Pinned {
        total_cycles: 1_667_136,
        compilation_thread: 0,
        controller_thread: 10_050,
        recovery_cycles: 18_400,
        recovery: RecoveryEvents {
            invalidations: 23, compile_retries: 13, quarantined_methods: 2, rejected_traces: 54,
            injected_compile_faults: 13, injected_corrupt_traces: 54, dropped_samples: 63,
            receiver_bursts: 30,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 60, dispatched: 60, completed: 60, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 14, background_overlap_cycles: 1_924_500,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 74_976), (64, 153_312), (28, 157_448), (14, 224_377), (75, 241_239), (12, 268_675),
            (37, 307_214), (28, 324_129), (32, 360_302), (32, 422_269), (64, 452_042),
            (43, 464_209), (76, 479_320), (0, 488_122), (14, 497_401), (3, 510_660), (1, 521_127),
            (5, 523_658), (2, 529_720), (6, 544_518), (13, 546_648), (52, 559_632), (19, 575_128),
            (58, 575_128), (14, 649_454), (75, 650_757), (92, 680_898), (72, 708_747),
            (53, 711_611), (43, 720_611), (86, 756_640), (13, 762_676), (76, 792_615),
            (92, 805_443), (76, 820_871), (58, 936_166), (12, 1_052_892), (19, 1_080_651),
            (28, 1_102_378), (86, 1_160_500), (53, 1_222_529), (86, 1_329_560), (75, 1_391_643),
            (6, 1_441_073), (58, 1_455_797), (92, 1_483_450), (5, 1_642_785),
        ],
        trace_fold: 0x7830_d9ae_8e03_e177,
    };
    let background_run = pinned(&w.program, config().enable_async_compile());
    assert_eq!(background_run, background, "background scheduler");
}
