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
    let r = run(program, c.enable_trace_with(TraceConfig { capacity: usize::MAX, dump_last: 32 }));
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
/// before its first install).
#[test]
fn chaos_runs_match_the_parent_commit() {
    let w = build(&small("compress"));
    let config = || {
        oracle::config(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_faults(FaultConfig::chaos(42))
    };
    let foreground = Pinned {
        total_cycles: 5_243_953,
        compilation_thread: 3_314_250,
        controller_thread: 17_400,
        recovery_cycles: 28_200,
        recovery: RecoveryEvents {
            invalidations: 30, compile_retries: 33, quarantined_methods: 3, rejected_traces: 75,
            injected_compile_faults: 35, injected_corrupt_traces: 75, dropped_samples: 94,
            receiver_bursts: 46,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 0, dispatched: 0, completed: 0, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 0, background_overlap_cycles: 0,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 72_548), (64, 167_348), (6, 214_409), (28, 295_859), (37, 314_459),
            (28, 396_367), (12, 480_793), (6, 501_001), (6, 521_209), (14, 616_925),
            (43, 628_775), (14, 696_715), (0, 708_885), (19, 870_138), (64, 965_148),
            (64, 1_060_262), (32, 1_108_053), (75, 1_224_646), (75, 1_300_201), (52, 1_312_351),
            (13, 1_333_261), (64, 1_437_861), (13, 1_453_712), (19, 1_481_612), (72, 1_540_996),
            (3, 1_557_513), (12, 1_604_913), (13, 1_623_963), (86, 1_675_390), (92, 1_741_344),
            (1, 1_757_730), (53, 1_802_480), (2, 1_846_095), (2, 1_857_811), (37, 1_894_886),
            (52, 1_907_036), (76, 2_020_079), (92, 2_103_982), (14, 2_186_106), (43, 2_213_461),
            (43, 2_270_958), (92, 2_395_075), (19, 2_566_648), (43, 2_585_051), (19, 2_609_351),
            (43, 2_621_404), (2, 2_662_562), (2, 2_672_273), (2, 2_679_845), (53, 2_746_832),
            (53, 2_787_578), (3, 2_801_732), (76, 2_839_195), (92, 2_965_820), (3, 2_974_970),
            (37, 3_075_371), (92, 3_162_389), (37, 3_197_789), (75, 3_273_142), (53, 3_557_235),
            (53, 3_597_986), (72, 3_770_973), (1, 3_950_266), (1, 3_974_355), (3, 4_023_068),
            (1, 4_039_959), (52, 4_133_234), (3, 4_144_708), (1, 4_154_211), (0, 4_225_695),
            (0, 4_251_453), (12, 4_354_739), (12, 4_398_959), (14, 4_511_196), (14, 4_582_506),
            (86, 4_770_110), (86, 4_837_181), (6, 5_206_228), (6, 5_228_975),
        ],
        trace_fold: 0xc37a_422d_f58c_49ee,
    };
    assert_eq!(pinned(&w.program, config()), foreground, "foreground scheduler");
    let background = Pinned {
        total_cycles: 1_951_566,
        compilation_thread: 0,
        controller_thread: 18_000,
        recovery_cycles: 26_600,
        recovery: RecoveryEvents {
            invalidations: 33, compile_retries: 23, quarantined_methods: 4, rejected_traces: 73,
            injected_compile_faults: 23, injected_corrupt_traces: 73, dropped_samples: 85,
            receiver_bursts: 41,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 85, dispatched: 85, completed: 84, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 1, max_queue_depth: 10, background_overlap_cycles: 2_465_700,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 74_976), (64, 153_634), (28, 157_498), (37, 177_491), (0, 184_681),
            (1, 196_287), (14, 225_910), (32, 234_041), (75, 308_090), (1, 317_422),
            (64, 322_242), (2, 326_570), (6, 347_858), (12, 373_802), (76, 390_212),
            (92, 455_474), (64, 459_021), (1, 477_536), (32, 514_930), (3, 531_858),
            (43, 544_492), (6, 567_318), (92, 572_185), (19, 604_696), (53, 633_988),
            (13, 654_645), (52, 682_359), (75, 718_127), (28, 779_466), (14, 789_020),
            (43, 798_270), (52, 814_459), (5, 817_322), (58, 833_083), (72, 906_481),
            (75, 907_664), (43, 920_025), (76, 931_393), (3, 940_838), (86, 990_309),
            (2, 1_103_842), (2, 1_221_340), (3, 1_301_422), (76, 1_363_382), (76, 1_389_782),
            (72, 1_445_093), (52, 1_450_026), (52, 1_476_323), (92, 1_476_323), (12, 1_563_415),
            (64, 1_576_603), (53, 1_576_603), (72, 1_631_452), (12, 1_707_284), (37, 1_717_109),
            (32, 1_746_217), (12, 1_784_678), (32, 1_789_915), (0, 1_834_996), (0, 1_853_404),
            (14, 1_939_567),
        ],
        trace_fold: 0xad56_a613_e747_ec15,
    };
    let background_run = pinned(&w.program, config().enable_async_compile());
    assert_eq!(background_run, background, "background scheduler");
}
