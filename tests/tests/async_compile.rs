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

/// One chaos run under each scheduler (small `compress`, chaos seed 42),
/// pinned to its cycles, recovery and scheduler counters, compile order and
/// a fold of every rendered event with its timestamp. The fault injector's
/// draws are keyed to the order compiles start in, so a moved draw, a
/// reordered queue, a charge on the other side of an event or a hash order
/// reaching the compile queue each change these numbers. Receiver bursts
/// land only on versions holding a guarded inline; the foreground run
/// invalidates 22 times and quarantines 3 methods, the background run
/// invalidates 25 times and quarantines 4.
#[test]
fn chaos_runs_match_the_parent_commit() {
    let w = build(&small("compress"));
    let config = || {
        oracle::config(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_faults(FaultConfig::chaos(42))
    };
    let foreground = Pinned {
        total_cycles: 3_972_886,
        compilation_thread: 2_367_900,
        controller_thread: 10_200,
        recovery_cycles: 19_200,
        recovery: RecoveryEvents {
            invalidations: 22, compile_retries: 14, quarantined_methods: 3, rejected_traces: 57,
            injected_compile_faults: 14, injected_corrupt_traces: 57, dropped_samples: 73,
            receiver_bursts: 35,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 0, dispatched: 0, completed: 0, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 0, background_overlap_cycles: 0,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 72_548), (64, 167_348), (6, 214_409), (28, 295_859), (37, 314_459), (28, 396_367),
            (28, 491_279), (14, 559_923), (0, 605_590), (75, 679_540), (76, 693_040), (14, 761_890),
            (58, 793_366), (72, 858_149), (75, 933_299), (86, 981_569), (19, 1_006_079),
            (32, 1_050_122), (75, 1_136_030), (1, 1_145_330), (12, 1_192_730), (2, 1_207_162),
            (19, 1_233_262), (32, 1_276_212), (37, 1_330_307), (92, 1_394_705), (43, 1_413_817),
            (13, 1_432_867), (3, 1_463_796), (75, 1_542_396), (92, 1_607_594), (53, 1_701_222),
            (19, 1_766_545), (52, 1_872_221), (14, 1_994_721), (32, 2_167_071), (14, 2_234_721),
            (58, 2_261_819), (13, 2_430_524), (58, 2_471_624), (43, 2_484_733), (32, 2_687_454),
            (52, 2_729_317), (92, 2_865_068), (12, 2_947_984), (19, 2_977_637), (72, 3_127_481),
            (92, 3_195_695), (72, 3_324_124), (13, 3_472_158), (52, 3_607_023), (52, 3_621_639),
            (48, 3_724_100), (12, 3_853_197),
        ],
        trace_fold: 0x0e84_5bee_3b90_34b6,
    };
    assert_eq!(pinned(&w.program, config()), foreground, "foreground scheduler");
    let background = Pinned {
        total_cycles: 3_538_675,
        compilation_thread: 0,
        controller_thread: 10_650,
        recovery_cycles: 25_800,
        recovery: RecoveryEvents {
            invalidations: 25, compile_retries: 14, quarantined_methods: 4, rejected_traces: 86,
            injected_compile_faults: 16, injected_corrupt_traces: 86, dropped_samples: 145,
            receiver_bursts: 75,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 61, dispatched: 61, completed: 61, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 14, background_overlap_cycles: 2_111_100,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 74_976), (64, 152_059), (28, 158_343), (37, 178_920), (32, 221_746), (14, 221_746),
            (19, 265_667), (13, 323_760), (28, 347_267), (75, 403_474), (32, 405_102),
            (58, 424_737), (14, 480_794), (64, 530_803), (53, 548_369), (0, 548_369), (13, 572_413),
            (1, 597_089), (75, 623_663), (13, 641_546), (2, 650_934), (3, 660_317), (14, 667_475),
            (5, 681_445), (6, 689_668), (48, 708_429), (52, 731_326), (12, 731_326), (72, 786_578),
            (64, 830_319), (43, 842_994), (92, 859_959), (86, 899_767), (12, 964_116),
            (32, 1_233_430), (52, 1_258_310), (14, 1_356_854), (58, 1_469_841), (32, 1_522_644),
            (52, 1_526_935), (12, 1_663_649), (12, 1_760_615), (28, 1_797_310), (28, 1_979_244),
            (86, 2_355_728),
        ],
        trace_fold: 0xaf0a_c3d1_50f7_51a2,
    };
    let background_run = pinned(&w.program, config().enable_async_compile());
    assert_eq!(background_run, background, "background scheduler");
}
