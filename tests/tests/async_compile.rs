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
/// force misses on the guards of versions holding a guarded inline, and
/// every invalidation drops the guards that thrashed; the foreground run
/// invalidates 8 times and quarantines 1 method, the background run
/// invalidates 10 times and quarantines none.
#[test]
fn chaos_runs_match_the_parent_commit() {
    let w = build(&small("compress"));
    let config = || {
        oracle::config(PolicyKind::Fixed { max: 3 })
            .enable_osr()
            .enable_faults(FaultConfig::chaos(42))
    };
    let foreground = Pinned {
        total_cycles: 3_980_430,
        compilation_thread: 2_106_750,
        controller_thread: 8_850,
        recovery_cycles: 21_200,
        recovery: RecoveryEvents {
            invalidations: 8, compile_retries: 16, quarantined_methods: 1, rejected_traces: 81,
            injected_compile_faults: 17, injected_corrupt_traces: 81, dropped_samples: 98,
            receiver_bursts: 40,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 0, dispatched: 0, completed: 0, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 0, background_overlap_cycles: 0,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 72_548), (64, 167_348), (6, 214_409), (28, 295_859), (37, 314_459), (76, 345_769),
            (0, 369_907), (92, 400_057), (92, 446_815), (12, 498_857), (14, 567_707), (72, 621_857),
            (19, 657_112), (86, 706_800), (5, 737_576), (92, 796_526), (75, 907_680), (43, 919_890),
            (58, 935_340), (3, 971_227), (19, 1_005_327), (64, 1_103_727), (32, 1_146_230),
            (1, 1_168_910), (13, 1_187_810), (2, 1_246_911), (64, 1_351_511), (53, 1_390_767),
            (64, 1_528_595), (37, 1_570_412), (75, 1_664_429), (28, 1_739_631), (14, 1_859_393),
            (32, 1_909_793), (76, 1_959_714), (92, 2_039_664), (72, 2_112_548), (12, 2_243_251),
            (14, 2_562_970), (32, 2_674_627), (72, 3_815_583), (14, 3_955_169),
        ],
        trace_fold: 0x5a2f_7c1c_c424_0a7d,
    };
    assert_eq!(pinned(&w.program, config()), foreground, "foreground scheduler");
    let background = Pinned {
        total_cycles: 2_308_615,
        compilation_thread: 57_750,
        controller_thread: 10_650,
        recovery_cycles: 22_600,
        recovery: RecoveryEvents {
            invalidations: 10, compile_retries: 19, quarantined_methods: 0, rejected_traces: 84,
            injected_compile_faults: 19, injected_corrupt_traces: 84, dropped_samples: 111,
            receiver_bursts: 49,
            trace_dump: Vec::new(),
        },
        async_compile: AsyncCompileEvents {
            enqueued: 57, dispatched: 57, completed: 57, stale_drops: 0, queue_full_drops: 0,
            abandoned_in_flight: 0, max_queue_depth: 12, background_overlap_cycles: 1_843_050,
            foreground_stall_cycles: 0,
        },
        compilations: vec![
            (13, 74_976), (64, 152_059), (28, 158_343), (37, 178_920), (32, 221_746), (14, 221_746),
            (19, 257_268), (14, 330_882), (58, 332_746), (75, 418_503), (64, 428_944),
            (53, 442_966), (13, 500_289), (76, 515_264), (75, 533_145), (19, 540_057), (0, 556_004),
            (2, 564_585), (1, 567_007), (3, 574_575), (5, 587_201), (6, 607_330), (52, 619_704),
            (12, 627_261), (86, 663_896), (13, 695_853), (43, 708_184), (12, 728_191),
            (72, 777_104), (28, 785_654), (13, 819_194), (14, 862_440), (75, 915_052),
            (64, 948_352), (12, 950_396), (32, 1_037_525), (92, 1_178_330), (19, 1_205_311),
            (14, 1_584_771),
        ],
        trace_fold: 0x6b8e_a3c4_ce91_c04f,
    };
    let background_run = pinned(&w.program, config().enable_async_compile());
    assert_eq!(background_run, background, "background scheduler");
}
