//! The interpreter: executes compiled method versions under the simulated
//! clock, yielding to the caller at timer samples.

use crate::clock::{Clock, Component};
use crate::code::{MethodVersion, OptLevel};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::heap::Heap;
use crate::registry::{CodeRegistry, CodeSlot};
use crate::stack::{SourceFrame, StackSnapshot};
use crate::value::Value;
use aoci_ir::{Instr, MethodId, Program, Reg, SelectorId};
use aoci_trace::{TraceEvent, TraceSink};

pub(crate) mod decode;
use decode::{run_frames, CallOps, Switch};

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// When `true` (the default), stack snapshots reconstruct source-level
    /// frames through inline maps, as Jikes RVM does (paper Section 3.3).
    /// When `false`, inlined frames are invisible to samplers — the "naive
    /// trace listener" the paper warns about; kept as an ablation.
    pub source_level_walk: bool,
    /// Enables on-stack replacement. Off by default: the paper's system
    /// switches code versions only at invocation boundaries, so the
    /// reproduction sweeps opt in explicitly. When on, baseline activations
    /// count loop back-edges and ask to be promoted into optimized code
    /// mid-loop (OSR-in); nothing ever moves an activation back out, so an
    /// activation whose version was invalidated finishes on that code.
    /// When off, the VM counts nothing, and behaves bit-identically to a VM
    /// built before OSR existed.
    pub osr_enabled: bool,
    /// Taken loop back-edges a *baseline* activation executes at one loop
    /// header before the VM yields [`RunOutcome::OsrRequest`], asking the
    /// driver for a promotion (OSR-in).
    pub osr_backedge_threshold: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            source_level_walk: true,
            osr_enabled: false,
            osr_backedge_threshold: 256,
        }
    }
}

/// Number of leading instructions of a (source-level) method body that
/// count as its prologue for edge/trace sampling purposes.
const PROLOGUE_WINDOW: u32 = 3;

/// Maximum number of source-level frames a snapshot records.
const MAX_WALK_FRAMES: usize = 64;

/// Maximum machine call-stack depth before [`VmError::StackOverflow`].
const MAX_STACK_DEPTH: usize = 4096;

/// A baseline activation tripped its loop back-edge counter and wants to
/// be promoted into optimized code mid-loop (OSR-in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsrRequest {
    /// The method whose baseline activation is hot.
    pub method: MethodId,
    /// The loop header (source pc) the activation is parked on; the
    /// promotion target must carry an OSR entry point for this header.
    pub loop_header: u32,
}

/// Why [`Vm::run`] returned.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// A timer sample is due; the snapshot describes the sampled stack.
    /// Call [`Vm::run`] again to continue.
    Sample(StackSnapshot),
    /// The program returned from its entry point.
    Finished(Option<Value>),
    /// The cycle budget passed to [`Vm::run`] was exhausted before a sample
    /// or completion; execution can be resumed.
    BudgetExhausted,
    /// A hot baseline loop wants promotion (only with
    /// [`VmConfig::osr_enabled`]). The driver may compile the method and
    /// transfer the activation via [`Vm::osr_enter`], or ignore the
    /// request; either way, call [`Vm::run`] again to continue. The top
    /// frame is parked exactly on the requested loop header.
    OsrRequest(OsrRequest),
}

/// Per-method guard counters, attributed to the *compiled host method*
/// executing the guard (inlined callees' guards count against the method
/// whose optimized body contains them). A miss forced by
/// [`Vm::force_guard_misses`] is a miss like any other. The adaptive system
/// reads these to detect guard-thrashing code versions worth invalidating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MethodGuardStats {
    /// Inline guards executed in this method's code.
    pub checks: u64,
    /// Of which failed into the fallback path.
    pub misses: u64,
}

/// What every executed guard of one method's code updates: its counters
/// and, beside them, the guards still forced to miss.
#[derive(Clone, Copy, Debug, Default)]
struct GuardEntry {
    stats: MethodGuardStats,
    /// Forced misses left (see [`Vm::force_guard_misses`]).
    forced: u64,
}

/// Dynamic execution counters, useful for analysing inlining effectiveness
/// (e.g. how many guards executed and how often they failed into the
/// virtual-dispatch fallback).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Calls executed (static + virtual), excluding inlined (eliminated)
    /// calls.
    pub calls: u64,
    /// Virtual dispatches performed (including guard-fallback dispatches).
    pub virtual_dispatches: u64,
    /// Inline guards executed.
    pub guard_checks: u64,
    /// Inline guards that failed into the fallback path.
    pub guard_misses: u64,
    /// OSR-in transitions performed: baseline activations promoted into
    /// optimized code mid-loop.
    pub osr_entries: u64,
    /// Always 0: OSR only promotes. Kept because the repo benchmark
    /// (`benchmark/src/workload.rs`) still reads it; it goes when that
    /// benchmark is next re-measured.
    pub osr_exits: u64,
}

/// An activation. It names its code, which the registry owns for the life of
/// the `Vm`, so it is plain data: a call touches no refcount.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The arena slot of the version this activation runs: the one it
    /// started in, until an OSR transfer rewrites it.
    code: CodeSlot,
    /// Where this activation's registers start in [`Vm::regs`]. The window
    /// holds the version's `num_regs` registers and ends where the next frame's
    /// begins; the top frame's ends at the end of the register stack.
    base: usize,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
    /// The instruction being executed — or, in a suspended caller, the call
    /// instruction it waits on (stack walks read the site from it). The run
    /// loop keeps it in [`Act::pc`] while it runs the frame and stores it
    /// back whenever the frame stack is about to change or be observed
    /// (call, return, yield, OSR hook, fault).
    pc: usize,
}

/// The activation one step executes against: the register window and the
/// pc, plus the identity of the running code for fault sites.
struct Act<'a> {
    method: MethodId,
    win: &'a mut [Value],
    pc: usize,
    /// The simulated clock while this frame runs: the instruction loop adds
    /// every cost here and charges the sum when it leaves the frame.
    now: u64,
}

impl Act<'_> {
    #[inline(always)]
    fn reg(&self, r: Reg) -> Result<Value, VmError> {
        self.win.get(r.index()).copied().ok_or(VmError::BadRegister {
            method: self.method,
            pc: self.pc,
            reg: r.index(),
        })
    }

    #[inline(always)]
    fn set_reg(&mut self, r: Reg, v: Value) -> Result<(), VmError> {
        let (method, pc) = (self.method, self.pc);
        let slot =
            self.win.get_mut(r.index()).ok_or(VmError::BadRegister { method, pc, reg: r.index() })?;
        *slot = v;
        Ok(())
    }

    #[inline(always)]
    fn int(&self, v: Value) -> Result<i64, VmError> {
        v.as_int().ok_or(VmError::TypeError {
            method: self.method,
            pc: self.pc,
            expected: "integer",
        })
    }

    /// Faults unless every argument register of a call is readable — before
    /// the callee is compiled or anything else about the call is charged.
    #[inline(always)]
    fn check_args(&self, args: impl Iterator<Item = Reg>) -> Result<(), VmError> {
        for r in args {
            self.reg(r)?;
        }
        Ok(())
    }
}

/// Completes a call into the code in `code`, in the order faults are
/// reported: depth check, arity, then a `Null`-filled window pushed on the
/// register stack with the arguments (receiver first) copied into it out of
/// the caller's window, then the frame. The call instruction has already
/// found every argument register readable.
#[inline]
fn enter(
    x: &Exec<'_>,
    registry: &CodeRegistry,
    stack: &mut Vec<Frame>,
    regs: &mut Vec<Value>,
    code: CodeSlot,
    ops: CallOps<'_>,
) -> Result<(), VmError> {
    if stack.len() >= MAX_STACK_DEPTH {
        return Err(VmError::StackOverflow { limit: MAX_STACK_DEPTH });
    }
    // The body, not the version: one load less on the way to `num_regs`.
    let callee = registry.body(code, x.program, &x.cost);
    let argc = ops.args.len() + usize::from(ops.recv.is_some());
    if argc > usize::from(callee.num_regs) {
        // More arguments than the callee has registers: a corrupt
        // version, not a program fault.
        return Err(VmError::BadRegister { method: callee.method, pc: 0, reg: argc - 1 });
    }
    let (caller_base, base) = (stack.last().map_or(0, |f| f.base), regs.len());
    regs.resize(base + usize::from(callee.num_regs), Value::Null);
    for (i, &r) in ops.recv.iter().chain(ops.args).enumerate() {
        regs[base + i] = regs[caller_base + r.index()];
    }
    let ret_dst = ops.dst.map(Reg);
    stack.push(Frame { code, base, ret_dst, pc: 0 });
    Ok(())
}

/// Everything instruction handlers read and mutate, apart from the
/// activation itself ([`Act`]). The frame stack and the code registry sit
/// beside it in [`Vm`], so that the run loop can push and pop frames and
/// keep borrowing bodies from the registry while the handlers run.
#[derive(Debug)]
struct Exec<'p> {
    program: &'p Program,
    config: VmConfig,
    cost: CostModel,
    clock: Clock,
    heap: Heap,
    globals: Vec<Value>,
    counters: ExecCounters,
    guards: Vec<GuardEntry>,
    /// Taken back-edge counts of *baseline* activations: per method, a
    /// short list of (loop-header pc, count); a count resets when the
    /// OSR-in threshold fires.
    backedge_counts: Vec<Vec<(u32, u32)>>,
    /// A promotion request raised by the last step; `run` returns it right
    /// after that step.
    pending_osr: Option<OsrRequest>,
    /// Per method: the driver told us to stop raising promotion requests
    /// for it (quarantined or past its recompile budget).
    osr_suppressed: Vec<bool>,
    /// Flight recorder for guard-miss and OSR-transition events. `None`
    /// (the default) skips every emit site with a single branch.
    trace: Option<TraceSink>,
}

/// The virtual machine: interpreter, heap, globals, compiled-code registry
/// and simulated clock.
///
/// Run it in a loop around [`Vm::run`]: each return gives the embedding
/// adaptive-optimization driver a chance to consume the sample, run
/// organizers (charging their cycles via [`Vm::clock_mut`]) and install
/// newly compiled code via [`Vm::registry_mut`]; installed code takes effect
/// at the next invocation of the method.
#[derive(Debug)]
pub struct Vm<'p> {
    stack: Vec<Frame>,
    /// The register stack: the windows of all activations, contiguous, in
    /// frame order (see [`Frame::base`]). A call grows it, a return
    /// truncates it, an OSR transition resizes the top window in place.
    regs: Vec<Value>,
    exec: Exec<'p>,
    /// Owner of all code: frames name it by slot, the run loop borrows it.
    registry: CodeRegistry,
    next_sample_at: Option<u64>,
    finished: Option<Option<Value>>,
    started: bool,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program` with default [`VmConfig`].
    pub fn new(program: &'p Program, cost: CostModel) -> Self {
        Self::with_config(program, cost, VmConfig::default())
    }

    /// Creates a VM with an explicit configuration.
    pub fn with_config(program: &'p Program, cost: CostModel, config: VmConfig) -> Self {
        Vm {
            stack: Vec::new(),
            regs: Vec::new(),
            registry: CodeRegistry::new(program.num_methods()),
            exec: Exec {
                program,
                config,
                cost,
                clock: Clock::new(),
                heap: Heap::new(),
                globals: vec![Value::Int(0); program.num_globals()],
                counters: ExecCounters::default(),
                guards: vec![GuardEntry::default(); program.num_methods()],
                backedge_counts: vec![Vec::new(); program.num_methods()],
                pending_osr: None,
                osr_suppressed: vec![false; program.num_methods()],
                trace: None,
            },
            next_sample_at: None,
            finished: None,
            started: false,
        }
    }

    /// Attaches a flight-recorder sink; the VM emits guard-miss and
    /// OSR-transition events through it, timestamped with the simulated
    /// clock (emission itself charges no cycles).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.exec.trace = Some(sink);
    }

    /// Returns the dynamic execution counters.
    pub fn counters(&self) -> ExecCounters {
        self.exec.counters
    }

    /// Cumulative guard counters of `method`'s compiled code (see
    /// [`MethodGuardStats`]).
    pub fn guard_stats(&self, method: MethodId) -> MethodGuardStats {
        self.exec.guards[method.index()].stats
    }

    /// Forces the next `n` inline guards executed in `method`'s code to
    /// miss, whatever their receiver: each takes its virtual-dispatch
    /// fallback, which dispatches on the real receiver, so the result is
    /// unchanged and only the cost moves. Adds to any budget left; the
    /// budget outlives an install, and [`Vm::invalidate`] drops it.
    pub fn force_guard_misses(&mut self, method: MethodId, n: u64) {
        let forced = &mut self.exec.guards[method.index()].forced;
        *forced = forced.saturating_add(n);
    }

    /// Invalidates `method`'s optimized version (see
    /// [`CodeRegistry::invalidate`]) and drops its forced misses: the code
    /// they were aimed at is gone. Returns `false`, changing nothing, when
    /// no optimized version is installed.
    pub fn invalidate(&mut self, method: MethodId) -> bool {
        let gone = self.registry.invalidate(method);
        if gone {
            self.exec.guards[method.index()].forced = 0;
        }
        gone
    }

    /// Returns the program being executed.
    pub fn program(&self) -> &'p Program {
        self.exec.program
    }

    /// Returns the simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.exec.clock
    }

    /// Returns the clock mutably, so the embedding driver can charge
    /// organizer/compilation cycles.
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.exec.clock
    }

    /// Returns the compiled-code registry.
    pub fn registry(&self) -> &CodeRegistry {
        &self.registry
    }

    /// Returns the registry mutably, for installing newly compiled code.
    pub fn registry_mut(&mut self) -> &mut CodeRegistry {
        &mut self.registry
    }

    /// Returns the cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.exec.cost
    }

    /// Returns the heap (useful for assertions in tests).
    pub fn heap(&self) -> &Heap {
        &self.exec.heap
    }

    /// Current machine call-stack depth.
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Runs until a sample is due, a hot loop asks for promotion, the
    /// program finishes, or `budget` cycles of application execution have
    /// been consumed.
    ///
    /// The loop below *is* the interpreter's event schedule: finished →
    /// budget → step → pending OSR request → due sample, in that order, once
    /// per instruction. `run_frames` executes the steps, calls and returns
    /// included; it runs many per call, but only while none of the checks
    /// can fire (it stops at every raised OSR request and as soon as the
    /// clock reaches the earlier of the due sample and the budget's end), so
    /// the result is what checking after every single instruction would
    /// give — `run(1)` in a loop does exactly that.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program faults; the VM is then stuck and
    /// further calls return the same fault's consequences.
    pub fn run(&mut self, budget: u64) -> Result<RunOutcome, VmError> {
        if !self.started {
            self.started = true;
            let code = self.ensure_code(self.exec.program.entry());
            let Vm { stack, regs, exec, registry, .. } = &mut *self;
            enter(exec, registry, stack, regs, code, CallOps { dst: None, recv: None, args: &[] })?;
        }
        if self.next_sample_at.is_none() && self.exec.cost.sample_period > 0 {
            self.next_sample_at = Some(self.exec.clock.total() + self.exec.cost.sample_period);
        }
        let start = self.exec.clock.total();
        // The next point on the simulated clock at which the loop must
        // yield. Both terms are fixed for the duration of this call (a
        // sample return re-enters through `run`). Inside a frame this is the
        // only clock comparison, and superinstructions are gated on being
        // strictly below it.
        let event = self.next_sample_at.unwrap_or(u64::MAX).min(start.saturating_add(budget));
        loop {
            if let Some(v) = &self.finished {
                return Ok(RunOutcome::Finished(*v));
            }
            if self.exec.clock.total() - start >= budget {
                return Ok(RunOutcome::BudgetExhausted);
            }
            let Vm { stack, regs, exec, registry, .. } = &mut *self;
            match run_frames(exec, registry, stack, regs, event)? {
                // The callee's first invocation, or the first after an
                // invalidation. The top frame rests on the call, charged and
                // counted: compile, then complete it from its operands.
                Switch::Call { callee, .. } => {
                    let code = self.ensure_code(callee);
                    let Vm { stack, regs, exec, registry, .. } = &mut *self;
                    let caller = *stack.last().expect("a frame made the call");
                    let body = registry.body(caller.code, exec.program, &exec.cost);
                    let ops = CallOps::of(&body.instrs[caller.pc].op, &body.arg_pool);
                    enter(exec, registry, stack, regs, code, ops)?;
                }
                Switch::Ret(value) => self.finished = Some(value),
                Switch::Yield => {}
            }
            if let Some(req) = self.exec.pending_osr.take() {
                return Ok(RunOutcome::OsrRequest(req));
            }
            let now = self.exec.clock.total();
            if self.finished.is_none() && self.next_sample_at.is_some_and(|due| now >= due) {
                self.next_sample_at = Some(now + self.exec.cost.sample_period);
                return Ok(RunOutcome::Sample(self.snapshot()));
            }
        }
    }

    /// Runs the program to completion, ignoring samples.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program faults.
    pub fn run_to_completion(&mut self) -> Result<Option<Value>, VmError> {
        loop {
            match self.run(u64::MAX)? {
                RunOutcome::Finished(v) => return Ok(v),
                RunOutcome::Sample(_)
                | RunOutcome::BudgetExhausted
                | RunOutcome::OsrRequest(_) => continue,
            }
        }
    }

    /// Builds a source-level snapshot of the current stack (see
    /// [`StackSnapshot`]). Listener costs are *not* charged here; the
    /// embedding driver charges them according to how much of the snapshot
    /// its listeners consume.
    pub fn snapshot(&self) -> StackSnapshot {
        let config = &self.exec.config;
        // Counted first (a chain is a few parent links), so that the frames
        // are one allocation of the right size.
        let source_frames = |mf: &Frame| {
            if config.source_level_walk {
                self.registry.version(mf.code).inline_map.source_chain(mf.pc).count()
            } else {
                1
            }
        };
        let walked = self.stack.iter().rev().take(MAX_WALK_FRAMES);
        let len = walked.map(source_frames).sum::<usize>().min(MAX_WALK_FRAMES);
        let mut frames = Vec::with_capacity(len);
        let mut root_method = self.exec.program.entry();
        let mut top_in_prologue = false;
        for (depth, mf) in self.stack.iter().rev().enumerate() {
            let (version, pc) = (self.registry.version(mf.code), mf.pc);
            if depth == 0 {
                root_method = version.method;
                top_in_prologue = if config.source_level_walk {
                    version.inline_map.in_prologue(pc, PROLOGUE_WINDOW)
                } else {
                    (pc as u32) < PROLOGUE_WINDOW
                };
            }
            // The call site through which the next-inner machine frame was
            // entered: the call instruction this frame is resting on.
            let mut to_inner = if depth == 0 {
                None
            } else {
                version.body.get(pc).and_then(Instr::call_site)
            };
            if config.source_level_walk {
                // Each source frame of the chain was entered through the
                // site its outer neighbour carries.
                for (method, entered_at) in version.inline_map.source_chain(pc) {
                    if frames.len() >= MAX_WALK_FRAMES {
                        break;
                    }
                    frames.push(SourceFrame { method, callsite_to_inner: to_inner });
                    to_inner = entered_at;
                }
            } else {
                frames.push(SourceFrame { method: version.method, callsite_to_inner: to_inner });
            }
            if frames.len() >= MAX_WALK_FRAMES {
                break;
            }
        }
        StackSnapshot {
            frames,
            root_method,
            top_in_prologue,
            cycles: self.exec.clock.total(),
        }
    }

    /// The slot of `method`'s current version, baseline-compiling and
    /// installing one (and charging for that) when it has none: at its
    /// first invocation and at the first after an invalidation.
    fn ensure_code(&mut self, method: MethodId) -> CodeSlot {
        if self.registry.current_slot(method).is_none() {
            let def = self.exec.program.method(method);
            let cost = self.exec.cost.baseline_compile_cost(def.size_estimate());
            self.exec.clock.charge(Component::BaselineCompilation, cost);
            self.registry.install(MethodVersion::baseline(def));
        }
        self.registry.current_slot(method).expect("installed above")
    }

    /// OSR-in, the one frame rewrite (DESIGN.md §7): transfers the top frame
    /// — a *baseline* activation parked exactly on `loop_header` — into its
    /// method's installed optimized version, through that version's OSR
    /// entry point for the header. Under the frame-mapping invariant the
    /// root window `n` — the method's own registers — means the same on
    /// both sides, so the top window keeps its first `n` registers and is
    /// resized where it sits, on top of the register stack, to the target's
    /// register count, new registers `Null`; `Component::Osr` is charged
    /// `n` slots. Returns `true` on transfer; returns `false` — with the
    /// frame, the registers and the clock untouched, to continue at
    /// baseline — when the preconditions do not hold, the installed version
    /// has no entry at the header, or either window is smaller than `n`:
    /// promotion is an optimization, never an obligation.
    pub fn osr_enter(&mut self, loop_header: u32) -> bool {
        let Vm { stack, regs, exec, registry, .. } = self;
        let Some(frame) = stack.last_mut() else { return false };
        let running = registry.version(frame.code);
        let method = running.method;
        if !exec.config.osr_enabled
            || running.level != OptLevel::Baseline
            || frame.pc != loop_header as usize
        {
            return false;
        }
        let installed = registry
            .current_slot(method)
            .filter(|&slot| registry.version(slot).level == OptLevel::Optimized);
        let Some(to) = installed else { return false };
        let target = registry.version(to);
        let Some(point) = target.osr_map.entry_at_baseline(loop_header) else { return false };
        let n = usize::from(exec.program.method(method).num_regs());
        if regs.len() - frame.base < n || usize::from(target.num_regs) < n {
            return false;
        }
        exec.clock.charge(Component::Osr, exec.cost.osr_transfer_cost(n));
        regs.truncate(frame.base + n);
        regs.resize(frame.base + usize::from(target.num_regs), Value::Null);
        frame.code = to;
        frame.pc = point.opt_pc as usize;
        exec.counters.osr_entries += 1;
        exec.backedge_counts[method.index()].retain(|&(h, _)| h != loop_header);
        if let Some(t) = &exec.trace {
            t.emit(exec.clock.total(), TraceEvent::OsrEnter { method, loop_header });
        }
        true
    }

    /// Stops the VM from raising further [`RunOutcome::OsrRequest`]s for
    /// `method` (the driver's answer when the method is quarantined or out
    /// of recompile budget).
    pub fn suppress_osr(&mut self, method: MethodId) {
        self.exec.osr_suppressed[method.index()] = true;
    }
}

impl Exec<'_> {
    /// Resolves a virtual call's target from the receiver in `recv`.
    #[inline(always)]
    fn virtual_target(
        &self,
        a: &Act<'_>,
        recv: Reg,
        selector: SelectorId,
    ) -> Result<MethodId, VmError> {
        let (method, pc) = (a.method, a.pc);
        let r = a.reg(recv)?.as_ref().ok_or(VmError::NullDeref { method, pc })?;
        let class =
            self.heap.class_of(r).ok_or(VmError::TypeError { method, pc, expected: "object" })?;
        self.program
            .lookup_virtual(class, selector)
            .ok_or(VmError::NoSuchMethod { selector, method, pc })
    }

    /// Books one executed inline guard — global and per-method counters and
    /// the miss event — and hands back whether it passes: `pass`, unless
    /// the method has a forced miss left, which this guard spends.
    #[inline(always)]
    fn note_guard(&mut self, a: &Act<'_>, mut pass: bool) -> bool {
        self.counters.guard_checks += 1;
        let entry = &mut self.guards[a.method.index()];
        entry.stats.checks += 1;
        if entry.forced > 0 {
            entry.forced -= 1;
            pass = false;
        }
        if !pass {
            self.counters.guard_misses += 1;
            entry.stats.misses += 1;
            if let Some(t) = &self.trace {
                let event = TraceEvent::GuardMiss { method: a.method, pc: a.pc as u32 };
                t.emit(a.now, event);
            }
        }
        pass
    }

    /// Counts a taken back-edge of a baseline activation; at the
    /// threshold, raises an [`OsrRequest`] for the driver and returns
    /// `true`.
    fn count_backedge(&mut self, method: MethodId, header: u32) -> bool {
        if self.osr_suppressed[method.index()] {
            return false;
        }
        let counts = &mut self.backedge_counts[method.index()];
        let i = counts.iter().position(|&(h, _)| h == header).unwrap_or_else(|| {
            counts.push((header, 0));
            counts.len() - 1
        });
        let count = &mut counts[i].1;
        *count += 1;
        if *count < self.config.osr_backedge_threshold {
            return false;
        }
        *count = 0;
        self.pending_osr = Some(OsrRequest { method, loop_header: header });
        true
    }
}

#[cfg(test)]
mod tests;
