//! Quickstart: build a small object-oriented program with the IR builder,
//! run it under the adaptive optimization system, and inspect what the
//! system did.
//!
//! ```sh
//! cargo run --release -p examples --bin quickstart
//! ```

use aoci_aos::{AosConfig, AosSystem};
use aoci_core::PolicyKind;
use aoci_ir::{BinOp, Cond, ProgramBuilder};
use aoci_vm::Component;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a hot loop: main repeatedly calls `Shape.area` through
    // a virtual call that is always a Square at one site and always a
    // Circle at the other.
    let mut b = ProgramBuilder::new();
    let area = b.selector("area", 0);
    let shape = b.class("Shape", None);
    let square = b.class("Square", Some(shape));
    let circle = b.class("Circle", Some(shape));
    let side = b.field(shape, "dim");

    for (name, class, factor) in [("Square.area", square, 1), ("Circle.area", circle, 3)] {
        let mut m = b.virtual_method(name, class, area);
        let this = m.receiver().expect("virtual method");
        let d = m.fresh_reg();
        let f = m.fresh_reg();
        m.get_field(d, this, side);
        m.bin(BinOp::Mul, d, d, d);
        m.const_int(f, factor);
        m.bin(BinOp::Mul, d, d, f);
        m.work(30); // some real computation
        m.ret(Some(d));
        m.finish();
    }

    // measure(shape) -> shape.area(), a separate method so the call site
    // can be inlined into it.
    let measure = {
        let mut m = b.static_method("measure", 1);
        let r = m.fresh_reg();
        m.call_virtual(Some(r), area, m.param(0), &[]);
        m.ret(Some(r));
        m.finish()
    };

    let main = {
        let mut m = b.static_method("main", 0);
        let sq = m.fresh_reg();
        let ci = m.fresh_reg();
        let two = m.fresh_reg();
        m.new_obj(sq, square);
        m.new_obj(ci, circle);
        m.const_int(two, 2);
        m.put_field(sq, side, two);
        m.put_field(ci, side, two);
        let i = m.fresh_reg();
        let n = m.fresh_reg();
        let one = m.fresh_reg();
        let acc = m.fresh_reg();
        let r = m.fresh_reg();
        m.const_int(i, 0);
        m.const_int(n, 20_000);
        m.const_int(one, 1);
        m.const_int(acc, 0);
        let top = m.label();
        let out = m.label();
        m.bind(top);
        m.branch(Cond::Ge, i, n, out);
        m.call_static(Some(r), measure, &[sq]); // site 0: always Square
        m.bin(BinOp::Add, acc, acc, r);
        m.call_static(Some(r), measure, &[ci]); // site 1: always Circle
        m.bin(BinOp::Add, acc, acc, r);
        m.bin(BinOp::Add, i, i, one);
        m.jump(top);
        m.bind(out);
        m.ret(Some(acc));
        m.finish()
    };
    let program = b.finish(main)?;

    // Run under adaptive optimization with a context-sensitive policy.
    // (Fixed-level sensitivity: the `area` methods take only a receiver, so
    // the Parameterless early-termination policy would stop their traces at
    // one edge — the paper's acknowledged `this`-parameter exception.)
    let config = AosConfig::new(PolicyKind::Fixed { max: 3 });
    let (report, db, _) = AosSystem::new(&program, config).run_full()?;

    println!("result               : {:?}", report.result);
    println!("total cycles         : {}", report.total_cycles());
    println!("timer samples        : {}", report.samples);
    println!("methods baseline-compiled : {}", report.baseline_compilations);
    println!("optimizing compilations   : {}", report.opt_compilations);
    println!("optimized code (cumulative): {}", report.optimized_code_size);
    println!(
        "compile time         : {:.2}% of execution",
        report.fraction(Component::CompilationThread) * 100.0
    );
    println!(
        "guards: {} checks, {} misses ({:.1}% miss rate)",
        report.counters.guard_checks,
        report.counters.guard_misses,
        report.guard_miss_rate() * 100.0
    );
    println!("\nInlining decisions:");
    for (host, d) in db.decision_log() {
        let guarded = if d.guarded { " (guarded)" } else { "" };
        println!(
            "  while compiling {:<12}: inlined {}{guarded}",
            program.method(*host).name(),
            program.method(d.callee).name(),
        );
    }
    Ok(())
}
