//! Human-readable disassembly of method bodies; useful in tests, examples
//! and when debugging the inliner's output.

use crate::ids::Reg;
use crate::instr::Instr;
use crate::method::MethodDef;
use crate::program::Program;
use std::fmt::Write as _;

/// Renders `body` as one instruction per line, resolving names through
/// `program` and call arguments through `pool`, the body's argument pool.
///
/// Works for both source bodies (pass `program.method(id).body()` and its
/// `arg_pool()`) and optimizer output (any `&[Instr]` with its pool), so
/// the inliner's transforms can be inspected directly.
pub fn disassemble(program: &Program, body: &[Instr], pool: &[Reg]) -> String {
    let mut out = String::new();
    for (i, instr) in body.iter().enumerate() {
        let _ = write!(out, "{i:4}: ");
        render(program, instr, pool, &mut out);
        out.push('\n');
    }
    out
}

/// Renders a full method header plus its body.
pub fn disassemble_method(program: &Program, m: &MethodDef) -> String {
    let kind = if m.kind().is_static() { "static" } else { "virtual" };
    let mut s = format!(
        "{} {} /{} (size {}, {})\n",
        kind,
        m.name(),
        m.arity(),
        m.size_estimate(),
        m.size_class()
    );
    s.push_str(&disassemble(program, m.body(), m.arg_pool()));
    s
}

fn render(p: &Program, instr: &Instr, pool: &[Reg], out: &mut String) {
    let _ = match instr {
        Instr::Const { dst, value } => write!(out, "{dst} = const {value}"),
        Instr::ConstNull { dst } => write!(out, "{dst} = null"),
        Instr::Move { dst, src } => write!(out, "{dst} = {src}"),
        Instr::Bin { op, dst, lhs, rhs } => write!(out, "{dst} = {op} {lhs}, {rhs}"),
        Instr::Work { units } => write!(out, "work {units}"),
        Instr::New { dst, class } => write!(out, "{dst} = new {}", p.class(*class).name()),
        Instr::GetField { dst, obj, field } => {
            write!(out, "{dst} = {obj}.{}", p.field(*field).name())
        }
        Instr::PutField { obj, field, src } => {
            write!(out, "{obj}.{} = {src}", p.field(*field).name())
        }
        Instr::GetGlobal { dst, global } => write!(out, "{dst} = ${}", p.global_name(*global)),
        Instr::PutGlobal { global, src } => write!(out, "${} = {src}", p.global_name(*global)),
        Instr::ArrNew { dst, len } => write!(out, "{dst} = newarray[{len}]"),
        Instr::ArrGet { dst, arr, idx } => write!(out, "{dst} = {arr}[{idx}]"),
        Instr::ArrSet { arr, idx, src } => write!(out, "{arr}[{idx}] = {src}"),
        Instr::ArrLen { dst, arr } => write!(out, "{dst} = len {arr}"),
        Instr::InstanceOf { dst, obj, class } => {
            write!(out, "{dst} = {obj} instanceof {}", p.class(*class).name())
        }
        Instr::Jump { target } => write!(out, "jump {target}"),
        Instr::Branch { cond, lhs, rhs, target } => {
            write!(out, "if {lhs} {cond} {rhs} jump {target}")
        }
        Instr::CallStatic { site, dst, callee, args } => {
            if let Some(d) = dst {
                let _ = write!(out, "{d} = ");
            }
            let _ = write!(out, "call{site} {}(", p.method(*callee).name());
            write_args(out, args.of(pool));
            write!(out, ")")
        }
        Instr::CallVirtual { site, dst, selector, recv, args } => {
            if let Some(d) = dst {
                let _ = write!(out, "{d} = ");
            }
            let _ = write!(out, "vcall{site} {recv}.{}(", p.selector(*selector).name());
            write_args(out, args.of(pool));
            write!(out, ")")
        }
        Instr::Return { src: Some(r) } => write!(out, "return {r}"),
        Instr::Return { src: None } => write!(out, "return"),
        Instr::GuardClass { recv, class, else_target } => write!(
            out,
            "guard {recv} is {} else jump {else_target}",
            p.class(*class).name()
        ),
        Instr::GuardMethod { recv, selector, target, else_target } => write!(
            out,
            "guard {recv}.{} dispatches {} else jump {else_target}",
            p.selector(*selector).name(),
            p.method(*target).name()
        ),
    };
}

fn write_args(out: &mut String, args: &[Reg]) {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{a}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn disassembles_calls_and_guards() {
        let mut b = ProgramBuilder::new();
        let sel = b.selector("go", 0);
        let a = b.class("A", None);
        let go = {
            let mut m = b.virtual_method("A.go", a, sel);
            m.ret(None);
            m.finish()
        };
        let main = {
            let mut m = b.static_method("main", 0);
            let r = m.fresh_reg();
            m.new_obj(r, a);
            m.call_virtual(None, sel, r, &[]);
            m.call_static(None, go, &[r]);
            m.ret(None);
            m.finish()
        };
        let p = b.finish(main).unwrap();
        let text = disassemble_method(&p, p.method(main));
        assert!(text.contains("vcall@0 r0.go()"), "got:\n{text}");
        assert!(text.contains("call@1 A.go(r0)"), "got:\n{text}");
        assert!(text.starts_with("static main /0"));
    }
}
