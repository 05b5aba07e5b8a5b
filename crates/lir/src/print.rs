//! Textual assembly printer.
//!
//! [`Module`] implements `Display`; the output round-trips through
//! [`crate::parse::parse_module`]. Functions need module context to print
//! global names, so use [`print_function`] for a single function; without
//! one (`Display for Function`), globals print as `@global.N`. Every piece
//! is written straight into the destination writer, so streaming a
//! rendering into a hasher allocates nothing.

use crate::func::{Block, BlockId, Function, Module};
use crate::inst::{Inst, Term};
use crate::types::Ty;
use crate::value::Operand;
use std::fmt::{self, Write};

/// An operand rendered in place: global names come from the module, or are
/// `global.N` when there is none.
struct Op<'a>(Option<&'a Module>, Operand);

impl fmt::Display for Op<'_> {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Operand::Reg(r) => fmt::Display::fmt(&r, w),
            Operand::Const(c) => fmt::Display::fmt(&c, w),
            Operand::Global(g) => match self.0 {
                Some(m) => write!(w, "@{}", m.globals[g.index()].name),
                None => write!(w, "@global.{}", g.index()),
            },
        }
    }
}

/// Render a function to assembly text using `m` for global names.
pub fn print_function(m: &Module, f: &Function) -> String {
    let mut s = String::new();
    write_function(&mut s, Some(m), f).expect("writing to String cannot fail");
    s
}

fn write_function(w: &mut impl Write, m: Option<&Module>, f: &Function) -> fmt::Result {
    write!(w, "define {} @{}(", f.ret, f.name)?;
    for (i, &(r, ty)) in f.params.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        write!(w, "{ty} {r}")?;
    }
    w.write_str(") {\n")?;
    for b in &f.blocks {
        write_block(w, m, f, b)?;
    }
    w.write_str("}\n")
}

fn block_label(f: &Function, id: BlockId) -> &str {
    &f.block(id).name
}

fn write_block(w: &mut impl Write, m: Option<&Module>, f: &Function, b: &Block) -> fmt::Result {
    w.write_str(&b.name)?;
    w.write_str(":\n")?;
    for phi in &b.phis {
        write!(w, "  {} = phi {} ", phi.dst, phi.ty)?;
        for (i, &(pred, v)) in phi.incomings.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            write!(w, "[ {}, %{} ]", Op(m, v), block_label(f, pred))?;
        }
        w.write_str("\n")?;
    }
    for inst in &b.insts {
        w.write_str("  ")?;
        write_inst(w, m, inst)?;
        w.write_str("\n")?;
    }
    w.write_str("  ")?;
    write_term(w, m, f, &b.term)?;
    w.write_str("\n")
}

fn write_inst(w: &mut impl Write, m: Option<&Module>, inst: &Inst) -> fmt::Result {
    let op = |o: &Operand| Op(m, *o);
    match inst {
        Inst::Bin { dst, op: bin, ty, a, b } => {
            write!(w, "{dst} = {} {ty} {}, {}", bin.mnemonic(), op(a), op(b))
        }
        Inst::FBin { dst, op: bin, a, b } => {
            write!(w, "{dst} = {} f64 {}, {}", bin.mnemonic(), op(a), op(b))
        }
        Inst::Icmp { dst, pred, ty, a, b } => {
            write!(w, "{dst} = icmp {} {ty} {}, {}", pred.mnemonic(), op(a), op(b))
        }
        Inst::Fcmp { dst, pred, a, b } => {
            write!(w, "{dst} = fcmp {} f64 {}, {}", pred.mnemonic(), op(a), op(b))
        }
        Inst::Select { dst, ty, c, t, f } => {
            write!(w, "{dst} = select i1 {}, {ty} {}, {ty} {}", op(c), op(t), op(f))
        }
        Inst::Cast { dst, op: cast, from, to, v } => {
            write!(w, "{dst} = {} {from} {} to {to}", cast.mnemonic(), op(v))
        }
        Inst::Alloca { dst, size, align } => write!(w, "{dst} = alloca {size}, align {align}"),
        Inst::Load { dst, ty, ptr } => write!(w, "{dst} = load {ty}, ptr {}", op(ptr)),
        Inst::Store { ty, val, ptr } => write!(w, "store {ty} {}, ptr {}", op(val), op(ptr)),
        Inst::Gep { dst, base, offset } => {
            write!(w, "{dst} = gep ptr {}, i64 {}", op(base), op(offset))
        }
        Inst::Call { dst, ret, callee, args } => {
            if let Some(d) = dst {
                write!(w, "{d} = call {ret} @{callee}(")?;
            } else {
                write!(w, "call {ret} @{callee}(")?;
            }
            for (i, (ty, a)) in args.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                write!(w, "{ty} {}", op(a))?;
            }
            w.write_str(")")
        }
    }
}

fn write_term(w: &mut impl Write, m: Option<&Module>, f: &Function, t: &Term) -> fmt::Result {
    match t {
        Term::Ret { ty: Ty::Void, .. } | Term::Ret { val: None, .. } => w.write_str("ret void"),
        Term::Ret { ty, val: Some(v) } => write!(w, "ret {ty} {}", Op(m, *v)),
        Term::Br { target } => write!(w, "br label %{}", block_label(f, *target)),
        Term::CondBr { cond, t, f: fb } => write!(
            w,
            "br i1 {}, label %{}, label %{}",
            Op(m, *cond),
            block_label(f, *t),
            block_label(f, *fb)
        ),
        Term::Switch { ty, val, default, cases } => {
            write!(w, "switch {ty} {}, label %{} [", Op(m, *val), block_label(f, *default))?;
            for (k, b) in cases {
                write!(w, " {k}, label %{}", block_label(f, *b))?;
            }
            w.write_str(" ]")
        }
        Term::Unreachable => w.write_str("unreachable"),
    }
}

impl fmt::Display for Module {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.name.is_empty() {
            writeln!(w, "; module {}", self.name)?;
        }
        for g in &self.globals {
            let kind = if g.is_const { "constant" } else { "global" };
            write!(w, "@{} = {kind} [{} x i64] [", g.name, g.words.len())?;
            for (i, v) in g.words.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                write!(w, "{v}")?;
            }
            w.write_str("]\n")?;
        }
        for d in &self.declarations {
            write!(w, "declare {} @{}(", d.ret, d.name)?;
            for (i, ty) in d.params.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                write!(w, "{ty}")?;
            }
            w.write_str(")\n")?;
        }
        for f in &self.functions {
            w.write_str("\n")?;
            write_function(w, Some(self), f)?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    /// Debug-oriented rendering without a module: global operands print as
    /// `@global.N`; use [`print_function`] for parseable output.
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(w, None, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Global, Phi};
    use crate::inst::BinOp;
    use crate::value::{Constant, Reg};

    #[test]
    fn prints_simple_function() {
        let mut m = Module::new("t");
        let mut f = Function::new("f", Ty::I64);
        let p = f.add_param(Ty::I64);
        let e = f.add_block("entry");
        let x = f.new_reg();
        f.block_mut(e).insts.push(Inst::Bin {
            dst: x,
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::Reg(p),
            b: Operand::int(Ty::I64, 3),
        });
        f.block_mut(e).term = Term::Ret { ty: Ty::I64, val: Some(Operand::Reg(x)) };
        m.functions.push(f);
        let text = m.to_string();
        assert!(text.contains("define i64 @f(i64 %0)"));
        assert!(text.contains("%1 = add i64 %0, 3"));
        assert!(text.contains("ret i64 %1"));
    }

    #[test]
    fn prints_phis_and_branches() {
        let mut m = Module::new("t");
        let mut f = Function::new("g", Ty::I64);
        let c = f.add_param(Ty::I1);
        let e = f.add_block("entry");
        let t = f.add_block("left");
        let j = f.add_block("join");
        let x = f.new_reg();
        f.block_mut(e).term = Term::CondBr { cond: Operand::Reg(c), t, f: j };
        f.block_mut(t).term = Term::Br { target: j };
        f.block_mut(j).phis.push(Phi {
            dst: x,
            ty: Ty::I64,
            incomings: vec![(e, Operand::int(Ty::I64, 1)), (t, Operand::int(Ty::I64, 2))],
        });
        f.block_mut(j).term = Term::Ret { ty: Ty::I64, val: Some(Operand::Reg(x)) };
        m.functions.push(f);
        let text = m.to_string();
        assert!(text.contains("br i1 %0, label %left, label %join"));
        assert!(text.contains("%1 = phi i64 [ 1, %entry ], [ 2, %left ]"));
    }

    #[test]
    fn prints_globals_and_declarations() {
        let mut m = Module::new("t");
        m.globals.push(Global { name: "tab".into(), words: vec![1, -2, 3], is_const: true });
        m.declarations.push(crate::func::FuncDecl {
            name: "strlen".into(),
            ret: Ty::I64,
            params: vec![Ty::Ptr],
        });
        let text = m.to_string();
        assert!(text.contains("@tab = constant [3 x i64] [1, -2, 3]"));
        assert!(text.contains("declare i64 @strlen(ptr)"));
    }

    #[test]
    fn prints_memory_and_calls() {
        let mut m = Module::new("t");
        m.globals.push(Global { name: "g".into(), words: vec![0], is_const: false });
        let mut f = Function::new("h", Ty::Void);
        let e = f.add_block("entry");
        let p = f.new_reg();
        let v = f.new_reg();
        let r = f.new_reg();
        f.block_mut(e).insts.push(Inst::Alloca { dst: p, size: 8, align: 8 });
        f.block_mut(e).insts.push(Inst::Load { dst: v, ty: Ty::I64, ptr: Operand::Reg(p) });
        f.block_mut(e).insts.push(Inst::Store {
            ty: Ty::I64,
            val: Operand::Reg(v),
            ptr: Operand::Global(crate::func::GlobalId(0)),
        });
        f.block_mut(e).insts.push(Inst::Call {
            dst: Some(r),
            ret: Ty::I64,
            callee: "strlen".into(),
            args: vec![(Ty::Ptr, Operand::Reg(p))],
        });
        f.block_mut(e).term = Term::Ret { ty: Ty::Void, val: None };
        m.functions.push(f);
        let text = m.to_string();
        assert!(text.contains("%0 = alloca 8, align 8"));
        assert!(text.contains("%1 = load i64, ptr %0"));
        assert!(text.contains("store i64 %1, ptr @g"));
        assert!(text.contains("%2 = call i64 @strlen(ptr %0)"));
    }

    #[test]
    fn prints_switch_and_bool_constants() {
        let mut m = Module::new("t");
        let mut f = Function::new("s", Ty::Void);
        let v = f.add_param(Ty::I32);
        let e = f.add_block("entry");
        let d = f.add_block("d");
        let one = f.add_block("one");
        f.block_mut(e).term = Term::Switch {
            ty: Ty::I32,
            val: Operand::Reg(v),
            default: d,
            cases: vec![(1, one), (-4, d)],
        };
        f.block_mut(d).term = Term::Ret { ty: Ty::Void, val: None };
        f.block_mut(one).term = Term::Br { target: d };
        m.functions.push(f);
        let text = m.to_string();
        assert!(text.contains("switch i32 %0, label %d [ 1, label %one -4, label %d ]"));
        assert_eq!(Operand::Const(Constant::bool(true)), Operand::bool(true));
    }

    #[test]
    fn prints_operands_in_place() {
        let mut m = Module::new("");
        m.globals.push(Global { name: "tab".into(), words: vec![0], is_const: true });
        let mut f = Function::new("o", Ty::Void);
        let e = f.add_block("entry");
        let c = f.new_reg();
        f.block_mut(e).insts.push(Inst::Select {
            dst: c,
            ty: Ty::Ptr,
            c: Operand::bool(true),
            t: Operand::Global(crate::func::GlobalId(0)),
            f: Operand::Const(Constant::Null),
        });
        f.block_mut(e).insts.push(Inst::Store {
            ty: Ty::I64,
            val: Operand::Reg(Reg(3)),
            ptr: Operand::Reg(c),
        });
        f.block_mut(e).term = Term::Ret { ty: Ty::Void, val: None };
        let text = |g: &str| {
            format!(
                "define void @o() {{\nentry:\n  %0 = select i1 true, ptr {g}, ptr null\n  \
                 store i64 %3, ptr %0\n  ret void\n}}\n"
            )
        };
        assert_eq!(print_function(&m, &f), text("@tab"));
        // Without a module, globals print by index.
        assert_eq!(f.to_string(), text("@global.0"));
    }
}
