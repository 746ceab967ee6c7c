//! Lane words: what the compiled walk holds per signal, driver slot,
//! pending update and pipeline stage.
//!
//! The walk in [`crate::opt`] is written once over a [`Word`]. A solo run
//! walks [`Value`] — one scalar lane, lane mask `1` — and a fault chunk
//! walks [`Col`]: [`LANES`] mutants packed into one word per signal, the
//! way ATPG fault simulators pack one fault per bit. A column lifts the
//! paper's integer encoding into lane masks: 64 number payloads plus a
//! `DISC` and an `ILLEGAL` bit-plane. Ops then run on whole words — a
//! guard evaluates to a lane mask, a push is a masked move, a changed
//! mask is one payload compare plus two XORs — and only where lanes
//! really diverge (indirect memory addressing, multi-operation selection,
//! sequential-module busy state) does the walk fall back to one lane at
//! a time through [`Word::get`] and [`Word::set`].
//!
//! # The uniform form
//!
//! A mutant differs from the golden run only inside its fault's cone, so
//! most of a chunk's columns hold one value in every lane most of the
//! time. Such a column is kept *uniform*: its value is stored once (each
//! plane all set or all clear, the payload in one field) and the 64
//! payloads are stale. Every op over uniform operands computes once and
//! yields a uniform result — a copy moves a header, a guard is one scalar
//! compare, a tally update one scalar add, an evaluation one
//! [`Op::apply`]. Only a write that makes lanes differ spreads the value
//! over all 64 payloads (the column turns *dense*). A dense column turns
//! uniform again when a write covers every lane the walk reads, or when
//! those lanes all hold one sentinel (whose payloads are 0, so the planes
//! alone show it).
//!
//! **Soundness rule.** A uniform column holds its value in every lane the
//! walk reads; other lanes may be written freely. The walk reads a
//! signal, driver slot or tally only in its running lanes (`care`): lanes
//! past a partial chunk are never reported, and an overflowed lane
//! reports its initial values, not its column. A pending word is read
//! only in the lanes of its row's mask, and a pipeline stage only in its
//! module's lanes. So an op that knows those lanes may make a column
//! uniform as soon as they agree.

use crate::op::{Arity, Op};
use crate::plan::{combine, LANES};
use crate::tuples::CmpOp;
use crate::value::{DriverTally, Value};

/// One side of a guard comparison: a signal's word or a literal.
#[derive(Debug)]
pub(crate) enum Operand<'a, W> {
    Word(&'a W),
    Const(i64),
}

impl<W> Clone for Operand<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W> Copy for Operand<'_, W> {}

/// A value in each lane of a walk; bit `c` of every lane mask is lane
/// `c`. Masks passed in hold only lanes the word has.
pub(crate) trait Word: Clone + std::fmt::Debug {
    /// [`DriverTally`] in each lane.
    type Tally: Clone + std::fmt::Debug;

    /// Lanes per word.
    const LANES: usize;

    /// `v` in every lane.
    fn splat(v: Value) -> Self;

    /// A fresh tally: every driver `DISC`.
    fn tally() -> Self::Tally;

    /// Empties `tally` in place: every driver `DISC` again.
    fn clear(tally: &mut Self::Tally);

    /// Lane `c`'s value.
    fn get(&self, c: usize) -> Value;

    /// Sets lane `c` to `v`.
    fn set(&mut self, c: usize, v: Value);

    /// Sets every lane to `v`.
    fn fill(&mut self, v: Value);

    /// Sets every lane to `src`'s.
    fn copy_from(&mut self, src: &Self);

    /// The lanes holding `DISC`.
    fn disc(&self) -> u64;

    /// The lanes holding `ILLEGAL`.
    fn illegal(&self) -> u64;

    /// The lanes in which `self` and `other` differ.
    fn diff(&self, other: &Self) -> u64;

    /// The lanes not holding `v`.
    fn differs(&self, v: Value) -> u64;

    /// Copies the lanes of `mask` from `src`, keeping the other lanes of
    /// `care`, a superset of `mask`; the lanes outside `care` are never
    /// read again.
    fn blend(&mut self, src: &Self, mask: u64, care: u64);

    /// Sets the lanes of `mask` to `DISC`.
    fn release(&mut self, mask: u64);

    /// The lanes in which `lhs cmp rhs` holds: only over two numbers.
    fn compare(cmp: CmpOp, lhs: Operand<'_, Self>, rhs: Operand<'_, Self>) -> u64;

    /// The lanes in which `lhs` and `rhs` both hold numbers, `x` and
    /// `y`, with `f(x, y)`.
    fn holds(lhs: Operand<'_, Self>, rhs: Operand<'_, Self>, f: impl Fn(i64, i64) -> bool) -> u64;

    /// [`combine`] of the operand ports `a`, `b` and the operation
    /// select `select`, in (at least) the lanes of `mask`.
    fn combine(a: &Self, b: &Self, select: Option<&Self>, ops: &[Op], mask: u64, out: &mut Self);

    /// Moves `new` onto the driver slot `slot` in the lanes of `mask`,
    /// accounting for it in the signal's `tally`, and writes the
    /// signal's resolved value (meaningful in those lanes) to `out` —
    /// or returns `true` without writing it when the resolved value is
    /// `new` itself. The lanes outside `care`, a superset of `mask`, are
    /// never read again.
    fn drive(
        tally: &mut Self::Tally,
        slot: &mut Self,
        new: &Self,
        mask: u64,
        care: u64,
        out: &mut Self,
    ) -> bool;
}

/// A solo walk's word: one lane, the value itself.
impl Word for Value {
    type Tally = DriverTally;

    const LANES: usize = 1;

    #[inline]
    fn splat(v: Value) -> Value {
        v
    }

    #[inline]
    fn tally() -> DriverTally {
        DriverTally::default()
    }

    #[inline]
    fn clear(tally: &mut DriverTally) {
        *tally = DriverTally::default();
    }

    #[inline]
    fn get(&self, _: usize) -> Value {
        *self
    }

    #[inline]
    fn set(&mut self, _: usize, v: Value) {
        *self = v;
    }

    #[inline]
    fn fill(&mut self, v: Value) {
        *self = v;
    }

    #[inline]
    fn copy_from(&mut self, src: &Value) {
        *self = *src;
    }

    #[inline]
    fn disc(&self) -> u64 {
        u64::from(*self == Value::Disc)
    }

    #[inline]
    fn illegal(&self) -> u64 {
        u64::from(*self == Value::Illegal)
    }

    #[inline]
    fn diff(&self, other: &Value) -> u64 {
        u64::from(self != other)
    }

    #[inline]
    fn differs(&self, v: Value) -> u64 {
        u64::from(*self != v)
    }

    #[inline]
    fn blend(&mut self, src: &Value, mask: u64, _: u64) {
        if mask != 0 {
            *self = *src;
        }
    }

    #[inline]
    fn release(&mut self, mask: u64) {
        if mask != 0 {
            *self = Value::Disc;
        }
    }

    #[inline]
    fn compare(cmp: CmpOp, lhs: Operand<'_, Value>, rhs: Operand<'_, Value>) -> u64 {
        Value::holds(lhs, rhs, |a, b| cmp.holds(a, b))
    }

    #[inline]
    fn holds(
        lhs: Operand<'_, Value>,
        rhs: Operand<'_, Value>,
        f: impl Fn(i64, i64) -> bool,
    ) -> u64 {
        let num = |o: Operand<'_, Value>| match o {
            Operand::Word(v) => v.num(),
            Operand::Const(k) => Some(k),
        };
        match (num(lhs), num(rhs)) {
            (Some(a), Some(b)) => u64::from(f(a, b)),
            _ => 0,
        }
    }

    #[inline]
    fn combine(a: &Value, b: &Value, select: Option<&Value>, ops: &[Op], _: u64, out: &mut Value) {
        *out = combine(*a, *b, select.copied(), ops);
    }

    #[inline]
    fn drive(
        tally: &mut DriverTally,
        slot: &mut Value,
        new: &Value,
        _: u64,
        _: u64,
        out: &mut Value,
    ) -> bool {
        let old = std::mem::replace(slot, *new);
        tally.update(old, *new);
        *out = tally.value();
        false
    }
}

/// A fault chunk's word: [`LANES`] number payloads plus the `DISC` and
/// `ILLEGAL` bit-planes, or one value in every lane (the uniform form,
/// see the module docs). A lane holding `DISC` or `ILLEGAL` has payload
/// 0, so two columns differ exactly in the lanes where a payload differs
/// or a plane bit flips, and a driver tally's sum moves by the payload
/// difference alone. The header leads, so a uniform column's value sits
/// in one cache line.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct Col {
    disc: u64,
    illegal: u64,
    /// Whether every lane holds one value: then each plane is all set or
    /// all clear, `one` is the payload and `pay` is stale.
    uniform: bool,
    one: i64,
    pay: [i64; LANES],
}

/// A column's payloads as a lane loop reads them.
#[derive(Debug, Clone, Copy)]
enum Pays<'a> {
    /// One payload in every lane.
    One(i64),
    /// Each lane's own.
    Each(&'a [i64; LANES]),
}

/// `v`'s payload and its `DISC` and `ILLEGAL` planes in every lane.
#[inline(always)]
fn planes(v: Value) -> (i64, u64, u64) {
    match v {
        Value::Num(x) => (x, 0, 0),
        Value::Disc => (0, !0, 0),
        Value::Illegal => (0, 0, !0),
    }
}

impl Col {
    /// The lanes holding a number.
    #[inline]
    fn nums(&self) -> u64 {
        !(self.disc | self.illegal)
    }

    #[inline(always)]
    fn pays(&self) -> Pays<'_> {
        match self.uniform {
            true => Pays::One(self.one),
            false => Pays::Each(&self.pay),
        }
    }

    /// Lane `c`'s payload.
    #[inline(always)]
    fn at(&self, c: usize) -> i64 {
        match self.uniform {
            true => self.one,
            false => self.pay[c],
        }
    }

    /// Spreads a uniform column's value over every payload: it turns
    /// dense, holding the same lanes.
    #[inline]
    fn densify(&mut self) {
        if self.uniform {
            self.pay = [self.one; LANES];
            self.uniform = false;
        }
    }

    /// Sets a dense column's payloads in the lanes of `lanes` to 0: one
    /// lane at a time when they are few.
    #[inline]
    fn zero(&mut self, lanes: u64) {
        if lanes.count_ones() <= FEW {
            for c in bits(lanes) {
                self.pay[c] = 0;
            }
        } else {
            for (p, m) in self.pay.iter_mut().zip(spread(lanes)) {
                *p &= !m;
            }
        }
    }

    /// Makes a dense column uniform when the lanes of `care` all hold
    /// `DISC`, or all `ILLEGAL` (the soundness rule: no other lane is
    /// read).
    #[inline]
    fn settle(&mut self, care: u64) {
        if self.uniform {
            return;
        }
        if self.disc & care == care {
            self.fill(Value::Disc);
        } else if self.illegal & care == care {
            self.fill(Value::Illegal);
        }
    }
}

/// [`DriverTally`] in every lane: per lane the count of number drivers,
/// the count of `ILLEGAL` drivers and the wrapping sum of the number
/// payloads. The counts are bit-sliced, so a column update moves them
/// with a few word operations; the sums move one payload column at a
/// time, or once while every running lane holds one sum.
#[derive(Debug, Clone)]
pub(crate) struct TallyCol {
    nums: Counts,
    illegals: Counts,
    /// Whether every running lane's sum is `one`; `sum` is stale then.
    uniform: bool,
    one: i64,
    sum: [i64; LANES],
}

impl TallyCol {
    /// Adds `new`'s payload and takes `old`'s in the lanes of `mask`, the
    /// running lanes being `care`: once when every running lane moves by
    /// one difference, a lane at a time when few lanes move, and
    /// otherwise in a pass over every lane.
    #[inline]
    fn shift(&mut self, old: &Col, new: &Col, mask: u64, care: u64) {
        let keep = care & !mask;
        if let (Pays::One(o), Pays::One(n)) = (old.pays(), new.pays()) {
            if o == n {
                return;
            }
            if self.uniform && keep == 0 {
                self.one = self.one.wrapping_add(n.wrapping_sub(o));
                return;
            }
        }
        if self.uniform {
            self.sum = [self.one; LANES];
            self.uniform = false;
        }
        let moved = |c: usize| new.at(c).wrapping_sub(old.at(c));
        if mask.count_ones() <= FEW {
            for c in bits(mask) {
                self.sum[c] = self.sum[c].wrapping_add(moved(c));
            }
        } else if keep.count_ones() <= FEW {
            // Most drives move every running lane but a few: those move
            // the whole column and take the kept lanes back.
            let sum = &mut self.sum;
            zip(new.pays(), old.pays(), |i, n, o| {
                sum[i] = sum[i].wrapping_add(n.wrapping_sub(o));
            });
            for c in bits(keep) {
                self.sum[c] = self.sum[c].wrapping_sub(moved(c));
            }
        } else {
            let (m, sum) = (spread(mask), &mut self.sum);
            zip(new.pays(), old.pays(), |i, n, o| {
                sum[i] = sum[i].wrapping_add(n.wrapping_sub(o) & m[i]);
            });
        }
    }
}

/// A count per lane, bit-sliced: plane `b` holds bit `b` of every lane's
/// count, so adding or taking one in the lanes of a mask ripples a carry
/// (a borrow) through the planes.
#[derive(Debug, Clone, Default)]
struct Counts {
    planes: Vec<u64>,
}

impl Counts {
    /// Adds one in the lanes of `carry`.
    #[inline]
    fn inc(&mut self, mut carry: u64) {
        for plane in &mut self.planes {
            if carry == 0 {
                return;
            }
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        if carry != 0 {
            self.planes.push(carry);
        }
    }

    /// Takes one in the lanes of `borrow`, each holding at least one.
    #[inline]
    fn dec(&mut self, mut borrow: u64) {
        for plane in &mut self.planes {
            if borrow == 0 {
                return;
            }
            let next = !*plane & borrow;
            *plane ^= borrow;
            borrow = next;
        }
        debug_assert_eq!(borrow, 0, "a lane's count went negative");
    }

    /// The lanes counting at least one.
    #[inline]
    fn any(&self) -> u64 {
        self.planes.iter().fold(0, |m, p| m | p)
    }

    /// The lanes counting at least two, and those counting exactly one.
    #[inline]
    fn many_and_one(&self) -> (u64, u64) {
        let Some((&low, high)) = self.planes.split_first() else {
            return (0, 0);
        };
        let many = high.iter().fold(0, |m, p| m | p);
        (many, low & !many)
    }
}

impl Word for Col {
    type Tally = TallyCol;

    const LANES: usize = LANES;

    #[inline]
    fn splat(v: Value) -> Col {
        let mut w = Col {
            disc: 0,
            illegal: 0,
            uniform: true,
            one: 0,
            pay: [0; LANES],
        };
        w.fill(v);
        w
    }

    #[inline]
    fn tally() -> TallyCol {
        TallyCol {
            nums: Counts::default(),
            illegals: Counts::default(),
            uniform: true,
            one: 0,
            sum: [0; LANES],
        }
    }

    #[inline]
    fn clear(tally: &mut TallyCol) {
        tally.nums.planes.clear();
        tally.illegals.planes.clear();
        (tally.uniform, tally.one) = (true, 0);
    }

    #[inline]
    fn get(&self, c: usize) -> Value {
        if self.disc >> c & 1 != 0 {
            Value::Disc
        } else if self.illegal >> c & 1 != 0 {
            Value::Illegal
        } else {
            Value::Num(self.at(c))
        }
    }

    #[inline]
    fn set(&mut self, c: usize, v: Value) {
        if self.uniform {
            if self.get(c) == v {
                return;
            }
            self.densify();
        }
        let bit = 1u64 << c;
        self.disc &= !bit;
        self.illegal &= !bit;
        self.pay[c] = 0;
        match v {
            Value::Num(x) => self.pay[c] = x,
            Value::Disc => self.disc |= bit,
            Value::Illegal => self.illegal |= bit,
        }
    }

    #[inline]
    fn fill(&mut self, v: Value) {
        (self.one, self.disc, self.illegal) = planes(v);
        self.uniform = true;
    }

    #[inline]
    fn copy_from(&mut self, src: &Col) {
        (self.disc, self.illegal) = (src.disc, src.illegal);
        (self.uniform, self.one) = (src.uniform, src.one);
        if !src.uniform {
            self.pay = src.pay;
        }
    }

    #[inline]
    fn disc(&self) -> u64 {
        self.disc
    }

    #[inline]
    fn illegal(&self) -> u64 {
        self.illegal
    }

    #[inline]
    fn diff(&self, other: &Col) -> u64 {
        let pay = lanes_where(self.pays(), other.pays(), |a, b| a != b);
        pay | (self.disc ^ other.disc) | (self.illegal ^ other.illegal)
    }

    #[inline]
    fn differs(&self, v: Value) -> u64 {
        let (x, disc, illegal) = planes(v);
        let pay = lanes_where(self.pays(), Pays::One(x), |a, b| a != b);
        pay | (self.disc ^ disc) | (self.illegal ^ illegal)
    }

    /// A move over every lane `care` holds is a copy; so is one that
    /// keeps only a few lanes, which are put back after (a uniform `src`
    /// stays uniform where they already hold its value). Few moved lanes
    /// move one at a time.
    #[inline]
    fn blend(&mut self, src: &Col, mask: u64, care: u64) {
        let keep = care & !mask;
        if keep == 0 {
            return self.copy_from(src);
        }
        if mask == 0 || self.uniform && src.uniform && self.diff(src) == 0 {
            return;
        }
        if mask.count_ones() <= FEW {
            for c in bits(mask) {
                self.set(c, src.get(c));
            }
        } else if keep.count_ones() <= FEW {
            let mut kept = [(0, Value::Disc); FEW as usize];
            for (k, c) in bits(keep).enumerate() {
                kept[k] = (c, self.get(c));
            }
            self.copy_from(src);
            for &(c, v) in &kept[..keep.count_ones() as usize] {
                self.set(c, v);
            }
        } else {
            self.densify();
            let (m, pay) = (spread(mask), &mut self.pay);
            match src.pays() {
                Pays::One(v) => {
                    for i in 0..LANES {
                        pay[i] = (v & m[i]) | (pay[i] & !m[i]);
                    }
                }
                Pays::Each(s) => {
                    for i in 0..LANES {
                        pay[i] = (s[i] & m[i]) | (pay[i] & !m[i]);
                    }
                }
            }
            self.disc = (self.disc & !mask) | (src.disc & mask);
            self.illegal = (self.illegal & !mask) | (src.illegal & mask);
        }
        self.settle(care);
    }

    #[inline]
    fn release(&mut self, mask: u64) {
        if mask == 0 || self.uniform && self.disc != 0 {
            return;
        }
        if mask == !0 {
            return self.fill(Value::Disc);
        }
        self.densify();
        self.zero(mask);
        self.disc |= mask;
        self.illegal &= !mask;
    }

    #[inline]
    fn compare(cmp: CmpOp, lhs: Operand<'_, Col>, rhs: Operand<'_, Col>) -> u64 {
        // One lane loop per operator, so each vectorizes.
        match cmp {
            CmpOp::Eq => Col::holds(lhs, rhs, |a, b| a == b),
            CmpOp::Ne => Col::holds(lhs, rhs, |a, b| a != b),
            CmpOp::Lt => Col::holds(lhs, rhs, |a, b| a < b),
            CmpOp::Le => Col::holds(lhs, rhs, |a, b| a <= b),
            CmpOp::Gt => Col::holds(lhs, rhs, |a, b| a > b),
            CmpOp::Ge => Col::holds(lhs, rhs, |a, b| a >= b),
        }
    }

    #[inline(always)]
    fn holds(lhs: Operand<'_, Col>, rhs: Operand<'_, Col>, f: impl Fn(i64, i64) -> bool) -> u64 {
        fn side(o: Operand<'_, Col>) -> (u64, Pays<'_>) {
            match o {
                Operand::Word(w) => (w.nums(), w.pays()),
                Operand::Const(k) => (!0, Pays::One(k)),
            }
        }
        let ((ln, lp), (rn, rp)) = (side(lhs), side(rhs));
        ln & rn & lanes_where(lp, rp, f)
    }

    /// A single-operation module, or a multi-operation one whose lanes
    /// all select the same operation (or none), combines whole columns;
    /// lanes selecting different operations combine one at a time.
    #[inline]
    fn combine(a: &Col, b: &Col, select: Option<&Col>, ops: &[Op], mask: u64, out: &mut Col) {
        let Some(sel) = select else {
            return apply(ops[0], a, b, mask, out);
        };
        let lead = sel.get(mask.trailing_zeros() as usize % LANES);
        if sel.differs(lead) & mask != 0 {
            out.fill(Value::Disc);
            for c in bits(mask) {
                out.set(c, combine(a.get(c), b.get(c), Some(sel.get(c)), ops));
            }
            return;
        }
        match lead {
            // No selection: idle only while both operands are.
            Value::Disc => {
                out.fill(Value::Illegal);
                out.release(a.disc & b.disc);
            }
            Value::Num(k) if usize::try_from(k).is_ok_and(|k| k < ops.len()) => {
                apply(ops[k as usize], a, b, mask, out);
            }
            _ => out.fill(Value::Illegal),
        }
    }

    /// A move over every running lane onto a signal no running lane
    /// drives yet leaves `new` the only driver: it is the resolved value.
    #[inline]
    fn drive(
        tally: &mut TallyCol,
        slot: &mut Col,
        new: &Col,
        mask: u64,
        care: u64,
        out: &mut Col,
    ) -> bool {
        let t = tally;
        let alone = mask & care == care && (t.nums.any() | t.illegals.any()) & care == 0;
        t.nums.inc(mask & new.nums() & !slot.nums());
        t.nums.dec(mask & slot.nums() & !new.nums());
        t.illegals.inc(mask & new.illegal & !slot.illegal);
        t.illegals.dec(mask & slot.illegal & !new.illegal);
        // Payloads are 0 in non-number lanes, so a sum moves by the
        // payload difference, and a running lane without a number
        // driver sums to 0.
        let (many, one) = t.nums.many_and_one();
        if (one | many) & care == 0 {
            (t.uniform, t.one) = (true, 0);
        } else if alone {
            (t.uniform, t.one) = (new.uniform, new.one);
            if !new.uniform {
                t.sum = new.pay;
            }
        } else {
            t.shift(slot, new, mask, care);
        }
        slot.blend(new, mask, care);
        if alone {
            return true;
        }
        // `resolve`'s truth table off the counts.
        let illegal = t.illegals.any() | many;
        let disc = !(illegal | one);
        if illegal & care == care {
            out.fill(Value::Illegal);
        } else if disc & care == care {
            out.fill(Value::Disc);
        } else if t.uniform && one & !illegal & care == care {
            out.fill(Value::Num(t.one));
        } else {
            out.pay = match t.uniform {
                true => [t.one; LANES],
                false => t.sum,
            };
            out.zero(illegal & care);
            (out.disc, out.illegal, out.uniform) = (disc, illegal, false);
        }
        false
    }
}

/// At most this many lanes an op moves one at a time, or leaves alone
/// and puts back after moving the whole column, instead of a masked pass
/// over every lane.
const FEW: u32 = 4;

/// [`Op::apply`] over two operand columns, in (at least) the lanes of
/// `mask`: once over uniform operands, an idle module's included;
/// otherwise the arity rules become plane logic and the arithmetic a
/// lanewise loop (the partial operations, and the costly fixed-point
/// ones, apply lane by lane).
#[inline]
fn apply(op: Op, a: &Col, b: &Col, mask: u64, out: &mut Col) {
    if a.uniform && b.uniform {
        return out.fill(op.apply(a.get(0), b.get(0)));
    }
    let idle = a.disc & b.disc;
    let live = match op.arity() {
        Arity::UnaryA => a.nums() & b.disc,
        Arity::UnaryB => a.disc & b.nums(),
        Arity::Binary => a.nums() & b.nums(),
    };
    let mut illegal = !(idle | live);
    let (x, y, pay) = (a.pays(), b.pays(), &mut out.pay);
    match op {
        Op::Add => lanewise(pay, x, y, i64::wrapping_add),
        Op::Sub => lanewise(pay, x, y, i64::wrapping_sub),
        Op::Mul => lanewise(pay, x, y, i64::wrapping_mul),
        Op::Min => lanewise(pay, x, y, std::cmp::min),
        Op::Max => lanewise(pay, x, y, std::cmp::max),
        Op::And => lanewise(pay, x, y, |x, y| x & y),
        Op::Or => lanewise(pay, x, y, |x, y| x | y),
        Op::Xor => lanewise(pay, x, y, |x, y| x ^ y),
        Op::PassA => lanewise(pay, x, y, |x, _| x),
        Op::PassB => lanewise(pay, x, y, |_, y| y),
        Op::Neg => lanewise(pay, x, y, |x, _| x.wrapping_neg()),
        Op::Abs => lanewise(pay, x, y, |x, _| x.wrapping_abs()),
        _ => {
            for c in bits(live & mask) {
                match op.apply(a.get(c), b.get(c)) {
                    Value::Num(v) => pay[c] = v,
                    _ => illegal |= 1 << c,
                }
            }
        }
    }
    (out.disc, out.illegal, out.uniform) = (idle, illegal, false);
    // Restore payload 0 where the lanes of `mask` hold no number.
    out.zero(mask & !(live & !illegal));
}

/// Runs `f(i, x, y)` on lane `i`'s payloads for every lane, one loop per
/// form of the operands, so each vectorizes.
#[inline(always)]
fn zip(x: Pays<'_>, y: Pays<'_>, mut f: impl FnMut(usize, i64, i64)) {
    match (x, y) {
        (Pays::One(x), Pays::One(y)) => (0..LANES).for_each(|i| f(i, x, y)),
        (Pays::One(x), Pays::Each(y)) => (0..LANES).for_each(|i| f(i, x, y[i])),
        (Pays::Each(x), Pays::One(y)) => (0..LANES).for_each(|i| f(i, x[i], y)),
        (Pays::Each(x), Pays::Each(y)) => (0..LANES).for_each(|i| f(i, x[i], y[i])),
    }
}

/// `out[i] = f(x[i], y[i])` in every lane.
#[inline(always)]
fn lanewise(out: &mut [i64; LANES], x: Pays<'_>, y: Pays<'_>, f: impl Fn(i64, i64) -> i64) {
    zip(x, y, |i, x, y| out[i] = f(x, y));
}

/// `mask` spread over the lanes: lane `i` all ones where bit `i` is
/// set, all zeros elsewhere. Built four lanes at a time from a table, so
/// the masked loops over it vectorize without per-lane shifts.
#[inline(always)]
fn spread(mask: u64) -> [i64; LANES] {
    const NIBBLES: [[i64; 4]; 16] = {
        let mut table = [[0; 4]; 16];
        let mut n = 0;
        while n < 16 {
            let mut j = 0;
            while j < 4 {
                table[n][j] = -((n as i64 >> j) & 1);
                j += 1;
            }
            n += 1;
        }
        table
    };
    let mut lanes = [0; LANES];
    for (k, quad) in lanes.chunks_exact_mut(4).enumerate() {
        quad.copy_from_slice(&NIBBLES[(mask >> (4 * k)) as usize & 15]);
    }
    lanes
}

/// The lanes whose payloads in `x` and `y` satisfy `f`, as a mask: every
/// lane or none over two uniform operands.
#[inline(always)]
fn lanes_where(x: Pays<'_>, y: Pays<'_>, f: impl Fn(i64, i64) -> bool) -> u64 {
    match (x, y) {
        (Pays::One(x), Pays::One(y)) => u64::from(f(x, y)).wrapping_neg(),
        (Pays::One(x), Pays::Each(y)) => gather(|i| f(x, y[i])),
        (Pays::Each(x), Pays::One(y)) => gather(|i| f(x[i], y)),
        (Pays::Each(x), Pays::Each(y)) => gather(|i| f(x[i], y[i])),
    }
}

/// The lanes for which `f` holds, as a mask (gathered a byte at a time,
/// which keeps the compare loop vectorizable).
#[inline(always)]
fn gather(f: impl Fn(usize) -> bool) -> u64 {
    let mut mask = 0u64;
    for k in (0..LANES).step_by(8) {
        let mut byte = 0u64;
        for j in 0..8 {
            byte |= u64::from(f(k + j)) << j;
        }
        mask |= byte << k;
    }
    mask
}

/// The lanes set in `mask`, ascending.
#[inline(always)]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value the walk distinguishes, negative payloads included.
    const VALUES: [Value; 6] = [
        Value::Disc,
        Value::Illegal,
        Value::Num(0),
        Value::Num(5),
        Value::Num(-3),
        Value::Num(i64::MIN),
    ];

    /// A column whose lane `c` holds `f(c)`.
    fn col(f: impl Fn(usize) -> Value) -> Col {
        let mut w = Col::splat(Value::Disc);
        for c in 0..LANES {
            w.set(c, f(c));
        }
        w
    }

    /// Whether `w` is well formed in the lanes of `lanes`: a uniform
    /// column's planes are each all set or all clear, at most one of
    /// them, and its payload is 0 unless it holds a number; a dense
    /// column's sentinel lanes have payload 0 (what makes a changed mask
    /// one payload compare plus two XORs).
    fn canonical(w: &Col, lanes: u64) -> bool {
        match w.uniform {
            true => {
                let whole = |p: u64| p == 0 || p == !0;
                whole(w.disc)
                    && whole(w.illegal)
                    && w.disc & w.illegal == 0
                    && (w.nums() != 0 || w.one == 0)
            }
            false => bits(lanes & !w.nums()).all(|c| w.pay[c] == 0),
        }
    }

    fn pick(c: usize, salt: usize) -> Value {
        VALUES[(c * 7 + salt) % VALUES.len()]
    }

    /// The forms an operand takes in a walk: uniform, uniform and then
    /// written in one lane, dense, and dense with every lane agreeing.
    fn forms(salt: usize) -> [Col; 4] {
        let v = VALUES[salt % VALUES.len()];
        let mut written = Col::splat(v);
        written.set(17, VALUES[(salt + 1) % VALUES.len()]);
        let mut agreeing = col(|c| pick(c, salt));
        for c in 0..LANES {
            agreeing.set(c, v);
        }
        assert!(!written.uniform && !agreeing.uniform);
        [Col::splat(v), written, col(|c| pick(c, salt)), agreeing]
    }

    /// Every form of every value.
    fn operands() -> Vec<Col> {
        (0..VALUES.len()).flat_map(forms).collect()
    }

    /// `(mask, care)` pairs covering each move strategy: every running
    /// lane moved, all but a few, a few, and a masked pass, with every
    /// lane running and with a partial chunk.
    const MASKS: [(u64, u64); 7] = [
        (0x5555_0f0f_ff00_1234, !0),
        (!0, !0),
        (!(1 << 17), !0),
        (!0 ^ 0b1011 << 40, !0),
        (1 << 63 | 1 << 3, !0),
        (0xff_ffff_fffe, 0xff_ffff_ffff),
        (0xff_ffff_ffff, 0xff_ffff_ffff),
    ];

    #[test]
    fn columns_agree_with_scalar_values_lane_by_lane() {
        let operands = operands();
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for a in &operands {
            for b in &operands {
                for c in 0..LANES {
                    let (x, y) = (a.get(c), b.get(c));
                    assert_eq!(a.diff(b) >> c & 1 == 1, x != y, "diff lane {c}");
                    assert_eq!(a.differs(y) >> c & 1 == 1, x != y, "differs lane {c}");
                    assert_eq!(a.disc() >> c & 1 == 1, x == Value::Disc);
                    assert_eq!(a.illegal() >> c & 1 == 1, x == Value::Illegal);
                    for cmp in cmps {
                        let sides = [
                            (
                                Operand::Word(a),
                                Operand::Word(b),
                                Operand::Word(&x),
                                Operand::Word(&y),
                            ),
                            (
                                Operand::Word(a),
                                Operand::Const(5),
                                Operand::Word(&x),
                                Operand::Const(5),
                            ),
                            (
                                Operand::Const(-3),
                                Operand::Word(b),
                                Operand::Const(-3),
                                Operand::Word(&y),
                            ),
                        ];
                        for (l, r, sl, sr) in sides {
                            let col = Col::compare(cmp, l, r);
                            assert_eq!(
                                col >> c & 1,
                                Value::compare(cmp, sl, sr),
                                "{cmp:?} lane {c}"
                            );
                        }
                    }
                }
                for (mask, care) in MASKS {
                    // A move of the lanes of `mask`, keeping the rest of `care`.
                    let mut blended = a.clone();
                    blended.blend(b, mask, care);
                    assert!(canonical(&blended, care), "blend {mask:x}");
                    for c in bits(care) {
                        let want = if mask >> c & 1 == 1 {
                            b.get(c)
                        } else {
                            a.get(c)
                        };
                        assert_eq!(blended.get(c), want, "blend {mask:x} lane {c}");
                    }
                    // A release in every lane of `mask`.
                    let mut released = a.clone();
                    released.release(mask);
                    assert!(canonical(&released, !0), "release {mask:x}");
                    for c in 0..LANES {
                        let want = if mask >> c & 1 == 1 {
                            Value::Disc
                        } else {
                            a.get(c)
                        };
                        assert_eq!(released.get(c), want, "release {mask:x} lane {c}");
                    }
                }
                let mut copied = a.clone();
                copied.copy_from(b);
                assert!(canonical(&copied, !0) && copied.diff(b) == 0);
                for v in VALUES {
                    let mut filled = b.clone();
                    filled.fill(v);
                    assert!(canonical(&filled, !0) && filled.differs(v) == 0);
                    let mut written = a.clone();
                    written.set(40, v);
                    assert!(canonical(&written, !0));
                    assert_eq!(written.diff(a) & !(1 << 40), 0);
                    assert_eq!(written.get(40), v);
                }
            }
        }
    }

    #[test]
    fn evaluations_agree_with_scalar_values_lane_by_lane() {
        let operands = operands();
        // The lanes' select words: none, every lane one in-range
        // operation, one out of range, `ILLEGAL`, and lanes selecting
        // different operations.
        let selects = [
            Col::splat(Value::Disc),
            Col::splat(Value::Num(1)),
            col(|_| Value::Num(1)),
            Col::splat(Value::Num(7)),
            Col::splat(Value::Illegal),
            col(|c| [Value::Disc, Value::Num(0), Value::Num(1), Value::Num(9)][c % 4]),
        ];
        // An output word full of stale values, which every evaluation
        // overwrites in its lanes.
        let stale = [col(|c| pick(c, 4)), Col::splat(Value::Num(77))];
        for (i, a) in operands.iter().enumerate() {
            for (j, b) in operands.iter().enumerate() {
                for (mask, _) in MASKS {
                    let mut out = stale[(i + j) % 2].clone();
                    for op in [Op::Add, Op::Mul, Op::PassB, Op::Neg, Op::Shr, Op::SqrtFx(4)] {
                        Col::combine(a, b, None, &[op], mask, &mut out);
                        assert!(canonical(&out, mask), "{op:?}");
                        for c in bits(mask) {
                            let want = op.apply(a.get(c), b.get(c));
                            assert_eq!(out.get(c), want, "{op:?} {mask:x} lane {c}");
                        }
                    }
                    let ops = [Op::Add, Op::Sub];
                    for select in &selects {
                        Col::combine(a, b, Some(select), &ops, mask, &mut out);
                        assert!(canonical(&out, mask));
                        for c in bits(mask) {
                            let want = combine(a.get(c), b.get(c), Some(select.get(c)), &ops);
                            assert_eq!(out.get(c), want, "select {mask:x} lane {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_tallies_resolve_like_driver_tallies() {
        // Three slots driven in varying lanes and forms: each lane of
        // `care` must track a scalar DriverTally over the same updates,
        // the lanes an update leaves alone included. Drives are mostly
        // `DISC`, so lanes often hold one number driver and read the
        // tally's sum. A walk's `care` (its running lanes) is fixed, so
        // each pass keeps one.
        for care in [!0, 0xff_ffff_ffff] {
            let mut slots = [
                Col::splat(Value::Disc),
                Col::splat(Value::Disc),
                Col::splat(Value::Disc),
            ];
            let mut tally = Col::tally();
            let mut scalar = vec![[Value::Disc; 3]; LANES];
            let mut tallies = vec![DriverTally::default(); LANES];
            let mut out = Col::splat(Value::Disc);
            let mut drive = |slot: usize, new: &Col, mask: u64, step: usize| {
                let mask = care & mask;
                if Col::drive(&mut tally, &mut slots[slot], new, mask, care, &mut out) {
                    out.copy_from(new);
                }
                for c in bits(mask) {
                    let old = std::mem::replace(&mut scalar[c][slot], new.get(c));
                    tallies[c].update(old, new.get(c));
                }
                assert!(canonical(&out, care), "step {step}");
                assert!(canonical(&slots[slot], care), "step {step}");
                for c in bits(care) {
                    assert_eq!(out.get(c), tallies[c].value(), "step {step} lane {c}");
                    assert_eq!(slots[slot].get(c), scalar[c][slot], "step {step} lane {c}");
                }
                (out.uniform, tally.uniform, out.get(0))
            };
            // One number driver per lane, then a second driver in all
            // lanes but a kept few, then its release everywhere: each
            // lane reads the first driver's number off the sum again.
            let first = col(|c| Value::Num(c as i64 * 3 - 7));
            let second = col(|c| Value::Num(100 - c as i64));
            drive(0, &first, !0, 0);
            drive(1, &second, !(1 << 5 | 1 << 17), 1);
            drive(1, &Col::splat(Value::Disc), !0, 2);
            for step in 0..120usize {
                let slot = step % 3;
                let mask = match step % 4 {
                    0 => 0x9e37_79b9_7f4a_7c15u64.rotate_left(step as u32 * 5),
                    _ => MASKS[step % MASKS.len()].0,
                };
                let forms = forms(step);
                let new = match step % 5 {
                    0 => col(|c| match (c + step) % 3 {
                        0 => pick(c + step, step),
                        _ => Value::Disc,
                    }),
                    1 => Col::splat(Value::Disc),
                    k => forms[k - 2].clone(),
                };
                drive(slot, &new, mask, step);
            }
            // Every running lane takes one number on one slot, then
            // releases every slot: the tally and its result are uniform
            // again.
            let num = Col::splat(Value::Num(9));
            for slot in 0..3 {
                drive(slot, &Col::splat(Value::Disc), !0, 200);
            }
            assert_eq!(drive(0, &num, !0, 201), (true, true, Value::Num(9)));
            assert_eq!(drive(1, &num, !0, 202), (true, true, Value::Illegal));
            for slot in 0..3 {
                drive(slot, &Col::splat(Value::Disc), !0, 203);
            }
            assert!(slots.iter().all(|s| s.uniform) && tally.uniform && out.uniform);
        }
    }
}
