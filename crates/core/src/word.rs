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

use crate::op::{Arity, Op};
use crate::plan::{combine, LANES};
use crate::tuples::CmpOp;
use crate::value::{DriverTally, Value};

/// One side of a guard comparison: a signal's word or a literal.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'a, W> {
    Word(&'a W),
    Const(i64),
}

/// A value in each lane of a walk; bit `c` of every lane mask is lane
/// `c`. Masks passed in hold only lanes the word has.
pub(crate) trait Word: Copy + std::fmt::Debug {
    /// [`DriverTally`] in each lane.
    type Tally: Clone + std::fmt::Debug;

    /// Lanes per word.
    const LANES: usize;

    /// `v` in every lane.
    fn splat(v: Value) -> Self;

    /// A fresh tally: every driver `DISC`.
    fn tally() -> Self::Tally;

    /// Lane `c`'s value.
    fn get(&self, c: usize) -> Value;

    /// Sets lane `c` to `v`.
    fn set(&mut self, c: usize, v: Value);

    /// The lanes holding `DISC`.
    fn disc(&self) -> u64;

    /// The lanes holding `ILLEGAL`.
    fn illegal(&self) -> u64;

    /// The lanes in which `self` and `other` differ.
    fn diff(&self, other: &Self) -> u64;

    /// Copies the lanes of `mask` from `src`, keeping the other lanes.
    fn blend(&mut self, src: &Self, mask: u64);

    /// Sets the lanes of `mask` to `DISC`.
    fn release(&mut self, mask: u64);

    /// The lanes in which `lhs cmp rhs` holds: only over two numbers.
    fn compare(cmp: CmpOp, lhs: Operand<'_, Self>, rhs: Operand<'_, Self>) -> u64;

    /// [`combine`] of the operand ports `a`, `b` and the operation
    /// select `select`, in (at least) the lanes of `mask`.
    fn combine(a: &Self, b: &Self, select: Option<&Self>, ops: &[Op], mask: u64, out: &mut Self);

    /// Moves `new` onto the driver slot `slot` in the lanes of `mask`,
    /// accounting for it in the signal's `tally`, and writes the
    /// signal's resolved value (meaningful in those lanes) to `out`. The
    /// lanes outside `care`, a superset of `mask`, are never read again.
    fn drive(
        tally: &mut Self::Tally,
        slot: &mut Self,
        new: &Self,
        mask: u64,
        care: u64,
        out: &mut Self,
    );
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
    fn get(&self, _: usize) -> Value {
        *self
    }

    #[inline]
    fn set(&mut self, _: usize, v: Value) {
        *self = v;
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
    fn blend(&mut self, src: &Value, mask: u64) {
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
        let num = |o: Operand<'_, Value>| match o {
            Operand::Word(v) => v.num(),
            Operand::Const(k) => Some(k),
        };
        match (num(lhs), num(rhs)) {
            (Some(a), Some(b)) => u64::from(cmp.holds(a, b)),
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
    ) {
        let old = std::mem::replace(slot, *new);
        tally.update(old, *new);
        *out = tally.value();
    }
}

/// A fault chunk's word: [`LANES`] number payloads plus the `DISC` and
/// `ILLEGAL` bit-planes. A lane holding `DISC` or `ILLEGAL` has payload
/// 0, so two columns differ exactly in the lanes where a payload differs
/// or a plane bit flips, and a driver tally's sum moves by the payload
/// difference alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Col {
    pay: [i64; LANES],
    disc: u64,
    illegal: u64,
}

impl Col {
    /// The lanes holding a number.
    #[inline]
    fn nums(&self) -> u64 {
        !(self.disc | self.illegal)
    }
}

/// [`DriverTally`] in every lane: per lane the count of number drivers,
/// the count of `ILLEGAL` drivers and the wrapping sum of the number
/// payloads. The counts are bit-sliced, so a column update moves them
/// with a few word operations; the sums move one payload column at a
/// time.
#[derive(Debug, Clone)]
pub(crate) struct TallyCol {
    nums: Counts,
    illegals: Counts,
    sum: [i64; LANES],
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
        let (pay, disc, illegal) = match v {
            Value::Num(x) => (x, 0, 0),
            Value::Disc => (0, !0, 0),
            Value::Illegal => (0, 0, !0),
        };
        Col {
            pay: [pay; LANES],
            disc,
            illegal,
        }
    }

    #[inline]
    fn tally() -> TallyCol {
        TallyCol {
            nums: Counts::default(),
            illegals: Counts::default(),
            sum: [0; LANES],
        }
    }

    #[inline]
    fn get(&self, c: usize) -> Value {
        if self.disc >> c & 1 != 0 {
            Value::Disc
        } else if self.illegal >> c & 1 != 0 {
            Value::Illegal
        } else {
            Value::Num(self.pay[c])
        }
    }

    #[inline]
    fn set(&mut self, c: usize, v: Value) {
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
    fn disc(&self) -> u64 {
        self.disc
    }

    #[inline]
    fn illegal(&self) -> u64 {
        self.illegal
    }

    #[inline]
    fn diff(&self, other: &Col) -> u64 {
        let pay = lanes_where(|i| self.pay[i] != other.pay[i]);
        pay | (self.disc ^ other.disc) | (self.illegal ^ other.illegal)
    }

    #[inline]
    fn blend(&mut self, src: &Col, mask: u64) {
        for i in 0..LANES {
            let m = lane_mask(mask, i);
            self.pay[i] = (src.pay[i] & m) | (self.pay[i] & !m);
        }
        self.disc = (self.disc & !mask) | (src.disc & mask);
        self.illegal = (self.illegal & !mask) | (src.illegal & mask);
    }

    #[inline]
    fn release(&mut self, mask: u64) {
        for i in 0..LANES {
            self.pay[i] &= !lane_mask(mask, i);
        }
        self.disc |= mask;
        self.illegal &= !mask;
    }

    #[inline]
    fn compare(cmp: CmpOp, lhs: Operand<'_, Col>, rhs: Operand<'_, Col>) -> u64 {
        let nums = |o: Operand<'_, Col>| match o {
            Operand::Word(w) => w.nums(),
            Operand::Const(_) => !0,
        };
        let at = |o: Operand<'_, Col>, i: usize| match o {
            Operand::Word(w) => w.pay[i],
            Operand::Const(k) => k,
        };
        let (l, r) = (lhs, rhs);
        let holds = match cmp {
            CmpOp::Eq => lanes_where(|i| at(l, i) == at(r, i)),
            CmpOp::Ne => lanes_where(|i| at(l, i) != at(r, i)),
            CmpOp::Lt => lanes_where(|i| at(l, i) < at(r, i)),
            CmpOp::Le => lanes_where(|i| at(l, i) <= at(r, i)),
            CmpOp::Gt => lanes_where(|i| at(l, i) > at(r, i)),
            CmpOp::Ge => lanes_where(|i| at(l, i) >= at(r, i)),
        };
        nums(lhs) & nums(rhs) & holds
    }

    /// A single-operation module, or a multi-operation one whose lanes
    /// all select the same operation (or none), combines whole columns;
    /// lanes selecting different operations combine one at a time.
    #[inline]
    fn combine(a: &Col, b: &Col, select: Option<&Col>, ops: &[Op], mask: u64, out: &mut Col) {
        let Some(sel) = select else {
            return apply(ops[0], a, b, mask, out);
        };
        // Whether every lane of `mask` selects what lane `lead` selects.
        let lead = mask.trailing_zeros() as usize % LANES;
        let agree = |plane: u64| (plane ^ (plane >> lead & 1).wrapping_neg()) & mask == 0;
        let same = lanes_where(|i| sel.pay[i] == sel.pay[lead]);
        let uniform = mask & !same == 0 && agree(sel.disc) && agree(sel.illegal);
        match (uniform, sel.get(lead)) {
            // No selection: idle only while both operands are.
            (true, Value::Disc) => {
                *out = Col::splat(Value::Illegal);
                out.release(a.disc & b.disc);
            }
            (true, Value::Num(k)) if usize::try_from(k).is_ok_and(|k| k < ops.len()) => {
                apply(ops[k as usize], a, b, mask, out);
            }
            _ => {
                *out = Col::splat(Value::Disc);
                for c in bits(mask) {
                    out.set(c, combine(a.get(c), b.get(c), Some(sel.get(c)), ops));
                }
            }
        }
    }

    #[inline]
    fn drive(tally: &mut TallyCol, slot: &mut Col, new: &Col, mask: u64, care: u64, out: &mut Col) {
        let t = tally;
        t.nums.inc(mask & new.nums() & !slot.nums());
        t.nums.dec(mask & slot.nums() & !new.nums());
        t.illegals.inc(mask & new.illegal & !slot.illegal);
        t.illegals.dec(mask & slot.illegal & !new.illegal);
        // Payloads are 0 in non-number lanes, so a sum moves by the
        // payload difference. Most drives move every running lane but a
        // few: those move the whole column and put the kept lanes back.
        let keep = care & !mask;
        if keep.count_ones() <= FEW {
            let mut kept = [(0, 0); FEW as usize];
            for (k, c) in bits(keep).enumerate() {
                kept[k] = (c, slot.pay[c]);
            }
            for i in 0..LANES {
                t.sum[i] = t.sum[i].wrapping_add(new.pay[i].wrapping_sub(slot.pay[i]));
            }
            slot.pay = new.pay;
            for &(c, old) in &kept[..keep.count_ones() as usize] {
                t.sum[c] = t.sum[c].wrapping_sub(new.pay[c].wrapping_sub(old));
                slot.pay[c] = old;
            }
        } else {
            for i in 0..LANES {
                let m = lane_mask(mask, i);
                let pay = (new.pay[i] & m) | (slot.pay[i] & !m);
                t.sum[i] = t.sum[i].wrapping_add(pay.wrapping_sub(slot.pay[i]));
                slot.pay[i] = pay;
            }
        }
        slot.disc = (slot.disc & !mask) | (new.disc & mask);
        slot.illegal = (slot.illegal & !mask) | (new.illegal & mask);
        // `resolve`'s truth table off the counts: a lane with no number
        // driver sums to 0.
        let (many, one) = t.nums.many_and_one();
        let illegal = t.illegals.any() | many;
        out.pay = t.sum;
        if illegal != 0 {
            for i in 0..LANES {
                out.pay[i] &= !lane_mask(illegal, i);
            }
        }
        out.illegal = illegal;
        out.disc = !(illegal | one);
    }
}

/// At most this many running lanes a tally move leaves alone and puts
/// back after moving the whole column, instead of a masked pass over
/// every lane.
const FEW: u32 = 4;

/// [`Op::apply`] over two operand columns, in (at least) the lanes of
/// `mask`: the arity rules become plane logic and the arithmetic a
/// lanewise loop (the partial operations, and the costly fixed-point
/// ones, apply lane by lane). An idle module — no lane combines —
/// computes nothing.
#[inline]
fn apply(op: Op, a: &Col, b: &Col, mask: u64, out: &mut Col) {
    let idle = a.disc & b.disc;
    let live = match op.arity() {
        Arity::UnaryA => a.nums() & b.disc,
        Arity::UnaryB => a.disc & b.nums(),
        Arity::Binary => a.nums() & b.nums(),
    };
    let mut illegal = !(idle | live);
    out.disc = idle;
    if live & mask == 0 {
        out.pay = [0; LANES];
        out.illegal = illegal;
        return;
    }
    let (x, y, pay) = (&a.pay, &b.pay, &mut out.pay);
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
    out.illegal = illegal;
    // Restore payload 0 where the lanes of `mask` hold no number.
    let zero = mask & !(live & !illegal);
    for i in 0..LANES {
        out.pay[i] &= !lane_mask(zero, i);
    }
}

/// `out[i] = f(x[i], y[i])` in every lane.
#[inline(always)]
fn lanewise(
    out: &mut [i64; LANES],
    x: &[i64; LANES],
    y: &[i64; LANES],
    f: impl Fn(i64, i64) -> i64,
) {
    for i in 0..LANES {
        out[i] = f(x[i], y[i]);
    }
}

/// Bit `i` of `mask` spread over a whole word: all ones or all zeros.
#[inline(always)]
fn lane_mask(mask: u64, i: usize) -> i64 {
    ((mask << (63 - i)) as i64) >> 63
}

/// The lanes for which `f` holds, as a mask (gathered a byte at a time,
/// which keeps the compare loop vectorizable).
#[inline(always)]
fn lanes_where(f: impl Fn(usize) -> bool) -> u64 {
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

    /// Whether the lanes of `lanes` that hold a sentinel have payload 0
    /// (what makes a changed mask one payload compare plus two XORs).
    fn canonical(w: &Col, lanes: u64) -> bool {
        bits(lanes & !w.nums()).all(|c| w.pay[c] == 0)
    }

    fn pick(c: usize, salt: usize) -> Value {
        VALUES[(c * 7 + salt) % VALUES.len()]
    }

    #[test]
    fn columns_agree_with_scalar_values_lane_by_lane() {
        let mask = MASKS[0].0;
        for salt in 0..VALUES.len() {
            let a = col(|c| pick(c, salt));
            let b = col(|c| pick(c / 3, salt + 1));
            let s = col(|c| [Value::Disc, Value::Num(0), Value::Num(1), Value::Num(9)][c % 4]);
            for c in 0..LANES {
                let (x, y) = (a.get(c), b.get(c));
                assert_eq!(a.diff(&b) >> c & 1 == 1, x != y, "diff lane {c}");
                assert_eq!(a.disc() >> c & 1 == 1, x == Value::Disc);
                for cmp in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
                    let col = Col::compare(cmp, Operand::Word(&a), Operand::Word(&b));
                    let solo = Value::compare(cmp, Operand::Word(&x), Operand::Word(&y));
                    assert_eq!(col >> c & 1, solo, "{cmp:?} lane {c}");
                }
            }
            for op in [Op::Add, Op::Mul, Op::PassB, Op::Shr, Op::SqrtFx(4)] {
                let mut out = Col::splat(Value::Disc);
                Col::combine(&a, &b, None, &[op], !0, &mut out);
                assert!(canonical(&out, !0), "{op:?}");
                for c in 0..LANES {
                    assert_eq!(out.get(c), op.apply(a.get(c), b.get(c)), "{op:?} lane {c}");
                }
            }
            // An idle module leaves `DISC` in every lane, whatever the
            // output word held before.
            let (mut out, idle) = (a, Col::splat(Value::Disc));
            Col::combine(&idle, &idle, None, &[Op::Add], !0, &mut out);
            assert!(canonical(&out, !0) && out.disc() == !0);
            let ops = [Op::Add, Op::Sub];
            for select in [&s, &Col::splat(Value::Disc), &Col::splat(Value::Num(1))] {
                let mut out = Col::splat(Value::Disc);
                Col::combine(&a, &b, Some(select), &ops, mask, &mut out);
                assert!(canonical(&out, mask));
                for c in bits(mask) {
                    let want = combine(a.get(c), b.get(c), Some(select.get(c)), &ops);
                    assert_eq!(out.get(c), want, "select lane {c}");
                }
            }
            // A masked move, then a release in some of the moved lanes.
            for (mask, _) in MASKS {
                let mut blended = a;
                blended.blend(&b, mask);
                blended.release(mask & 0xff);
                assert!(canonical(&blended, !0), "blend {mask:x}");
                for c in 0..LANES {
                    let want = match mask >> c & 1 {
                        1 if c < 8 => Value::Disc,
                        1 => b.get(c),
                        _ => a.get(c),
                    };
                    assert_eq!(blended.get(c), want, "blend {mask:x} lane {c}");
                }
            }
        }
    }

    /// `(mask, care)` pairs covering each drive strategy: every running
    /// lane moved, all but a few, and a masked pass.
    const MASKS: [(u64, u64); 6] = [
        (0x5555_0f0f_ff00_1234, !0),
        (!0, !0),
        (!(1 << 17), !0),
        (!0 ^ 0b1011 << 40, !0),
        (1 << 63 | 1 << 3, !0),
        (0xff_ffff_fffe, 0xff_ffff_ffff),
    ];

    #[test]
    fn column_tallies_resolve_like_driver_tallies() {
        // Three slots driven in varying lanes: each lane of `care` must
        // track a scalar DriverTally over the same updates, the lanes an
        // update leaves alone included. Drives are mostly `DISC`, so
        // lanes often hold one number driver and read the tally's sum. A
        // walk's `care` (its running lanes) is fixed, so each pass keeps
        // one.
        for care in [!0, 0xff_ffff_ffff] {
            let mut slots = [Col::splat(Value::Disc); 3];
            let mut tally = Col::tally();
            let mut scalar = vec![[Value::Disc; 3]; LANES];
            let mut tallies = vec![DriverTally::default(); LANES];
            let mut out = Col::splat(Value::Disc);
            // One number driver per lane, then a second driver in all
            // lanes but a kept few, then its release everywhere: each
            // lane reads the first driver's number off the sum again.
            let first = col(|c| Value::Num(c as i64 * 3 - 7));
            let second = col(|c| Value::Num(100 - c as i64));
            let releases = [(&first, 0, !0), (&second, 1, !(1 << 5 | 1 << 17))];
            for (new, slot, mask) in releases
                .into_iter()
                .chain([(&Col::splat(Value::Disc), 1, !0)])
            {
                let mask = care & mask;
                Col::drive(&mut tally, &mut slots[slot], new, mask, care, &mut out);
                for c in bits(mask) {
                    let old = std::mem::replace(&mut scalar[c][slot], new.get(c));
                    tallies[c].update(old, new.get(c));
                }
                assert!(canonical(&out, care));
                for c in bits(care) {
                    assert_eq!(out.get(c), tallies[c].value(), "slot {slot} lane {c}");
                }
            }
            for step in 0..90usize {
                let slot = step % 3;
                let mask = care
                    & match step % 4 {
                        0 => 0x9e37_79b9_7f4a_7c15u64.rotate_left(step as u32 * 5),
                        _ => MASKS[step % MASKS.len()].0,
                    };
                let new = col(|c| match (c + step) % 3 {
                    0 => pick(c + step, step),
                    _ => Value::Disc,
                });
                Col::drive(&mut tally, &mut slots[slot], &new, mask, care, &mut out);
                for c in bits(mask) {
                    let old = std::mem::replace(&mut scalar[c][slot], new.get(c));
                    tallies[c].update(old, new.get(c));
                }
                assert!(canonical(&out, care), "step {step}");
                assert!(canonical(&slots[slot], care), "step {step}");
                for c in bits(care) {
                    assert_eq!(out.get(c), tallies[c].value(), "step {step} lane {c}");
                }
            }
        }
    }
}
