//! The value domain of clock-free RT models.
//!
//! The paper models ports and buses as VHDL `Integer` signals where regular
//! values are natural numbers and two negative sentinels are reserved:
//! `DISC = -1` ("disconnected", no value) and `ILLEGAL = -2` (conflict).
//! We render this as a proper sum type, [`Value`], and keep the encoded
//! form available through [`Value::to_encoded`]/[`Value::from_encoded`] so
//! models can be round-tripped through the paper's representation.
//!
//! The module also provides the paper's **resolution function**
//! ([`resolve`]): buses and functional-unit input ports are resolved
//! signals, and the function is what turns simultaneous drives into an
//! observable `ILLEGAL` — the paper's resource-conflict detector.

use std::fmt;

/// Encoding of [`Value::Disc`] in the paper's integer representation.
pub const DISC_ENCODING: i64 = -1;
/// Encoding of [`Value::Illegal`] in the paper's integer representation.
pub const ILLEGAL_ENCODING: i64 = -2;

/// A value carried by RT-level signals: a number, "no value", or the
/// conflict marker.
///
/// The paper restricts regular values to naturals; we additionally allow
/// negative numbers (needed by the IKS fixed-point arithmetic) and keep
/// the paper's encoding available only for non-negative values.
///
/// # Examples
///
/// ```
/// use clockless_core::value::Value;
///
/// let v = Value::Num(5);
/// assert!(v.is_num());
/// assert_eq!(v.num(), Some(5));
/// assert!(Value::Disc.is_disc());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// No value is being driven ("disconnected", the paper's `DISC`).
    Disc,
    /// A conflict occurred (the paper's `ILLEGAL`); absorbing in all
    /// operations and resolutions.
    Illegal,
    /// A regular numeric value.
    Num(i64),
}

impl Value {
    /// `true` for [`Value::Num`].
    pub fn is_num(self) -> bool {
        matches!(self, Value::Num(_))
    }

    /// `true` for [`Value::Disc`].
    pub fn is_disc(self) -> bool {
        self == Value::Disc
    }

    /// `true` for [`Value::Illegal`].
    pub fn is_illegal(self) -> bool {
        self == Value::Illegal
    }

    /// The numeric payload, if any.
    pub fn num(self) -> Option<i64> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Encodes in the paper's integer representation
    /// (`DISC = -1`, `ILLEGAL = -2`, naturals unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeValueError`] for negative numbers, which collide
    /// with the sentinel space and have no encoding in the paper's scheme.
    pub fn to_encoded(self) -> Result<i64, EncodeValueError> {
        match self {
            Value::Disc => Ok(DISC_ENCODING),
            Value::Illegal => Ok(ILLEGAL_ENCODING),
            Value::Num(n) if n >= 0 => Ok(n),
            Value::Num(n) => Err(EncodeValueError(n)),
        }
    }

    /// Decodes from the paper's integer representation.
    ///
    /// `-1` and `-2` become the sentinels; any other value (including
    /// other negatives, which the paper never produces) becomes `Num`.
    pub fn from_encoded(raw: i64) -> Value {
        match raw {
            DISC_ENCODING => Value::Disc,
            ILLEGAL_ENCODING => Value::Illegal,
            n => Value::Num(n),
        }
    }
}

impl Default for Value {
    /// The default is [`Value::Disc`]: every port and bus in the paper is
    /// initialized to `DISC`.
    fn default() -> Self {
        Value::Disc
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Disc => f.write_str("DISC"),
            Value::Illegal => f.write_str("ILLEGAL"),
            Value::Num(n) => write!(f, "{n}"),
        }
    }
}

impl From<i64> for Value {
    /// Wraps a number; use [`Value::from_encoded`] for the sentinel-aware
    /// decoding instead.
    fn from(n: i64) -> Self {
        Value::Num(n)
    }
}

/// Error returned by [`Value::to_encoded`] for values outside the paper's
/// natural-number domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeValueError(pub i64);

impl fmt::Display for EncodeValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} is negative and has no encoding in the paper's integer scheme",
            self.0
        )
    }
}

impl std::error::Error for EncodeValueError {}

/// The paper's resolution function for buses and input ports.
///
/// * all drivers `DISC` → `DISC`;
/// * any driver `ILLEGAL` → `ILLEGAL`;
/// * two or more non-`DISC` drivers → `ILLEGAL` (resource conflict);
/// * exactly one non-`DISC` driver → its value.
///
/// An empty driver list resolves to `DISC`.
///
/// # Examples
///
/// ```
/// use clockless_core::value::{resolve, Value};
///
/// assert_eq!(resolve(&[Value::Disc, Value::Num(4)]), Value::Num(4));
/// assert_eq!(resolve(&[Value::Num(1), Value::Num(2)]), Value::Illegal);
/// assert_eq!(resolve(&[Value::Disc, Value::Disc]), Value::Disc);
/// ```
pub fn resolve(drivers: &[Value]) -> Value {
    let mut seen: Option<Value> = None;
    for &d in drivers {
        match d {
            Value::Disc => {}
            Value::Illegal => return Value::Illegal,
            v @ Value::Num(_) => {
                if seen.is_some() {
                    return Value::Illegal;
                }
                seen = Some(v);
            }
        }
    }
    seen.unwrap_or(Value::Disc)
}

/// [`resolve`] kept incrementally: the count of `Num` drivers, the count
/// of `ILLEGAL` drivers and the wrapping sum of the `Num` payloads.
///
/// A driver update `old → new` adjusts the tally in O(1), and
/// [`value`](Self::value) reads `resolve`'s truth table off the counts:
/// `ILLEGAL` when any driver is `ILLEGAL` or two or more are `Num`, the
/// sum when exactly one is `Num` (wrapping arithmetic makes the sum of a
/// single remaining payload exact), `DISC` otherwise. The default tally
/// is that of any number of `DISC` drivers. The compiled walk keeps one
/// per multiply driven signal instead of rescanning its driver slots on
/// every update — a solo run this tally itself, a fault chunk the same
/// counts and sum in each of its lanes.
///
/// # Examples
///
/// ```
/// use clockless_core::value::{DriverTally, Value};
///
/// let mut bus = DriverTally::default(); // two drivers, both DISC
/// bus.update(Value::Disc, Value::Num(4));
/// assert_eq!(bus.value(), Value::Num(4));
/// bus.update(Value::Disc, Value::Num(5));
/// assert_eq!(bus.value(), Value::Illegal);
/// bus.update(Value::Num(4), Value::Disc);
/// assert_eq!(bus.value(), Value::Num(5));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverTally {
    nums: u32,
    illegals: u32,
    sum: i64,
}

impl DriverTally {
    /// Accounts for one driver changing from `old` to `new`.
    #[inline]
    pub fn update(&mut self, old: Value, new: Value) {
        match old {
            Value::Disc => {}
            Value::Illegal => self.illegals -= 1,
            Value::Num(n) => {
                self.nums -= 1;
                self.sum = self.sum.wrapping_sub(n);
            }
        }
        match new {
            Value::Disc => {}
            Value::Illegal => self.illegals += 1,
            Value::Num(n) => {
                self.nums += 1;
                self.sum = self.sum.wrapping_add(n);
            }
        }
    }

    /// The resolved value: always [`resolve`] of the tallied drivers.
    #[inline]
    pub fn value(self) -> Value {
        if self.illegals > 0 || self.nums > 1 {
            Value::Illegal
        } else if self.nums == 1 {
            Value::Num(self.sum)
        } else {
            Value::Disc
        }
    }
}

/// A [`clockless_kernel::Resolver`] wrapping [`resolve`], ready to attach
/// to kernel signals.
pub fn kernel_resolver() -> clockless_kernel::Resolver<Value> {
    std::sync::Arc::new(|drivers: &[Value]| resolve(drivers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        for v in [Value::Disc, Value::Illegal, Value::Num(0), Value::Num(17)] {
            assert_eq!(Value::from_encoded(v.to_encoded().unwrap()), v);
        }
    }

    #[test]
    fn negative_numbers_have_no_encoding() {
        assert!(Value::Num(-3).to_encoded().is_err());
    }

    #[test]
    fn decode_other_negatives_as_numbers() {
        // The paper never produces -3, but decoding must not lose it.
        assert_eq!(Value::from_encoded(-3), Value::Num(-3));
    }

    #[test]
    fn resolution_matches_paper_rules() {
        use Value::*;
        assert_eq!(resolve(&[]), Disc);
        assert_eq!(resolve(&[Disc, Disc, Disc]), Disc);
        assert_eq!(resolve(&[Disc, Num(9), Disc]), Num(9));
        assert_eq!(
            resolve(&[Num(1), Num(1)]),
            Illegal,
            "even equal values conflict"
        );
        assert_eq!(resolve(&[Illegal, Disc]), Illegal);
        assert_eq!(resolve(&[Num(1), Illegal]), Illegal);
        assert_eq!(resolve(&[Illegal]), Illegal);
    }

    #[test]
    fn illegal_absorbs_any_codriver_set() {
        use Value::*;
        // ILLEGAL wins regardless of its position or what rides along —
        // once a conflict (or poisoned value) is on the wire, nothing
        // launders it.
        for pos in 0..4 {
            for filler in [Disc, Num(7), Num(-3)] {
                let mut drivers = vec![filler; 4];
                drivers[pos] = Illegal;
                assert_eq!(resolve(&drivers), Illegal, "{drivers:?}");
            }
        }
        assert_eq!(resolve(&[Illegal, Illegal, Illegal]), Illegal);
    }

    #[test]
    fn all_disc_driver_sets_resolve_to_disc() {
        use Value::*;
        // A quiet bus stays DISC for any number of released drivers.
        for n in 0..32 {
            assert_eq!(resolve(&vec![Disc; n]), Disc, "{n} DISC drivers");
        }
    }

    /// Random driver updates over 1–64 slots: after every update the
    /// tally reads exactly `resolve` of the slots. Values mix the
    /// sentinels, negatives and the `i64` extremes, and same-value
    /// rewrites are frequent.
    #[test]
    fn tally_is_resolve_under_random_updates() {
        use Value::*;
        let palette = [
            Disc,
            Illegal,
            Num(0),
            Num(1),
            Num(-1),
            Num(-7),
            Num(42),
            Num(i64::MIN),
            Num(i64::MAX),
            Num(i64::MAX - 1),
            Num(i64::MIN + 1),
        ];
        let mut rng = 0x7a11_u64;
        for trial in 0..400 {
            let width = 1 + (crate::splitmix64(&mut rng) % 64) as usize;
            let mut slots = vec![Disc; width];
            let mut tally = DriverTally::default();
            for step in 0..200 {
                let slot = (crate::splitmix64(&mut rng) % width as u64) as usize;
                let r = crate::splitmix64(&mut rng);
                let new = match r % 8 {
                    // Half the draws release or rewrite what is there.
                    0 | 1 => Disc,
                    2 => slots[slot],
                    3 => Num(r as i64 >> 3),
                    _ => palette[(r >> 8) as usize % palette.len()],
                };
                let old = std::mem::replace(&mut slots[slot], new);
                tally.update(old, new);
                assert_eq!(
                    tally.value(),
                    resolve(&slots),
                    "trial {trial} step {step}: {slots:?}"
                );
            }
            let fresh = slots.iter().fold(DriverTally::default(), |mut t, &v| {
                t.update(Disc, v);
                t
            });
            assert_eq!(
                tally, fresh,
                "trial {trial}: counts drift from a fresh tally"
            );
        }
    }

    #[test]
    fn tally_sum_wraps_back_to_the_remaining_driver() {
        use Value::*;
        // Two large payloads overflow the sum; releasing either leaves
        // the other's payload exactly.
        for (a, b) in [
            (i64::MAX, i64::MAX),
            (i64::MAX, 1),
            (i64::MIN, -1),
            (i64::MIN, i64::MAX),
        ] {
            let mut slots = [Num(a), Num(b)];
            let mut tally = DriverTally::default();
            tally.update(Disc, Num(a));
            tally.update(Disc, Num(b));
            assert_eq!(tally.value(), Illegal);
            tally.update(Num(a), Disc);
            slots[0] = Disc;
            assert_eq!(tally.value(), Num(b));
            assert_eq!(tally.value(), resolve(&slots));
            tally.update(Num(b), Num(b));
            assert_eq!(tally.value(), Num(b), "same-value rewrite");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Disc.to_string(), "DISC");
        assert_eq!(Value::Illegal.to_string(), "ILLEGAL");
        assert_eq!(Value::Num(12).to_string(), "12");
    }

    #[test]
    fn default_is_disc() {
        assert_eq!(Value::default(), Value::Disc);
    }
}
