//! Total-order event keys over `f64` simulation timestamps.
//!
//! Simulation clocks are `f64` seconds, but `f64` is only *partially*
//! ordered (`NaN` compares to nothing), so a binary heap keyed on raw
//! timestamps either needs `partial_cmp(..).unwrap()` sprinkled through
//! the hot loop or silently corrupts its ordering the first time a `NaN`
//! sneaks in. [`TimePoint`] closes that hole once, at the boundary: a
//! `NaN` is rejected when the key is *constructed*, and every survivor
//! carries a `u64` whose natural integer order equals the numeric order
//! of the original floats (the classic monotone bit trick: flip all bits
//! of negatives, flip only the sign bit of non-negatives).
//!
//! [`EventKey`] pairs a [`TimePoint`] with an insertion sequence number,
//! giving simultaneous events a deterministic FIFO tie-break — heap order
//! is then a pure function of push order, never of float quirks or of
//! `BinaryHeap`'s unspecified equal-element behavior (DESIGN.md §14).

use std::fmt;

/// A totally ordered `f64` timestamp. `NaN` cannot be represented;
/// construction rejects it. Note that under this order `-0.0 < +0.0`
/// (they map to distinct keys), which is harmless for simulation clocks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimePoint(u64);

/// Rejected timestamp values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeError {
    /// The timestamp was `NaN`.
    NotANumber,
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeError::NotANumber => write!(f, "event time is NaN"),
        }
    }
}

impl std::error::Error for TimeError {}

impl TimePoint {
    /// Wraps a finite or infinite timestamp; rejects `NaN`.
    pub fn new(t: f64) -> Result<TimePoint, TimeError> {
        if t.is_nan() {
            return Err(TimeError::NotANumber);
        }
        let bits = t.to_bits();
        // Monotone map f64 → u64: negatives reverse (flip every bit),
        // non-negatives shift above them (set the sign bit).
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        Ok(TimePoint(key))
    }

    /// The original `f64` value.
    pub fn value(self) -> f64 {
        let key = self.0;
        let bits = if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        };
        f64::from_bits(bits)
    }
}

impl fmt::Debug for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.value())
    }
}

/// Total-order key of one scheduled event: timestamp first, insertion
/// sequence number as the tie-break. Derived `Ord` on the field order
/// gives exactly "earlier time first, FIFO among equal times".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// When the event fires.
    pub time: TimePoint,
    /// Queue-assigned insertion sequence number (unique per queue).
    pub seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_matches_f64_order() -> Result<(), TimeError> {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for (i, &a) in samples.iter().enumerate() {
            for &b in &samples[i + 1..] {
                let (ka, kb) = (TimePoint::new(a)?, TimePoint::new(b)?);
                assert!(ka < kb, "{a} should order before {b}");
            }
        }
        Ok(())
    }

    #[test]
    fn negative_zero_orders_below_zero() -> Result<(), TimeError> {
        let nz = TimePoint::new(-0.0)?;
        let z = TimePoint::new(0.0)?;
        assert!(nz < z);
        Ok(())
    }

    #[test]
    fn roundtrip_preserves_value() -> Result<(), TimeError> {
        for t in [-1e12, -3.25, 0.0, 0.125, 7.0, 1e100, f64::INFINITY] {
            let tp = TimePoint::new(t)?;
            assert_eq!(tp.value().to_bits(), t.to_bits(), "{t}");
        }
        Ok(())
    }

    #[test]
    fn nan_rejected() {
        assert_eq!(TimePoint::new(f64::NAN), Err(TimeError::NotANumber));
        assert!(!TimeError::NotANumber.to_string().is_empty());
    }

    #[test]
    fn key_breaks_ties_by_seq() -> Result<(), TimeError> {
        let t = TimePoint::new(4.0)?;
        let a = EventKey { time: t, seq: 0 };
        let b = EventKey { time: t, seq: 1 };
        assert!(a < b);
        let later = EventKey {
            time: TimePoint::new(5.0)?,
            seq: 0,
        };
        assert!(b < later, "time dominates seq");
        Ok(())
    }
}
