//! Virtual time for the discrete-event kernel.
//!
//! All simulation time is kept in integer nanoseconds so that event
//! ordering is exact and runs are bit-reproducible. [`SimTime`] is a
//! point on the virtual timeline; [`Dur`] is a span between points.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// The origin of the virtual timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional milliseconds (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Span from an earlier point to `self`. Saturates at zero rather
    /// than panicking so reporting code can't underflow.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// A span of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    /// A span of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Dur {
        Dur(n * 1_000)
    }

    /// A span of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Dur {
        Dur(n * 1_000_000)
    }

    /// Span length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1.0e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1.0e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + Dur::micros(3) + Dur::nanos(500);
        assert_eq!(t.as_nanos(), 3_500);
        assert_eq!(t - SimTime::ZERO, Dur(3_500));
        assert_eq!(Dur::millis(1), Dur::micros(1000));
        assert_eq!(Dur::micros(2) * 3, Dur::nanos(6000));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.since(b), Dur::ZERO);
        assert_eq!(b.since(a), Dur(4));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::nanos(7)), "7ns");
        assert_eq!(format!("{}", Dur::micros(2)), "2.000us");
        assert_eq!(format!("{}", Dur::millis(3)), "3.000ms");
    }
}
