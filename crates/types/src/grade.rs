//! Device grades.
//!
//! SimDC categorizes simulated and physical devices into performance grades
//! (the paper's experiments use two: *High* and *Low*, e.g. smartphones with
//! ≥8 GB vs <8 GB memory). Most of the platform is generic over an arbitrary
//! number of grades — the allocation optimizer works on per-grade parameter
//! slices — but the canonical two-grade setup gets first-class support via
//! [`DeviceGrade`] and the [`PerGrade`] container.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Performance grade of a device.
///
/// Ordered from most to least capable so that `High < Low` mirrors "grade 1
/// before grade 2" orderings in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceGrade {
    /// High-end device (paper default: 4 CPU cores / 12 GB memory in logical
    /// simulation; ≥8 GB memory phones in device simulation).
    High,
    /// Low-end device (paper default: 1 CPU core / 6 GB memory in logical
    /// simulation; <8 GB memory phones in device simulation).
    Low,
}

impl DeviceGrade {
    /// All grades, in canonical order.
    pub const ALL: [DeviceGrade; 2] = [DeviceGrade::High, DeviceGrade::Low];

    /// Number of grades.
    pub const COUNT: usize = 2;

    /// Stable index of this grade (0 = High, 1 = Low).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            DeviceGrade::High => 0,
            DeviceGrade::Low => 1,
        }
    }

    /// Inverse of [`DeviceGrade::index`].
    ///
    /// Returns `None` if `idx` is out of range.
    #[must_use]
    pub const fn from_index(idx: usize) -> Option<DeviceGrade> {
        match idx {
            0 => Some(DeviceGrade::High),
            1 => Some(DeviceGrade::Low),
            _ => None,
        }
    }

    /// Short lowercase name, e.g. for file names and CSV columns.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            DeviceGrade::High => "high",
            DeviceGrade::Low => "low",
        }
    }
}

impl fmt::Display for DeviceGrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceGrade::High => f.write_str("High"),
            DeviceGrade::Low => f.write_str("Low"),
        }
    }
}

/// A value per device grade.
///
/// A tiny fixed-size map keyed by [`DeviceGrade`], used for per-grade counts,
/// durations and profiles.
///
/// ```
/// use simdc_types::{DeviceGrade, PerGrade};
/// let mut counts = PerGrade::new(0u32);
/// counts[DeviceGrade::High] = 500;
/// counts[DeviceGrade::Low] = 500;
/// assert_eq!(counts.iter().map(|(_, c)| *c).sum::<u32>(), 1_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PerGrade<T> {
    /// Value for [`DeviceGrade::High`].
    pub high: T,
    /// Value for [`DeviceGrade::Low`].
    pub low: T,
}

impl<T> PerGrade<T> {
    /// Creates a map with the same value for every grade.
    pub fn new(value: T) -> Self
    where
        T: Clone,
    {
        PerGrade {
            high: value.clone(),
            low: value,
        }
    }

    /// Creates a map from explicit per-grade values.
    pub const fn from_parts(high: T, low: T) -> Self {
        PerGrade { high, low }
    }

    /// Builds a map by evaluating `f` for every grade.
    pub fn from_fn(mut f: impl FnMut(DeviceGrade) -> T) -> Self {
        PerGrade {
            high: f(DeviceGrade::High),
            low: f(DeviceGrade::Low),
        }
    }

    /// Returns a reference to the value for `grade`.
    pub fn get(&self, grade: DeviceGrade) -> &T {
        match grade {
            DeviceGrade::High => &self.high,
            DeviceGrade::Low => &self.low,
        }
    }

    /// Returns a mutable reference to the value for `grade`.
    pub fn get_mut(&mut self, grade: DeviceGrade) -> &mut T {
        match grade {
            DeviceGrade::High => &mut self.high,
            DeviceGrade::Low => &mut self.low,
        }
    }

    /// Iterates over `(grade, &value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceGrade, &T)> {
        [
            (DeviceGrade::High, &self.high),
            (DeviceGrade::Low, &self.low),
        ]
        .into_iter()
    }

    /// Maps every value to a new [`PerGrade`].
    pub fn map<U>(&self, mut f: impl FnMut(DeviceGrade, &T) -> U) -> PerGrade<U> {
        PerGrade {
            high: f(DeviceGrade::High, &self.high),
            low: f(DeviceGrade::Low, &self.low),
        }
    }
}

impl<T> Index<DeviceGrade> for PerGrade<T> {
    type Output = T;
    fn index(&self, grade: DeviceGrade) -> &T {
        self.get(grade)
    }
}

impl<T> IndexMut<DeviceGrade> for PerGrade<T> {
    fn index_mut(&mut self, grade: DeviceGrade) -> &mut T {
        self.get_mut(grade)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for grade in DeviceGrade::ALL {
            assert_eq!(DeviceGrade::from_index(grade.index()), Some(grade));
        }
        assert_eq!(DeviceGrade::from_index(2), None);
    }

    #[test]
    fn display_and_str() {
        assert_eq!(DeviceGrade::High.to_string(), "High");
        assert_eq!(DeviceGrade::Low.as_str(), "low");
    }

    #[test]
    fn high_sorts_before_low() {
        let mut grades = vec![DeviceGrade::Low, DeviceGrade::High];
        grades.sort();
        assert_eq!(grades, vec![DeviceGrade::High, DeviceGrade::Low]);
    }

    #[test]
    fn per_grade_accessors() {
        let mut pg = PerGrade::from_parts(4u32, 20u32);
        assert_eq!(pg[DeviceGrade::High], 4);
        pg[DeviceGrade::Low] += 1;
        assert_eq!(pg.low, 21);
        let doubled = pg.map(|_, v| v * 2);
        assert_eq!(doubled, PerGrade::from_parts(8, 42));
    }

    #[test]
    fn per_grade_from_fn_order() {
        let pg = PerGrade::from_fn(|g| g.index());
        assert_eq!(pg.high, 0);
        assert_eq!(pg.low, 1);
        let collected: Vec<_> = pg.iter().map(|(g, _)| g).collect();
        assert_eq!(collected, vec![DeviceGrade::High, DeviceGrade::Low]);
    }
}
