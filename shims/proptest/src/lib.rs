//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`,
//! [`ProptestConfig::with_cases`], range (`a..b`, and `a..=b` for
//! integers) and regex-string strategies, and
//! `prop::collection::vec`. Sampling is deterministic (seeded from the test
//! name) and there is no shrinking: a failing case reports its inputs so it
//! can be reproduced by hand.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Error type carried by `prop_assert!` failures inside a test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic generator backing strategy sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Seeds the generator from an arbitrary label (the test name), so each
    /// test explores a fixed, reproducible input sequence.
    #[must_use]
    pub fn deterministic(label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Gen { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sample space");
        self.next_u64() % n
    }
}

/// A source of test-case values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    type Value: Debug + Clone;
    fn generate(&self, gen: &mut Gen) -> Self::Value;
}

/// A draw from `lo..lo + span` (`span` at most 2^64, so a full 64-bit
/// inclusive range is reachable).
fn offset_below(gen: &mut Gen, lo: i128, span: u128) -> i128 {
    lo + (u128::from(gen.next_u64()) % span) as i128
}

macro_rules! strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                offset_below(gen, self.start as i128, span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn generate(&self, gen: &mut Gen) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                offset_below(gen, lo, (hi - lo) as u128 + 1) as $t
            }
        }
    )*};
}
strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! strategy_for_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation)]
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + gen.unit_f64() as $t * (self.end - self.start)
            }
        }
    )*};
}
strategy_for_float_range!(f32, f64);

/// Regex-subset string strategy: `&str` patterns like `"[a-z ]{0,300}"`.
///
/// Supports character classes (`[a-z0-9_]`), `.` (printable ASCII), literal
/// characters, and the quantifiers `{n}`, `{m,n}`, `*`, `+`, `?` — the
/// fragment of regex syntax proptest-style generators actually see in this
/// repository's tests.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, gen: &mut Gen) -> String {
        generate_from_pattern(self, gen)
    }
}

fn generate_from_pattern(pattern: &str, gen: &mut Gen) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // 1. parse one atom into its candidate alphabet
        let alphabet: Vec<char> = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"));
                let set = parse_class(&chars[i + 1..close], pattern);
                i = close + 1;
                set
            }
            '.' => {
                i += 1;
                (0x20u8..0x7f).map(char::from).collect()
            }
            '\\' => {
                let c = *chars.get(i + 1).unwrap_or_else(|| panic!("dangling \\ in {pattern:?}"));
                i += 2;
                match c {
                    'd' => ('0'..='9').collect(),
                    'w' => ('a'..='z').chain('A'..='Z').chain('0'..='9').chain(['_']).collect(),
                    's' => vec![' ', '\t'],
                    other => vec![other],
                }
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        // 2. parse an optional quantifier
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            if let Some((a, b)) = body.split_once(',') {
                (parse_count(a, pattern), parse_count(b, pattern))
            } else {
                let n = parse_count(&body, pattern);
                (n, n)
            }
        } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
            let q = chars[i];
            i += 1;
            match q {
                '*' => (0, 8),
                '+' => (1, 8),
                _ => (0, 1),
            }
        } else {
            (1, 1)
        };
        // 3. emit
        let count = lo + gen.below((hi - lo + 1) as u64) as usize;
        for _ in 0..count {
            let pick = gen.below(alphabet.len() as u64) as usize;
            out.push(alphabet[pick]);
        }
    }
    out
}

fn parse_class(body: &[char], pattern: &str) -> Vec<char> {
    let mut set = Vec::new();
    let mut j = 0;
    while j < body.len() {
        if j + 2 < body.len() && body[j + 1] == '-' {
            let (a, b) = (body[j], body[j + 2]);
            assert!(a <= b, "inverted class range in pattern {pattern:?}");
            for c in a..=b {
                set.push(c);
            }
            j += 3;
        } else {
            set.push(body[j]);
            j += 1;
        }
    }
    assert!(!set.is_empty(), "empty character class in pattern {pattern:?}");
    set
}

fn parse_count(s: &str, pattern: &str) -> usize {
    s.trim()
        .replace('_', "")
        .parse()
        .unwrap_or_else(|_| panic!("bad quantifier {s:?} in pattern {pattern:?}"))
}

pub mod collection {
    use super::{Gen, Strategy};
    use std::ops::Range;

    /// Strategy producing `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, gen: &mut Gen) -> Self::Value {
            let n = self.len.clone().generate(gen);
            (0..n).map(|_| self.element.generate(gen)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Gen, ProptestConfig, Strategy, TestCaseError};

    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a `proptest!` body, failing the case (with
/// input reporting) rather than panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
}

/// Declares deterministic property tests.
///
/// Mirrors `proptest::proptest!`: an optional `#![proptest_config(..)]`
/// inner attribute followed by `#[test] fn name(arg in strategy, ...)`
/// items. Each test samples `config.cases` inputs and fails with the
/// offending inputs on the first violated `prop_assert!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut gen = $crate::Gen::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut gen);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs: {:#?}",
                        case + 1,
                        cfg.cases,
                        e,
                        ($(&$arg,)+)
                    );
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn shape() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(1usize..5, 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(n in 3usize..9, x in -2.0f32..2.0) {
            prop_assert!((3..9).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        #[test]
        fn vec_strategy_meets_spec(v in shape()) {
            prop_assert!(v.len() < 4);
            prop_assert!(v.iter().all(|&d| (1..5).contains(&d)));
        }

        #[test]
        fn string_pattern_respected(s in "[a-z ]{0,30}", t in "[a-z]{2,8}") {
            prop_assert!(s.len() <= 30);
            prop_assert!(s.chars().all(|c| c == ' ' || c.is_ascii_lowercase()));
            prop_assert!((2..=8).contains(&t.len()));
            prop_assert!(t.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut gen = Gen::deterministic("inclusive");
        let bytes: Vec<u8> = (0..4096).map(|_| (0u8..=255).generate(&mut gen)).collect();
        assert!(bytes.contains(&0) && bytes.contains(&0xFF), "0..=255 must reach 0 and 255");
        let small: Vec<i8> = (0..256).map(|_| (-3i8..=3).generate(&mut gen)).collect();
        assert!(small.iter().all(|v| (-3..=3).contains(v)));
        assert!(small.contains(&-3) && small.contains(&3));
        assert_eq!((7u32..=7).generate(&mut gen), 7);
        // Full-width ranges do not overflow the span.
        let _ = (0u64..=u64::MAX).generate(&mut gen);
        let _ = (i64::MIN..=i64::MAX).generate(&mut gen);
    }

    #[test]
    fn failing_case_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            let mut gen = Gen::deterministic("failing");
            for _ in 0..4 {
                let n = (0usize..10).generate(&mut gen);
                let check = || -> Result<(), TestCaseError> {
                    prop_assert!(n > 100, "n too small: {}", n);
                    Ok(())
                };
                if let Err(e) = check() {
                    panic!("case failed: {e}");
                }
            }
        });
        assert!(result.is_err());
    }
}
