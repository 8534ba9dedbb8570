//! Pure arithmetic and formatting of the benchmark: metric names, rates,
//! medians and quartiles, the simulated-output digest, failed-trial
//! classification, and the one-line JSON result.

use std::fmt::Write;

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
/// The names are constants, so the tests check them all.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Events per second; zero when no time elapsed.
pub fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// `part / whole`; zero when `whole` is zero.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => None,
        _ if m % 2 == 1 => Some(v[m / 2]),
        _ => Some((v[m / 2 - 1] + v[m / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// An order-sensitive 64-bit FNV-1a hash over a sequence of words — the
/// simulated-output digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// How a trial ended, as the benchmark classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Synchronous engine: every awake node terminated.
    Quiescent,
    /// Asynchronous engine: the event queue drained.
    Drained,
    /// Synchronous engine: the round cap fired.
    MaxRounds,
    /// Asynchronous engine: the event cap fired.
    MaxEvents,
    /// Asynchronous engine: quiescence with payloads lost for good.
    FaultLivelock,
    /// The engine returned an error instead of an outcome.
    Error,
}

impl Halt {
    /// A small stable code, folded into the digest.
    pub fn code(self) -> u64 {
        match self {
            Halt::Quiescent => 1,
            Halt::Drained => 2,
            Halt::MaxRounds => 3,
            Halt::MaxEvents => 4,
            Halt::FaultLivelock => 5,
            Halt::Error => 6,
        }
    }

    /// Whether this is a clean halt (quiescent or drained).
    pub fn is_clean(self) -> bool {
        matches!(self, Halt::Quiescent | Halt::Drained)
    }
}

impl From<clique_sync::HaltReason> for Halt {
    fn from(h: clique_sync::HaltReason) -> Halt {
        match h {
            clique_sync::HaltReason::Quiescent => Halt::Quiescent,
            clique_sync::HaltReason::MaxRounds => Halt::MaxRounds,
        }
    }
}

impl From<clique_async::AsyncHaltReason> for Halt {
    fn from(h: clique_async::AsyncHaltReason) -> Halt {
        match h {
            clique_async::AsyncHaltReason::QueueDrained => Halt::Drained,
            clique_async::AsyncHaltReason::MaxEvents => Halt::MaxEvents,
            clique_async::AsyncHaltReason::FaultLivelock => Halt::FaultLivelock,
        }
    }
}

/// A trial fails when it halts uncleanly or its election is invalid.
pub fn trial_failed(halt: Halt, valid: bool) -> bool {
    !halt.is_clean() || !valid
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values keep every digit Rust's shortest
/// round-trip formatting gives; a non-finite value is written as 0.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "trials_per_s",
            "async.run_s.clean",
            "ports.memo_hit_ratio",
            "9-x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_halt_reason_is_classified() {
        assert!(!trial_failed(Halt::Quiescent, true));
        assert!(!trial_failed(Halt::Drained, true));
        for unclean in [
            Halt::MaxRounds,
            Halt::MaxEvents,
            Halt::FaultLivelock,
            Halt::Error,
        ] {
            assert!(trial_failed(unclean, true), "{unclean:?}");
        }
        assert!(
            trial_failed(Halt::Quiescent, false),
            "an invalid election fails"
        );
        assert!(trial_failed(Halt::Drained, false));
        assert_eq!(
            Halt::from(clique_sync::HaltReason::MaxRounds),
            Halt::MaxRounds
        );
        assert_eq!(
            Halt::from(clique_async::AsyncHaltReason::FaultLivelock),
            Halt::FaultLivelock
        );
        assert_eq!(
            Halt::from(clique_async::AsyncHaltReason::QueueDrained),
            Halt::Drained
        );
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            for &w in words {
                d.word(w);
            }
            d
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[1, 2]), fold(&[1, 2, 0]));
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn rates_and_shares_guard_zero_denominators() {
        assert_eq!(rate(10, 2.0), 5.0);
        assert_eq!(rate(10, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric {
                    name: "setup_s",
                    value: 0.8125,
                    unit: "s",
                },
                Metric {
                    name: "trials_per_s",
                    value: f64::NAN,
                    unit: "1/s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \
             \"trials_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }
}
