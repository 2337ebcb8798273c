//! Process-level measurements and small numeric helpers: CPU time and
//! peak memory from `/proc`, quantiles, and a stable hash for
//! fingerprints.

use std::fmt::Write as _;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`, read from the `AT_CLKTCK` entry of the process's
/// auxiliary vector (100 on every common Linux configuration).
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
        let value = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
        if key == AT_CLKTCK && value > 0 {
            return value as f64;
        }
    }
    100.0
}

/// Reads the process's user and system CPU time.
pub struct CpuClock {
    ticks_per_second: f64,
}

impl CpuClock {
    pub fn new() -> CpuClock {
        CpuClock {
            ticks_per_second: clock_ticks_per_second(),
        }
    }

    /// User plus system CPU seconds of the whole process (all threads)
    /// so far.
    pub fn seconds(&self) -> f64 {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields[11].parse().expect("utime is a number");
        let stime: f64 = fields[12].parse().expect("stime is a number");
        (utime + stime) / self.ticks_per_second
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// FNV-1a, 64-bit: a hash that is the same on every run and platform,
/// unlike the standard library's seeded hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Renders a finite number as JSON, with every digit Rust keeps for a
/// round trip.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric is not finite: {x}");
    let mut s = String::new();
    write!(s, "{x:?}").expect("write to string");
    s
}

/// Escapes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn process_counters_are_readable() {
        let cpu = CpuClock::new();
        assert!(cpu.seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
