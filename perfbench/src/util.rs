//! Small helpers: a seeded generator, order statistics, process counters
//! read from `/proc`, and JSON number/string formatting.

use std::time::Duration;

/// splitmix64: every input the benchmark generates derives from `--seed`
/// through this generator, so one seed always yields the same stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of `values` (`q` in `(0, 1]`); `NaN` when empty.
/// Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One `key:  value` line of a `/proc/self/status`-style file.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The CPUs this process may run on, as the kernel lists them.
pub fn cpus_allowed_list() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())
}

/// A point-in-time reading of the CPU the process has used and the time
/// the calling thread spent runnable but waiting for a CPU.
#[derive(Clone, Copy)]
pub struct HostClock {
    /// User + system time of the whole process, exited threads included
    /// (`/proc/self/stat`, clock-tick resolution).
    cpu_s: f64,
    /// Run-queue wait of the calling thread (`/proc/thread-self/schedstat`).
    runqueue_wait_ns: u64,
}

impl HostClock {
    pub fn now() -> Self {
        HostClock { cpu_s: process_cpu_s(), runqueue_wait_ns: thread_runqueue_wait_ns() }
    }

    /// `(host.cpu_s, host.runqueue_wait_ms)` between `start` and `self`.
    pub fn since(&self, start: &HostClock) -> (f64, f64) {
        (
            self.cpu_s - start.cpu_s,
            self.runqueue_wait_ns.saturating_sub(start.runqueue_wait_ns) as f64 / 1e6,
        )
    }
}

fn process_cpu_s() -> f64 {
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return f64::NAN };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return f64::NAN };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // USER_HZ is 100 on every Linux configuration this runs on.
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => f64::NAN,
    }
}

fn thread_runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// A JSON number: full precision, `null` when not finite.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
