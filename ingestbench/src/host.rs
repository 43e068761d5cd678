//! What the benchmark reads from the host: a fixed-work calibration spin,
//! process CPU time and peak resident memory (both from `/proc/self`).

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI the toolchain targets).
const USER_HZ: f64 = 100.0;

/// A fixed amount of integer work (~100 ms on the reference host); the time
/// it takes, in milliseconds, tells how much of a core the host is giving
/// this process right now.
pub fn calibration_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..60_000_000u64 {
        x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // the command name is parenthesised and may hold spaces: split after it
    let rest = stat
        .rsplit_once(") ")
        .map(|(_, rest)| rest)
        .ok_or("unexpected /proc/self/stat layout")?;
    let ticks = |i: usize| -> Result<f64, String> {
        rest.split_ascii_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("field {i} missing in /proc/self/stat"))
    };
    // fields 14 (utime) and 15 (stime); `rest` starts at field 3
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_cpu_is_monotonic() {
        let before = process_cpu_s().unwrap();
        let spin = calibration_spin_ms();
        let after = process_cpu_s().unwrap();
        assert!(spin > 0.0);
        assert!(after >= before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
