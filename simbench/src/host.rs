//! Std-only readers for process and host facts: CPU time from
//! `/proc/self/stat`, peak resident memory from `/proc/self/status`, and
//! the CPU model from `/proc/cpuinfo`.

use std::time::Duration;

/// User + system CPU time of the whole process (every thread, live or
/// joined), from `/proc/self/stat`. `clk_tck` is `sysconf(_SC_CLK_TCK)`.
pub fn process_cpu(clk_tck: u64) -> Duration {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let ticks = parse_stat_cpu_ticks(&text).unwrap_or(0);
    Duration::from_nanos(ticks.saturating_mul(1_000_000_000) / clk_tck.max(1))
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th field after it.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kib(&text, "VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    parse_cpu_model(&text).unwrap_or_else(|| "unknown".to_string())
}

/// The `model name` value of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (sim (bench) x) R 1 4242 4242 0 -1 4194304 2155 0 0 0 \
                    731 52 0 0 20 0 3 0 123456 1234567 890 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 52));
    }

    #[test]
    fn stat_cpu_ticks_reject_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_cpu_time() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu(100) < Duration::from_secs(3600));
    }

    #[test]
    fn status_hwm_is_read_in_kib() {
        let status =
            "Name:\tsimbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40960 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40960));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_model_takes_the_first_processor() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 3.00GHz\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 3.00GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }
}
