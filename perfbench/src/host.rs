//! Host measurements (process CPU time, peak resident memory) and the
//! host/build description every result records. Linux `/proc` only;
//! elsewhere the readings come back `None` and the run fails loudly.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds the whole process has used so far,
/// threads that already exited included.
pub(crate) fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are the
    // 14th and 15th fields overall, the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs the kernel reports online, counted from `/proc/cpuinfo`.
fn online_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The host and build description, as a JSON object.
pub fn metadata_json(workload: &str, seed: u64, seconds: u64, probed: bool) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {}, \"available_parallelism\": {parallelism}, \
         \"rustc\": \"{}\", \"git_commit\": \"{}\", \"profile\": \"{}\"}}",
        u8::from(probed),
        online_cpus(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_PROFILE"),
    )
}
