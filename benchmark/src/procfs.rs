//! What the kernel says about this process: CPU time, peak memory and
//! where the run happened.  Linux `/proc` only; the benchmark is not
//! meaningful elsewhere (the batched NetIo backend is Linux-only too).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `/proc/.../stat` reports CPU time in `USER_HZ` ticks, 100 per second
/// on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime of a `/proc/.../stat` line, in seconds.  The command
/// name may contain spaces and parentheses, so fields are counted from
/// the last `)`.
fn cpu_secs_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds (user + system) of the task whose `/proc` directory is
/// `dir`: the scheduler's nanosecond run-time counter where the kernel
/// keeps one (`schedstat`), the 10 ms ticks of `stat` otherwise.
fn task_cpu_secs(dir: &Path) -> f64 {
    let on_cpu_ns = fs::read_to_string(dir.join("schedstat"))
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok());
    match on_cpu_ns {
        Some(ns) => ns / 1e9,
        None => fs::read_to_string(dir.join("stat"))
            .ok()
            .and_then(|s| cpu_secs_of_stat(&s))
            .unwrap_or(0.0),
    }
}

fn tasks() -> impl Iterator<Item = PathBuf> {
    let dir = fs::read_dir("/proc/self/task");
    dir.into_iter().flatten().flatten().map(|task| task.path())
}

/// CPU seconds the process's live threads have used (the benchmark's
/// threads all outlive its windows).
pub fn process_cpu_secs() -> f64 {
    tasks().map(|dir| task_cpu_secs(&dir)).sum()
}

/// CPU seconds the calling thread has used.
pub fn this_thread_cpu_secs() -> f64 {
    task_cpu_secs(Path::new("/proc/thread-self"))
}

/// CPU seconds of the live thread named `name` (reactor threads are
/// named `blast-node-N`); 0 if there is none.
pub fn named_thread_cpu_secs(name: &str) -> f64 {
    let named = |dir: &PathBuf| {
        fs::read_to_string(dir.join("comm")).is_ok_and(|comm| comm.trim_end() == name)
    };
    tasks().find(named).map_or(0.0, |dir| task_cpu_secs(&dir))
}

/// Peak resident set size so far (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured, as `(key, value)` pairs.
/// The git commit reads `unknown` outside a work tree (the acceptance
/// pipeline runs from a plain checkout).
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "git_commit",
            command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (a (weird) name) S 1 42 42 0 -1 4194304 108 0 0 0 250 50 0 0 20 0 3 0 1";
        assert_eq!(cpu_secs_of_stat(line), Some(3.0));
        assert_eq!(cpu_secs_of_stat("garbage"), None);
    }

    #[test]
    fn reads_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::black_box(0);
        }
        assert!(process_cpu_secs() > 0.0);
        assert!(this_thread_cpu_secs() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(named_thread_cpu_secs("no-such-thread"), 0.0);
    }
}
