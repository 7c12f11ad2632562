//! What the host can tell the harness: CPU time of the process tree, peak
//! memory, core count, toolchain and commit.

use crate::json::{obj, Json};

/// Kernel clock ticks per second as `/proc` reports them. Linux fixes
/// `USER_HZ` at 100 for every architecture it exports `/proc/<pid>/stat` on;
/// reading it properly needs `sysconf`, which needs libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU times of one `/proc/<pid>/stat` line, in clock ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcStat {
    pub utime: u64,
    pub stime: u64,
    /// User time of children that have been waited for.
    pub cutime: u64,
    /// System time of children that have been waited for.
    pub cstime: u64,
}

impl ProcStat {
    /// Parses a `/proc/<pid>/stat` line. The command name (field 2) is in
    /// parentheses and may itself contain spaces and parentheses, so fields
    /// are counted from the last `)`.
    pub fn parse(line: &str) -> Option<ProcStat> {
        let after_comm = &line[line.rfind(')')? + 1..];
        // `after_comm` starts at field 3 (state); utime is field 14.
        let mut fields = after_comm.split_ascii_whitespace().skip(14 - 3);
        let mut next = || fields.next()?.parse::<u64>().ok();
        Some(ProcStat {
            utime: next()?,
            stime: next()?,
            cutime: next()?,
            cstime: next()?,
        })
    }

    /// User + system seconds of the process and its waited-for children.
    pub fn tree_seconds(&self) -> f64 {
        (self.utime + self.stime + self.cutime + self.cstime) as f64 / TICKS_PER_SECOND
    }
}

/// CPU seconds this process and every child it has waited for have used.
/// `None` where `/proc` is missing; callers then report the metric as
/// unmeasured.
pub fn cpu_seconds() -> Option<f64> {
    let line = std::fs::read_to_string("/proc/self/stat").ok()?;
    ProcStat::parse(&line).map(|stat| stat.tree_seconds())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The conditions every result is recorded with.
pub fn conditions() -> Json {
    obj([
        ("nproc", nproc().into()),
        (
            "rustc",
            command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".to_string())
                .into(),
        ),
        (
            // The driver's checkout is not a git repository; say so rather
            // than let git search the directories above it.
            "git_commit",
            std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "not a git checkout".to_string())
                .into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_whose_command_has_spaces_and_parens() {
        let line = "4242 (tb bench) (x)) S 1 4242 4242 0 -1 4194304 900 1200 0 0 \
                    317 42 1001 77 20 0 3 0 123456 1000000 250 18446744073709551615";
        let stat = ProcStat::parse(line).unwrap();
        assert_eq!(
            stat,
            ProcStat {
                utime: 317,
                stime: 42,
                cutime: 1001,
                cstime: 77
            }
        );
        assert!((stat.tree_seconds() - 14.37).abs() < 1e-9);
    }

    #[test]
    fn rejects_truncated_or_malformed_lines() {
        assert_eq!(ProcStat::parse("1 (x) S 1 2 3"), None);
        assert_eq!(ProcStat::parse("no parenthesis at all"), None);
        let bad = "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 1 1 1";
        assert_eq!(ProcStat::parse(bad), None);
    }

    #[test]
    fn reads_this_process() {
        // Only where /proc exists; the harness degrades to "unmeasured"
        // elsewhere.
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
        assert!(nproc() >= 1);
    }
}
