//! Process accounting and provenance read from the host.

use quarc_campaign::Json;
use std::path::Path;

/// Kernel clock ticks per second for the times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces:
    // utime and stime are fields 14 and 15, i.e. 12th and 13th after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// Host CPU model name.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without spawning git; benchmark checkouts without a `.git` report so.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).and_then(|id| id.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| format!("unresolved ref {reference}"))
}

/// Worker threads the host offers.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Build and host provenance carried by every result.
pub fn provenance() -> Json {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    Json::obj(vec![
        ("host_cpu", Json::Str(cpu_model())),
        ("nproc", Json::UInt(nproc() as u64)),
        ("git_commit", Json::Str(git_commit())),
        ("rustc", Json::Str(env!("CAMPAIGN_BENCH_RUSTC").into())),
        (
            "profile",
            Json::Str(format!(
                "{profile} (opt-level {}, lto = \"fat\", codegen-units = 1)",
                env!("CAMPAIGN_BENCH_OPT_LEVEL")
            )),
        ),
    ])
}
