//! Process accounting from `/proc`: CPU time and peak resident set of the
//! processes under test (a solo server, or a router and its workers).

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of `pid` (`self` for this process), or `None`
/// once it is gone.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `pid` and all its descendants, parents first.
pub fn tree(pid: u32) -> Vec<u32> {
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let p = out[i];
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{p}/task")) {
            for t in tasks.flatten() {
                if let Ok(kids) = std::fs::read_to_string(t.path().join("children")) {
                    out.extend(kids.split_whitespace().filter_map(|k| k.parse::<u32>().ok()));
                }
            }
        }
        i += 1;
    }
    out
}

/// Summed CPU seconds over `pids` (processes already gone count 0).
pub fn cpu_sum(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|p| cpu_s(&p.to_string())).sum()
}

/// Summed peak RSS in MiB over `pids`.
pub fn rss_sum(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|p| peak_rss_mb(&p.to_string())).sum()
}

/// True while `pid` exists and is not a zombie.
pub fn alive(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    let state = stat.rfind(')').and_then(|i| stat[i + 2..].chars().next());
    state.is_some_and(|s| s != 'Z') && Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let busy: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(busy);
        assert!(cpu_s("self").is_some());
        assert!(peak_rss_mb("self").unwrap() > 0.1);
        let me = std::process::id();
        assert_eq!(tree(me)[0], me);
        assert!(alive(me));
        assert!(!alive(u32::MAX - 1));
    }
}
