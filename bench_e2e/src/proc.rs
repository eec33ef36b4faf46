//! Process-level measurements (`/proc`) and the out-of-process source
//! server the `access-tcp` workload talks to.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second. `/proc/<pid>/stat` reports CPU time in
/// ticks of `sysconf(_SC_CLK_TCK)`, which is 100 on every Linux the
/// benchmark runs on (no libc binding is available to ask).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the ") ".
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the benchmark keeps what it writes: `bench_e2e/` under the cargo
/// target directory the binary was built into (inside the checkout).
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let release = exe.parent().ok_or("executable has no directory")?;
    let target = release.parent().unwrap_or(release);
    let dir = target.join("bench_e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running `qpo-source-server --dir <store>`; killed and reaped on drop.
pub struct SourceServer {
    child: Child,
    pub addr: String,
    dir: PathBuf,
}

impl SourceServer {
    /// Spawns the server binary found beside the running executable on
    /// the store directory `dir` and waits for its address file.
    pub fn spawn(dir: &Path) -> Result<SourceServer, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let server = exe.with_file_name("qpo-source-server");
        if !server.exists() {
            return Err(format!(
                "{} not found; build it next to bench_e2e (run.sh does)",
                server.display()
            ));
        }
        let addr_file = dir.join("addr");
        let child = Command::new(&server)
            .arg("--dir")
            .arg(dir)
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server.display()))?;
        let mut guard = SourceServer {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                guard.addr = addr;
                return Ok(guard);
            }
            if let Ok(Some(status)) = guard.child.try_wait() {
                return Err(format!("source server exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("source server never reported an address".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for SourceServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_time_and_peak_rss() {
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(std::process::id()).unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
