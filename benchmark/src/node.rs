//! One `serve` child process — what operators deploy — and its accounting
//! from outside: `/proc/<pid>` CPU, RSS and context switches, and the
//! final counter line the node prints when it drains on SIGTERM.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of utime/stime in `/proc/<pid>/stat` (fixed at
/// 100 for Linux userspace).
const TICKS_PER_S: f64 = 100.0;

pub struct Node {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Node {
    /// Spawn `serve` with `args` and wait until it reports its bound address.
    pub fn spawn(serve_bin: &Path, args: &[String]) -> io::Result<Node> {
        let mut child = Command::new(serve_bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let parsed = stdout.read_line(&mut line).and_then(|_| {
            // "serving on 127.0.0.1:41234 as ..."
            line.strip_prefix("serving on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok())
                .ok_or_else(|| bad(format!("unexpected first line from serve: {line:?}")))
        });
        match parsed {
            Ok(addr) => Ok(Node { child, stdout, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn proc_file(&self, rel: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{rel}", self.child.id()))
    }

    /// Process CPU time (user + system, all threads) in seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        cpu_s_of(&self.proc_file("stat")?)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_hwm_mib(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        status_field(&status, "VmHWM:")
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| bad("no VmHWM in /proc status".to_string()))
    }

    /// Voluntary context switches summed over every thread of the node.
    pub fn wakeups(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let status = std::fs::read_to_string(task?.path().join("status"))?;
            total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
        }
        Ok(total)
    }

    /// SIGTERM the node, let it drain, and parse the counter line it
    /// prints last. Waits for the process to end.
    pub fn stop(mut self) -> io::Result<HashMap<String, u64>> {
        let status = Command::new("kill").arg("-TERM").arg(self.child.id().to_string()).status()?;
        if !status.success() {
            return Err(bad("kill -TERM failed".to_string()));
        }
        // The drain output is two short lines, far below the pipe's
        // capacity, so the node cannot block on a full pipe before it exits.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(bad("serve did not exit within 10 s of SIGTERM".to_string()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let last = rest.lines().rev().find(|l| l.starts_with("gets=")).unwrap_or("");
        let counters = parse_counters(last);
        if counters.is_empty() {
            return Err(bad(format!("no final counter line from serve: {rest:?}")));
        }
        Ok(counters)
    }
}

impl Drop for Node {
    /// Error paths must not leave a node behind (`stop` has already
    /// reaped it on the normal path; killing a reaped child is a no-op).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// utime + stime from a `/proc/<pid>/stat` line, in seconds. The comm
/// field may contain spaces, so fields are counted after the last `)`.
fn cpu_s_of(stat: &str) -> io::Result<f64> {
    let after = stat.rsplit_once(')').map(|(_, a)| a).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // after ')' the fields start at #3 (state); utime is #14, stime #15.
    match (
        fields.get(11).and_then(|f| f.parse::<u64>().ok()),
        fields.get(12).and_then(|f| f.parse::<u64>().ok()),
    ) {
        (Some(u), Some(s)) => Ok((u + s) as f64 / TICKS_PER_S),
        _ => Err(bad(format!("unparsable /proc stat line: {stat:?}"))),
    }
}

/// CPU seconds used so far by this (generator) process.
pub fn self_cpu_s() -> io::Result<f64> {
    cpu_s_of(&std::fs::read_to_string("/proc/self/stat")?)
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix(name)?.split_whitespace().next()?.parse().ok())
}

/// `gets=1 puts=2 slab=3/4 ...` → map (non-numeric values are skipped).
fn parse_counters(line: &str) -> HashMap<String, u64> {
    line.split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_comm() {
        let line =
            "42 (my (odd) name) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1000 10";
        assert_eq!(cpu_s_of(line).unwrap(), 3.0);
        assert!(cpu_s_of("garbage").is_err());
    }

    #[test]
    fn parses_the_serve_counter_line() {
        let c = parse_counters("gets=10 puts=2 fresh=9 slab=5/8 conns=3");
        assert_eq!(c["gets"], 10);
        assert_eq!(c["conns"], 3);
        assert!(!c.contains_key("slab"));
    }

    #[test]
    fn reads_own_status() {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(status_field(&status, "VmHWM:").unwrap() > 0);
        assert!(self_cpu_s().unwrap() >= 0.0);
    }
}
