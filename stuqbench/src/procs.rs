//! The system under test as child processes: a solo `stuq serve` or a
//! `stuq serve --role router` with its worker processes, driven over the
//! process's stdin/stdout (one connection).

use std::io::BufReader;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::{LineRx, Rx, Tx};
use crate::procfs;

/// A running server process tree.
pub struct Proc {
    child: Child,
    /// Request half of the connection (taken while the open-loop sender
    /// thread owns it).
    pub tx: Option<ChildStdin>,
    /// Response half of the connection.
    pub rx: LineRx<BufReader<ChildStdout>>,
    /// Every process of the tree seen so far (router first).
    pids: Vec<u32>,
}

impl Proc {
    /// Starts `stuq <args>` with the pool width pinned and returns it with
    /// its set-up time: from the spawn to the answer to its first request
    /// (a `healthz`), which covers model load and, for a router, spawning
    /// and assigning every worker.
    pub fn start(stuq: &Path, args: &[String], threads: usize) -> Result<(Proc, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(stuq)
            .args(args)
            .env("STUQ_THREADS", threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", stuq.display()))?;
        let tx = child.stdin.take().expect("piped stdin");
        let rx =
            LineRx(BufReader::with_capacity(1 << 20, child.stdout.take().expect("piped stdout")));
        let pid = child.id();
        let mut p = Proc { child, tx: Some(tx), rx, pids: vec![pid] };
        let answer = p.ask(r#"{"type":"healthz","id":"setup"}"#)?;
        let setup_s = t0.elapsed().as_secs_f64();
        if !answer.contains("\"type\":\"health\"") {
            return Err(format!("first answer was not a health report: {answer}"));
        }
        p.refresh();
        Ok((p, setup_s))
    }

    /// One request, one answer.
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        self.tx.as_mut().expect("connection held").send(line).map_err(|e| e.to_string())?;
        self.rx.recv().ok_or_else(|| "server closed the connection".to_string())
    }

    /// Re-reads the process tree (workers appear once the router spawned
    /// them).
    pub fn refresh(&mut self) {
        for p in procfs::tree(self.pids[0]) {
            if !self.pids.contains(&p) {
                self.pids.push(p);
            }
        }
    }

    /// Live processes of the tree.
    pub fn pids(&mut self) -> Vec<u32> {
        self.refresh();
        self.pids.iter().copied().filter(|&p| procfs::alive(p)).collect()
    }

    /// Orderly shutdown, then makes sure every process of the tree ended.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Proc {
    /// Shuts the tree down on every path out of a run, early returns
    /// included: `shutdown`, a grace period, then kills for whatever is
    /// left.
    fn drop(&mut self) {
        self.refresh();
        if let Some(tx) = self.tx.as_mut() {
            let _ = tx.send(r#"{"type":"shutdown","id":"stop"}"#);
        }
        drop(self.tx.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let left: Vec<u32> = self.pids.iter().copied().filter(|&p| procfs::alive(p)).collect();
            if left.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                for p in left {
                    let _ = Command::new("kill").args(["-9", &p.to_string()]).status();
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
