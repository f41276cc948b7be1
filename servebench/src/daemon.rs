//! The daemon under test: `meloppr-serve` with its defaults, spawned as
//! a child process on an ephemeral loopback port.

use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use meloppr::server::{FrameEvent, FrameReader};

use crate::workload::GRAPH_SPEC;

/// How long boot (or a clean exit) may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Depth of the persisted ball index: the stage length of the daemon's
/// default 3+3 split, so every stage ball can come from the cold tier.
pub const INDEX_DEPTH: u32 = 3;

/// Builds the ball index with `meloppr-cli index`, returning its path
/// and the wall time of the build.
pub fn build_index(bin_dir: &Path, work_dir: &Path) -> Result<(PathBuf, f64), String> {
    let out = work_dir.join("g3-depth3.idx");
    let started = Instant::now();
    let status = Command::new(bin_dir.join("meloppr-cli"))
        .args(["index", GRAPH_SPEC, "--out"])
        .arg(&out)
        .args(["--index-depth", &INDEX_DEPTH.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("running meloppr-cli index: {e}"))?;
    if !status.success() {
        return Err(format!("meloppr-cli index failed: {status}"));
    }
    let build_s = started.elapsed().as_secs_f64();
    // Flush the 122 MiB to disk now, untimed: left to the kernel, the
    // writeback lands ~30 s later, inside the measured window.
    File::open(&out)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("syncing {}: {e}", out.display()))?;
    Ok((out, build_s))
}

/// A running daemon. Dropping it kills the process if it is still alive.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits for its first `PONG`; returns it with
    /// the seconds from spawn to that `PONG`.
    pub fn spawn(
        bin_dir: &Path,
        work_dir: &Path,
        index: Option<&Path>,
    ) -> Result<(Daemon, f64), String> {
        let log_path = work_dir.join("daemon.log");
        let log = File::create(&log_path).map_err(|e| format!("creating daemon log: {e}"))?;
        let started = Instant::now();
        let mut cmd = Command::new("nice");
        cmd.args(["-n", "19"]).arg(bin_dir.join("meloppr-serve"));
        cmd.args([GRAPH_SPEC, "--listen", "127.0.0.1:0"]);
        if let Some(index) = index {
            cmd.arg("--ball-index").arg(index);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning meloppr-serve: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = daemon.wait_listening(&log_path)?;
        let mut conn = daemon.connect()?;
        write_payload(&mut conn, "PING")?;
        match read_payload(&mut conn)?.as_str() {
            "PONG" => Ok((daemon, started.elapsed().as_secs_f64())),
            other => Err(format!("expected PONG, got {other:?}")),
        }
    }

    /// Polls the daemon's log for its `listening on <addr>` line.
    fn wait_listening(&mut self, log_path: &Path) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            let mut text = String::new();
            File::open(log_path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(|e| format!("reading daemon log: {e}"))?;
            // The line may still be half-written: wait for its newline.
            let line = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((rest, _)) = line {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"));
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "meloppr-serve exited during boot ({status}):\n{text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("meloppr-serve did not boot in time:\n{text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A fresh client connection with Nagle's algorithm off.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let conn = TcpStream::connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        Ok(conn)
    }

    /// The daemon's peak resident set (`VmHWM`), KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the daemon to stop with a `SHUTDOWN` frame and waits for it
    /// to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        write_payload(&mut conn, "SHUTDOWN")?;
        let reply = read_payload(&mut conn)?;
        if !reply.starts_with("STATS ") {
            return Err(format!("expected final STATS, got {reply:?}"));
        }
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("meloppr-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("meloppr-serve did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for meloppr-serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Writes one length-prefixed frame in a single `write_all`.
pub fn write_payload(conn: &mut TcpStream, payload: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload.as_bytes());
    conn.write_all(&buf)
        .map_err(|e| format!("writing frame: {e}"))
}

/// Reads one frame, blocking.
pub fn read_payload(conn: &mut TcpStream) -> Result<String, String> {
    match FrameReader::new().read_event(conn) {
        Ok(FrameEvent::Frame(payload)) => Ok(payload),
        Ok(other) => Err(format!("expected a frame, got {other:?}")),
        Err(e) => Err(format!("reading frame: {e}")),
    }
}
