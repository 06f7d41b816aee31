//! Driving the `rumor` binary from outside: one long-lived `rumor
//! worker`/`rumor serve` process spoken to over length-prefixed frames,
//! or one `rumor sweep` process per request.

use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rumor_fleet::frame::{read_frame, write_frame};

/// How a workload's requests reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `rumor worker`: frames over stdio, every spec run uncached.
    Worker,
    /// `rumor serve`: frames over stdio, graph and trace caches shared
    /// across requests.
    Serve,
    /// `rumor sweep <file> --workers 2 --out <artifact>`, one process
    /// tree per request.
    Sweep,
}

/// One connection to the program under test.
pub enum Session {
    Frames(FrameServer),
    Sweep { rumor: PathBuf, dir: PathBuf },
}

impl Session {
    pub fn start(transport: Transport, rumor: &Path, scratch: &Path) -> io::Result<Session> {
        match transport {
            Transport::Worker => FrameServer::spawn(rumor, "worker").map(Session::Frames),
            Transport::Serve => FrameServer::spawn(rumor, "serve").map(Session::Frames),
            Transport::Sweep => {
                std::fs::create_dir_all(scratch)?;
                Ok(Session::Sweep { rumor: rumor.to_owned(), dir: scratch.to_owned() })
            }
        }
    }

    /// Sends one request and waits for its reply: the response frame,
    /// or for a sweep the artifact bytes. `payload` is a frame body, or
    /// for a sweep the sweep file's text. Returns the round-trip time
    /// with the reply; writing the sweep file and reading its artifact
    /// are outside it.
    pub fn call(&mut self, payload: &[u8]) -> (Duration, Result<Vec<u8>, String>) {
        match self {
            Session::Frames(server) => {
                let start = Instant::now();
                let reply = server.call(payload).map_err(|e| format!("transport: {e}"));
                (start.elapsed(), reply)
            }
            Session::Sweep { rumor, dir } => {
                let spec = dir.join("gen.spec");
                let artifact = dir.join("gen.fleet.json");
                if let Err(e) = std::fs::write(&spec, payload) {
                    return (Duration::ZERO, Err(format!("writing sweep: {e}")));
                }
                let _ = std::fs::remove_file(&artifact);
                let start = Instant::now();
                let out = Command::new(&*rumor)
                    .arg("sweep")
                    .arg(&spec)
                    .args(["--workers", "2", "--out"])
                    .arg(&artifact)
                    .stdin(Stdio::null())
                    .output();
                let rtt = start.elapsed();
                let reply = match out {
                    Err(e) => Err(format!("spawning rumor sweep: {e}")),
                    Ok(out) if !out.status.success() => Err(format!(
                        "rumor sweep exited {}: {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )),
                    Ok(_) => std::fs::read(&artifact).map_err(|e| format!("reading artifact: {e}")),
                };
                (rtt, reply)
            }
        }
    }

    /// Peak resident memory of the program in MB: `VmHWM` of the
    /// long-lived process (call before [`close`](Self::close)), or for
    /// sweeps the largest resident set of any reaped process tree.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let kb = match self {
            Session::Frames(server) => {
                let status = std::fs::read_to_string(format!("/proc/{}/status", server.pid()))?;
                vm_hwm_kb(&status).ok_or_else(|| io::Error::other("no VmHWM line"))?
            }
            Session::Sweep { .. } => children_max_rss_kb()?,
        };
        Ok(kb as f64 / 1024.0)
    }

    /// Ends the session and waits for the process to exit.
    pub fn close(self) -> io::Result<()> {
        match self {
            Session::Frames(server) => server.shutdown(),
            Session::Sweep { .. } => Ok(()),
        }
    }
}

/// A `rumor worker` or `rumor serve` child process. Dropping it without
/// [`shutdown`](Self::shutdown) (on an error path) kills and reaps it.
pub struct FrameServer {
    child: Child,
    /// `None` once shut down: closing stdin is the EOF that ends the
    /// server's loop.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl FrameServer {
    fn spawn(rumor: &Path, mode: &str) -> io::Result<Self> {
        let mut child =
            Command::new(rumor).arg(mode).stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Self { child, stdin, stdout })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let stdin = self.stdin.as_mut().ok_or_else(|| io::Error::other("server is shut down"))?;
        write_frame(stdin, payload)?;
        read_frame(&mut self.stdout)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server exited"))
    }

    fn shutdown(mut self) -> io::Result<()> {
        self.stdin = None;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited {status}")))
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// `ru_maxrss` of `getrusage(RUSAGE_CHILDREN)`: the largest resident
/// set, in kB, of any terminated and waited-for descendant.
fn children_max_rss_kb() -> io::Result<u64> {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `timeval`s of two `long`s each, then fourteen `long`s), and the
    // pointer is to a live, writable value of it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    u64::try_from(usage.maxrss).map_err(|_| io::Error::other("negative ru_maxrss"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_the_status_text() {
        let status = "Name:\trumor\nVmPeak:\t  20480 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\trumor\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn own_status_has_a_peak_resident_set() {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(vm_hwm_kb(&status).unwrap() > 0);
    }
}
