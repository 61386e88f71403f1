//! The client side of `fdi serve --tcp`: the server process, one
//! connection, and the reply grammar.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long one reply may take before the request counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `fdi serve` process. Dropping it kills and reaps the
/// process if [`Server::wait`] has not.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pid: u32,
}

impl Server {
    /// Spawns `fdi serve <journal> <desc> --tcp 127.0.0.1:0` and
    /// connects once it reports its address. Returns the server, the
    /// connection, and the time from spawn until the hello line arrived.
    pub fn start(
        fdi: &Path,
        journal: &Path,
        desc: &Path,
        threads: usize,
    ) -> io::Result<(Server, Client, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(fdi)
            .arg("serve")
            .arg(journal)
            .arg(desc)
            .args(["--tcp", "127.0.0.1:0"])
            .env("FDI_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            stdout: BufReader::new(stdout),
            pid,
        };
        let addr = loop {
            let mut line = String::new();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("fdi serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        let (client, hello) = Client::connect(&addr)?;
        if !hello.starts_with("serving epoch ") {
            return Err(io::Error::other(format!("unexpected hello {hello:?}")));
        }
        Ok((server, client, started.elapsed()))
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Waits for the process to exit (after `shutdown`).
    pub fn wait(mut self) -> io::Result<ExitStatus> {
        self.child.take().expect("waited once").wait()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One connection: a line out, a line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> io::Result<(Client, String)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let hello = client.read_line()?;
        Ok((client, hello))
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request line and returns the reply line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read_line()
    }
}

/// One reply line, parsed. Rejection and error texts are not kept: the
/// oracle compares outcomes, not wording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `staged (N op(s) await commit)`
    Staged { pending: u64 },
    /// `rejected: …`
    Rejected,
    /// `published epoch S (N op(s) applied, durable)`
    Published { seq: u64, ops: u64 },
    /// `epoch S (N op(s) applied, fingerprint HEX)`
    Epoch {
        seq: u64,
        ops: u64,
        fingerprint: u64,
    },
    /// `sure: [p …]  maybe: [p …]  (epoch S)`
    Selection {
        sure: Vec<usize>,
        maybe: Vec<usize>,
        epoch: u64,
    },
    /// `session closed at epoch S (N op(s) durable)`
    Closed { seq: u64, ops: u64 },
    /// `error: …`
    Error(String),
    /// Anything else.
    Unparsable(String),
}

impl Reply {
    pub fn parse(line: &str) -> Reply {
        Reply::try_parse(line).unwrap_or_else(|| Reply::Unparsable(line.to_string()))
    }

    /// Whether the reply fails its request whatever the oracle says.
    pub fn is_failure(&self) -> bool {
        matches!(self, Reply::Error(_) | Reply::Unparsable(_))
    }

    fn try_parse(line: &str) -> Option<Reply> {
        if line.starts_with("rejected: ") {
            return Some(Reply::Rejected);
        }
        if let Some(msg) = line.strip_prefix("error: ") {
            return Some(Reply::Error(msg.to_string()));
        }
        if let Some(rest) = line.strip_prefix("staged (") {
            let pending = rest.strip_suffix(" op(s) await commit)")?.parse().ok()?;
            return Some(Reply::Staged { pending });
        }
        if let Some(rest) = line.strip_prefix("published epoch ") {
            let (seq, rest) = rest.split_once(" (")?;
            let ops = rest.strip_suffix(" op(s) applied, durable)")?;
            return Some(Reply::Published {
                seq: seq.parse().ok()?,
                ops: ops.parse().ok()?,
            });
        }
        if let Some(rest) = line.strip_prefix("session closed at epoch ") {
            let (seq, rest) = rest.split_once(" (")?;
            let ops = rest.strip_suffix(" op(s) durable)")?;
            return Some(Reply::Closed {
                seq: seq.parse().ok()?,
                ops: ops.parse().ok()?,
            });
        }
        if let Some(rest) = line.strip_prefix("epoch ") {
            let (seq, rest) = rest.split_once(" (")?;
            let (ops, rest) = rest.split_once(" op(s) applied, fingerprint ")?;
            let fingerprint = rest.strip_suffix(')')?;
            return Some(Reply::Epoch {
                seq: seq.parse().ok()?,
                ops: ops.parse().ok()?,
                fingerprint: u64::from_str_radix(fingerprint, 16).ok()?,
            });
        }
        let rest = line.strip_prefix("sure: [")?;
        let (sure, rest) = rest.split_once("]  maybe: [")?;
        let (maybe, rest) = rest.split_once("]  (epoch ")?;
        let epoch = rest.strip_suffix(')')?.parse().ok()?;
        let positions = |text: &str| -> Option<Vec<usize>> {
            text.split_whitespace().map(|p| p.parse().ok()).collect()
        };
        Some(Reply::Selection {
            sure: positions(sure)?,
            maybe: positions(maybe)?,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reply_shape_parses() {
        assert_eq!(
            Reply::parse("staged (3 op(s) await commit)"),
            Reply::Staged { pending: 3 }
        );
        assert_eq!(
            Reply::parse("published epoch 4 (17 op(s) applied, durable)"),
            Reply::Published { seq: 4, ops: 17 }
        );
        assert_eq!(
            Reply::parse("epoch 2 (5 op(s) applied, fingerprint 00000000b24771d1)"),
            Reply::Epoch {
                seq: 2,
                ops: 5,
                fingerprint: 0xb247_71d1
            }
        );
        assert_eq!(
            Reply::parse("sure: [1 20 300]  maybe: []  (epoch 7)"),
            Reply::Selection {
                sure: vec![1, 20, 300],
                maybe: vec![],
                epoch: 7
            }
        );
        assert_eq!(
            Reply::parse("session closed at epoch 9 (40 op(s) durable)"),
            Reply::Closed { seq: 9, ops: 40 }
        );
    }

    #[test]
    fn rejections_are_outcomes_and_errors_are_failures() {
        let rejected = Reply::parse("rejected: update rejected (Weak enforcement)");
        assert_eq!(rejected, Reply::Rejected);
        assert!(!rejected.is_failure());
        assert_eq!(Reply::parse("rejected: no row 9"), Reply::Rejected);
        let error = Reply::parse("error: attribute CT has an unbounded domain");
        assert_eq!(
            error,
            Reply::Error("attribute CT has an unbounded domain".into())
        );
        assert!(error.is_failure());
        for garbage in [
            "",
            "staged (x op(s) await commit)",
            "sure: [1 ?]  maybe: []  (epoch 1)",
            "epoch 1 (2 op(s) applied, fingerprint zz)",
        ] {
            assert!(Reply::parse(garbage).is_failure(), "{garbage:?}");
        }
    }
}
