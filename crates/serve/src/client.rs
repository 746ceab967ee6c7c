//! A minimal NDJSON client for the Unix-socket daemon.
//!
//! The container the project targets has no `nc`, so `clockless client`
//! fills that role: it forwards request lines from its input to the
//! socket, prints each response line as it arrives, and exits when the
//! daemon closes the stream. With `payload_only` set, success envelopes
//! are unwrapped to their byte-exact one-shot CLI documents — the mode
//! `scripts/ci.sh` uses to diff daemon output against the CLI.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::protocol::decode_payload;

/// Why a client session failed: its session with the daemon, or the
/// output it copies responses to. The CLI tells them apart — a reader
/// that closed the output early is no failure of the session.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, reading the request input, sending requests or
    /// reading responses.
    Session(std::io::Error),
    /// Writing a response to the output.
    Output(std::io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Session(e) => write!(f, "{e}"),
            ClientError::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Session(e) | ClientError::Output(e) => Some(e),
        }
    }
}

/// Runs one client session against the daemon listening on `socket`.
///
/// Request lines are read from `input` (blank lines skipped) and
/// forwarded concurrently with response reading, so a long stream of
/// jobs cannot deadlock on a full socket buffer. After `input` ends the
/// write half of the socket is shut down — the daemon sees EOF, drains
/// its queue, and closes, which ends the session.
///
/// When `payload_only` is `true`, success envelopes are replaced by
/// their decoded `payload` documents (error envelopes still print
/// verbatim, so failures stay visible).
///
/// # Errors
///
/// [`ClientError::Session`] for connection and session I/O errors, and
/// [`ClientError::Output`] when a response cannot be written; the
/// session is then closed at once, requests not yet sent included. A
/// response stream that ends early (daemon killed) is an `Ok` session
/// end, mirroring `nc`.
pub fn run_client(
    socket: &Path,
    input: impl BufRead + Send,
    mut output: impl Write,
    payload_only: bool,
) -> Result<(), ClientError> {
    let stream = UnixStream::connect(socket).map_err(ClientError::Session)?;
    std::thread::scope(|s| {
        let sender = s.spawn({
            let stream = &stream;
            move || -> std::io::Result<()> {
                let mut w = stream;
                for line in input.lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    w.write_all(line.as_bytes())?;
                    w.write_all(b"\n")?;
                }
                w.flush()?;
                stream.shutdown(std::net::Shutdown::Write)
            }
        });
        let relayed = relay(&stream, &mut output, payload_only);
        if relayed.is_err() {
            // Nothing reads the responses any more: end the session, so
            // the sender's next write fails instead of blocking.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().unwrap_or(Ok(()));
        relayed?;
        sent.map_err(ClientError::Session)
    })
}

/// Copies the daemon's response lines from `stream` to `output`.
fn relay(
    stream: &UnixStream,
    output: &mut impl Write,
    payload_only: bool,
) -> Result<(), ClientError> {
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(ClientError::Session)?;
        let written = match decode_payload(&line) {
            Some(doc) if payload_only => output.write_all(doc.as_bytes()),
            _ => (output.write_all(line.as_bytes())).and_then(|()| output.write_all(b"\n")),
        };
        written.map_err(ClientError::Output)?;
    }
    output.flush().map_err(ClientError::Output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, ServeConfig};

    /// End-to-end over a real Unix socket: daemon thread + client.
    #[test]
    fn client_talks_to_a_unix_daemon() {
        let dir = std::env::temp_dir().join(format!("clockless-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let socket = dir.join("daemon.sock");
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || Daemon::new(ServeConfig::default()).serve_unix(&socket))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Session 1: ping, envelopes verbatim.
        let mut out = Vec::new();
        run_client(
            &socket,
            "{\"id\":1,\"op\":\"ping\"}\n".as_bytes(),
            &mut out,
            false,
        )
        .expect("session 1");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("\"ok\":true"), "{text}");

        // Session 2: payload-only run, then shutdown.
        let mut out = Vec::new();
        let reqs =
            "{\"id\":1,\"op\":\"run\",\"model\":\"model t steps 1\\nregister R init 3\\n\"}\n\
                    {\"id\":2,\"op\":\"shutdown\"}\n";
        run_client(&socket, reqs.as_bytes(), &mut out, true).expect("session 2");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("\"model\": \"t\""), "{text}");
        assert!(text.ends_with("bye\n"), "{text}");

        server
            .join()
            .expect("server thread")
            .expect("clean daemon exit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
