//! A small blocking client for the serve protocol.
//!
//! Used by the protocol/chaos/malformed integration tests and by the
//! `repro serve-client` subcommand that scripts a session in CI. One
//! [`ServeClient`] is one connection; [`submit`](ServeClient::submit) drives
//! a full job round-trip (request, `accepted`, streamed `case` frames, the
//! closing `done`; [`read_job`](ServeClient::read_job) is the reading half
//! alone, for pipelined requests), while [`request`](ServeClient::request)
//! does a plain one-frame exchange (`stats`, `shutdown`, or malformed lines
//! in tests).

use crate::json::Json;
use crate::protocol::frame;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

/// What to submit and how to run it. Unset fields take the server-side
/// protocol defaults.
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Named built-in corpus (`rq1` / `rq2`). Exclusive with `module`.
    pub corpus: Option<String>,
    /// Inline IR text. Exclusive with `corpus`.
    pub module: Option<String>,
    /// Model profile name.
    pub model: Option<String>,
    /// Model seed.
    pub seed: Option<u64>,
    /// Experiment round.
    pub round: Option<u64>,
    /// Replay checkpointed case reports under the same content key.
    pub resume: bool,
}

impl SubmitOptions {
    /// Submit a named corpus.
    pub fn corpus(name: &str) -> Self {
        Self { corpus: Some(name.to_string()), ..Self::default() }
    }

    /// Submit inline IR.
    pub fn module(text: &str) -> Self {
        Self { module: Some(text.to_string()), ..Self::default() }
    }

    /// The request frame this submission serializes to.
    pub fn request_line(&self) -> String {
        let mut fields = vec![("kind".to_string(), Json::Str("submit".into()))];
        if let Some(corpus) = &self.corpus {
            fields.push(("corpus".into(), Json::Str(corpus.clone())));
        }
        if let Some(module) = &self.module {
            fields.push(("module".into(), Json::Str(module.clone())));
        }
        if let Some(model) = &self.model {
            fields.push(("model".into(), Json::Str(model.clone())));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Json::Num(seed as f64)));
        }
        if let Some(round) = self.round {
            fields.push(("round".into(), Json::Num(round as f64)));
        }
        if self.resume {
            fields.push(("resume".into(), Json::Bool(true)));
        }
        frame(&Json::Obj(fields))
    }
}

/// How a submission ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The server rejected the submission before running it (validation or
    /// queue-capacity failure); the connection stays usable.
    Rejected(String),
    /// The job ran to its `done` frame.
    Finished {
        /// The `accepted` frame.
        accepted: Json,
        /// Every streamed `case` frame, in arrival order (settle order is
        /// scheduling-dependent; key on each frame's `case` index).
        cases: Vec<Json>,
        /// The closing `done` frame.
        done: Json,
    },
}

impl JobOutcome {
    /// The `done` frame of a finished job; panics on a rejection (tests use
    /// this where a rejection is a bug).
    pub fn done(&self) -> &Json {
        match self {
            JobOutcome::Finished { done, .. } => done,
            JobOutcome::Rejected(message) => panic!("job was rejected: {message}"),
        }
    }

    /// The streamed `case` frames of a finished job (panics on a rejection).
    pub fn cases(&self) -> &[Json] {
        match self {
            JobOutcome::Finished { cases, .. } => cases,
            JobOutcome::Rejected(message) => panic!("job was rejected: {message}"),
        }
    }
}

/// One client connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient { reader: BufReader::new(stream) })
    }

    /// Connects with retries — for scripted sessions racing a server that is
    /// still binding (the CI smoke job).
    pub fn connect_retry(addr: &str, attempts: u32, delay: Duration) -> std::io::Result<ServeClient> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        Err(last.unwrap_or_else(|| ErrorKind::ConnectionRefused.into()))
    }

    /// The underlying stream (tests use this to disconnect abruptly or push
    /// raw bytes).
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Sends one raw line (a trailing `\n` is added when missing).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut stream = self.reader.get_ref();
        stream.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            stream.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Sends raw bytes verbatim (malformed-input tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.reader.get_ref().write_all(bytes)
    }

    /// Reads one response frame.
    pub fn read_frame(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        Json::parse(line.trim_end()).map_err(|e| {
            std::io::Error::new(ErrorKind::InvalidData, format!("bad frame {line:?}: {e}"))
        })
    }

    /// One request/one response exchange.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.send_line(line)?;
        self.read_frame()
    }

    /// Requests server statistics.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(r#"{"kind":"stats"}"#)
    }

    /// Requests shutdown; returns the `bye` frame.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(r#"{"kind":"shutdown"}"#)
    }

    /// Submits a job and drains its result stream.
    pub fn submit(&mut self, options: &SubmitOptions) -> std::io::Result<JobOutcome> {
        self.send_line(&options.request_line())?;
        self.read_job()
    }

    /// Drains the response stream of a submission already sent: `accepted`
    /// (or `error`), the streamed `case` frames, then `done`. A pipelining
    /// client sends several requests first, then reads each response in
    /// order.
    pub fn read_job(&mut self) -> std::io::Result<JobOutcome> {
        let first = self.read_frame()?;
        match first.get("kind").and_then(Json::as_str) {
            Some("error") => {
                let message = first
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("(no message)")
                    .to_string();
                return Ok(JobOutcome::Rejected(message));
            }
            Some("accepted") => {}
            other => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("expected accepted/error, got kind {other:?}"),
                ))
            }
        }
        let mut cases = Vec::new();
        loop {
            let next = self.read_frame()?;
            match next.get("kind").and_then(Json::as_str) {
                Some("case") => cases.push(next),
                Some("done") => {
                    return Ok(JobOutcome::Finished { accepted: first, cases, done: next })
                }
                other => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("expected case/done, got kind {other:?}"),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_options_serialize_to_protocol_frames() {
        let line = SubmitOptions::corpus("rq1").request_line();
        assert_eq!(line, "{\"kind\":\"submit\",\"corpus\":\"rq1\"}\n");

        let mut options = SubmitOptions::module("define i32 @f() {\n ret i32 0\n}");
        options.model = Some("GPT4.1".into());
        options.seed = Some(7);
        options.round = Some(1);
        options.resume = true;
        let line = options.request_line();
        let parsed = Json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("submit"));
        assert!(parsed.get("module").unwrap().as_str().unwrap().contains("@f"));
        assert_eq!(parsed.get("model").unwrap().as_str(), Some("GPT4.1"));
        assert_eq!(parsed.get("seed").unwrap().as_num(), Some(7.0));
        assert_eq!(parsed.get("round").unwrap().as_num(), Some(1.0));
        assert_eq!(parsed.get("resume").unwrap().as_bool(), Some(true));
        // The frame is single-line even with embedded newlines in the IR.
        assert_eq!(line.matches('\n').count(), 1);
    }
}
