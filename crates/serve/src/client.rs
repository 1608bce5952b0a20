//! A blocking protocol client: one TCP connection, one frame per call.
//!
//! Used by `gts client`, `benchmark/`'s `serve-mixed` workload, and the
//! loopback test suites. Each call writes one frame line and reads one response line;
//! the connection is kept open across calls, so a client that issues
//! many `analyze` frames against one schema keeps hitting the same
//! resident session.

use crate::proto;
use gts_engine::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What went wrong talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server's line was not valid JSON, or the connection closed
    /// mid-exchange.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server (`"127.0.0.1:4815"`, a `SocketAddr`, …).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one frame and reads the one-line response.
    pub fn roundtrip(&mut self, frame: &Json) -> Result<Json, ClientError> {
        writeln!(self.writer, "{}", frame.compact())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends raw bytes (malformed-frame tests) and reads the response.
    pub fn roundtrip_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Writes bytes without a frame terminator and drops the connection
    /// (early-disconnect tests).
    pub fn send_partial_and_close(mut self, bytes: &str) -> Result<(), ClientError> {
        self.writer.write_all(bytes.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends every frame before reading any response (protocol-v2
    /// pipelining), then collects one response per frame and returns
    /// them **in submission order** regardless of completion order.
    ///
    /// Each frame is stamped with a request `id` (`"p0"`, `"p1"`, …)
    /// unless it already carries one, which is what lets the server
    /// answer out of order and this method reassemble. Frames the
    /// caller pre-stamped must use distinct ids.
    pub fn pipeline(&mut self, frames: &[Json]) -> Result<Vec<Json>, ClientError> {
        let mut batch = String::new();
        let mut ids = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            let mut f = frame.clone();
            if f.get("id").is_none() {
                f.set("id", format!("p{i}"));
            }
            ids.push(f.get("id").expect("id just set").compact());
            batch.push_str(&f.compact());
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()?;
        let mut out: Vec<Option<Json>> = (0..frames.len()).map(|_| None).collect();
        for _ in 0..frames.len() {
            let response = self.read_response()?;
            let id = response.get("id").map(Json::compact).unwrap_or_default();
            match ids.iter().position(|want| *want == id) {
                Some(slot) if out[slot].is_none() => out[slot] = Some(response),
                _ => {
                    return Err(ClientError::Protocol(format!(
                        "pipelined response carries unexpected id {id}"
                    )))
                }
            }
        }
        Ok(out.into_iter().map(|r| r.expect("every slot filled")).collect())
    }

    fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed by server".into()));
        }
        Json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// `ping` roundtrip; returns the response frame.
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&proto::frame("ping"))
    }

    /// `stats` roundtrip (registry, admission, server counters).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&proto::frame("stats"))
    }

    /// `metrics` roundtrip: the server's metrics document, rendered into
    /// the response's `body` string field. `format` is `None` /
    /// `Some("prometheus")` for text exposition or `Some("json")` for
    /// the JSON mirror.
    pub fn metrics(&mut self, format: Option<&str>) -> Result<Json, ClientError> {
        let mut f = proto::frame("metrics");
        if let Some(fmt) = format {
            f.set("format", fmt);
        }
        self.roundtrip(&f)
    }

    /// `load_schema` roundtrip: registers/warms the pool entry for the
    /// (optionally named) schema of `gts` and returns its fingerprint.
    pub fn load_schema(&mut self, gts: &str, schema: Option<&str>) -> Result<Json, ClientError> {
        let mut f = proto::frame("load_schema");
        f.set("gts", gts);
        if let Some(name) = schema {
            f.set("schema", name);
        }
        self.roundtrip(&f)
    }

    /// `analyze` roundtrip over `gts` text.
    pub fn analyze(
        &mut self,
        gts: &str,
        source: Option<&str>,
        requests: Vec<Json>,
    ) -> Result<Json, ClientError> {
        self.roundtrip(&proto::analyze_frame(gts, source, requests))
    }

    /// `evict` roundtrip (`None` evicts every resident session).
    pub fn evict(&mut self, fingerprint: Option<&str>) -> Result<Json, ClientError> {
        let mut f = proto::frame("evict");
        if let Some(fp) = fingerprint {
            f.set("fingerprint", fp);
        }
        self.roundtrip(&f)
    }

    /// `cache_export` roundtrip: fetches the named session's cached
    /// state as a base64 store snapshot (the `store` response field).
    pub fn cache_export(&mut self, fingerprint: &str) -> Result<Json, ClientError> {
        let mut f = proto::frame("cache_export");
        f.set("fingerprint", fingerprint);
        self.roundtrip(&f)
    }

    /// `cache_import` roundtrip: ships a base64 store snapshot for the
    /// server to install into its disk cache and/or hydrate a resident
    /// session with.
    pub fn cache_import(&mut self, store_b64: &str) -> Result<Json, ClientError> {
        let mut f = proto::frame("cache_import");
        f.set("store", store_b64);
        self.roundtrip(&f)
    }

    /// `shutdown` roundtrip: asks the server to drain.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&proto::frame("shutdown"))
    }
}
