//! A blocking line-protocol client and the response-line parser.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-operation timeout: an answer later than this counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// How a response line opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// A degraded read: correct but possibly incomplete.
    Partial,
    Err,
}

/// One response: the header line and, for `lines=<n>` responses
/// (`METRICS`, `TRACE`, `EXPLAIN`), the body lines that follow it.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub head: String,
    pub body: Vec<String>,
}

impl Reply {
    pub fn status(&self) -> Status {
        match self.head.split_whitespace().next() {
            Some("OK") => Status::Ok,
            Some("PARTIAL") => Status::Partial,
            _ => Status::Err,
        }
    }

    /// The value of a `key=value` field of the header line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.head
            .split_whitespace()
            .filter_map(|f| f.split_once('='))
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    pub fn number(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }

    /// A whole response as one text (what `handle_command` returns):
    /// the header line, then any body lines.
    pub fn from_text(response: &str) -> Reply {
        let mut lines = response.lines().map(str::to_string);
        Reply {
            head: lines.next().unwrap_or_default(),
            body: lines.collect(),
        }
    }
}

/// One closed-loop connection: a request is sent only after the
/// previous response arrived.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, OP_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(OP_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends one command line and reads its whole response. An error
    /// means the connection is unusable (timeout, EOF, I/O failure).
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        let head = self.read_line(line)?;
        // The server's own rule for which headers announce a body.
        let body = (0..scq_serve::body_lines(&head).unwrap_or(0))
            .map(|_| self.read_line(line))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Reply { head, body })
    }

    fn read_line(&mut self, cmd: &str) -> Result<String, String> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err(format!("server closed the connection after {cmd:?}")),
            Ok(_) => Ok(buf.trim_end().to_string()),
            Err(e) => Err(format!("no answer to {cmd:?} within {OP_TIMEOUT:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(head: &str) -> Reply {
        Reply {
            head: head.into(),
            body: Vec::new(),
        }
    }

    #[test]
    fn response_lines_parse_in_every_shape() {
        let ok = reply("OK n=3 pruned=1 ids=4,9,12 trace=77");
        assert_eq!(ok.status(), Status::Ok);
        assert_eq!(ok.number("n"), Some(3));
        assert_eq!(ok.field("ids"), Some("4,9,12"));
        assert_eq!(ok.field("missing"), None);

        let empty = reply("OK n=0 pruned=3 ids= trace=5");
        assert_eq!(empty.field("ids"), Some(""));

        let partial = reply("PARTIAL missing=1 n=2 pruned=0 tuples=T=1,R=2|T=3,R=4");
        assert_eq!(partial.status(), Status::Partial);
        assert_eq!(partial.field("missing"), Some("1"));
        assert_eq!(partial.field("tuples"), Some("T=1,R=2|T=3,R=4"));

        let err = reply("ERR unknown collection \"nosuch\"");
        assert_eq!(err.status(), Status::Err);
        assert_eq!(err.number("n"), None);

        assert_eq!(reply("").status(), Status::Err);

        let multi =
            Reply::from_text("OK trace=9 lines=2\nserve.command cmd=QUERY\n  probe shard=0");
        assert_eq!(multi.status(), Status::Ok);
        assert_eq!(multi.number("lines"), Some(2));
        assert_eq!(multi.body.len(), 2);
        assert_eq!(scq_serve::body_lines(&multi.head), Some(2));
        assert_eq!(scq_serve::body_lines("ERR lines=4"), None);
    }
}
