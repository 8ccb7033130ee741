//! In-test networking: ephemeral loopback ports and minimal HTTP/1.1
//! clients.
//!
//! The serve tests and the CI smoke stage need the same things: a
//! listener on an OS-assigned port (so parallel test processes never
//! collide), a one-shot client that fires one request and reads one
//! `connection: close` response ([`http_request`]), and a keep-alive
//! client that holds one socket open across many requests — sequential
//! or pipelined — ([`HttpClient`]). All std-only like the rest of the
//! testkit.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Binds a listener on an OS-assigned loopback port and returns it with
/// the address it landed on.
///
/// # Panics
///
/// Panics if the loopback interface refuses the bind — nothing a test
/// can recover from.
pub fn ephemeral_listener() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind an ephemeral loopback port");
    let addr = listener.local_addr().expect("bound listener has an addr");
    (listener, addr)
}

/// A parsed HTTP/1.1 response from [`http_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// Status code from the response line.
    pub status: u16,
    /// Header name/value pairs in wire order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The first header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if the body is not valid UTF-8.
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf-8 response body")
    }
}

/// Fires one HTTP/1.1 request at `addr` with a 30 s timeout and returns
/// the parsed response. See [`http_request_timeout`].
///
/// # Errors
///
/// Propagates connection and read/write errors, and reports malformed
/// responses as [`io::ErrorKind::InvalidData`].
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<HttpReply> {
    http_request_timeout(addr, method, path, body, Duration::from_secs(30))
}

/// Fires one HTTP/1.1 request and reads the whole `connection: close`
/// response.
///
/// The request always carries an explicit `content-length` (0 is fine
/// for GET) and `connection: close`, matching the one-shot framing the
/// serve crate responds with.
///
/// # Errors
///
/// Propagates connection and read/write errors (including `timeout`
/// expiring as [`io::ErrorKind::WouldBlock`]/`TimedOut`), and reports
/// malformed responses as [`io::ErrorKind::InvalidData`].
pub fn http_request_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<HttpReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("http client: {what}"))
}

/// A keep-alive HTTP/1.1 client: one socket, many requests.
///
/// Requests are sent **without** `connection: close`, so an HTTP/1.1
/// server keeps the socket open and the next request rides the same
/// connection. [`HttpClient::request`] is the sequential
/// send-then-read shape; [`HttpClient::send`] followed by repeated
/// [`HttpClient::read_reply`] pipelines — several requests on the wire
/// before the first response is read. [`HttpClient::send_raw`] writes
/// arbitrary bytes for torn-frame chaos tests.
#[derive(Debug)]
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    /// One flag per request in flight: whether it was a HEAD (its
    /// response advertises a content-length but carries no body).
    pending_head: VecDeque<bool>,
}

impl HttpClient {
    /// Connects with a 30 s socket timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit socket read/write timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Head and body go out as separate writes; without nodelay,
        // Nagle + the peer's delayed ACK cost ~40 ms per request on a
        // reused connection.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
            addr,
            pending_head: VecDeque::new(),
        })
    }

    /// Sends one keep-alive request without reading its response —
    /// call [`HttpClient::read_reply`] once per send, in order. Sending
    /// several before the first read pipelines them.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.pending_head.push_back(method == "HEAD");
        Ok(())
    }

    /// Writes raw bytes down the socket — torn frames, partial
    /// requests, anything. The caller owns the consequences; no
    /// response bookkeeping happens.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Half-closes the write side: the server sees EOF after whatever
    /// was already sent, so a torn frame written via
    /// [`HttpClient::send_raw`] stays torn forever instead of pinning
    /// the server's read until a timeout. Responses can still be read.
    ///
    /// # Errors
    ///
    /// Propagates the socket shutdown error.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    /// Registers that one framed (non-HEAD) response is expected
    /// without sending anything — pairs with [`HttpClient::send_raw`]
    /// (the reply to a torn frame) and with server-initiated responses
    /// (an idle-timeout 408 arriving on a quiet connection).
    pub fn expect_reply(&mut self) {
        self.pending_head.push_back(false);
    }

    /// Reads the next framed response off the connection (in send
    /// order).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when no request is in flight or
    /// the response is malformed; read errors (including the server
    /// closing mid-response) propagate.
    pub fn read_reply(&mut self) -> io::Result<HttpReply> {
        let head_only = self
            .pending_head
            .pop_front()
            .ok_or_else(|| invalid("no request in flight"))?;
        let mut raw = Vec::new();
        while !raw.ends_with(b"\r\n\r\n") {
            let mut byte = [0u8; 1];
            if self.reader.read(&mut byte)? == 0 {
                return Err(invalid("connection closed mid-response"));
            }
            raw.push(byte[0]);
            if raw.len() > 64 * 1024 {
                return Err(invalid("response header block too large"));
            }
        }
        let mut reply = parse_head(&raw[..raw.len() - 4])?;
        // A HEAD response advertises the GET content-length but carries
        // no body; reading one would steal the next response's bytes.
        if head_only {
            return Ok(reply);
        }
        let len: usize = match reply.header("content-length") {
            None => 0,
            Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
        };
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        reply.body = body;
        Ok(reply)
    }

    /// Sends one request and reads its response — the sequential
    /// keep-alive shape.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::send`] and [`HttpClient::read_reply`].
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpReply> {
        self.send(method, path, body)?;
        self.read_reply()
    }
}

/// Parses a status line + header block (up to but not including the
/// blank-line terminator) into a bodiless [`HttpReply`].
fn parse_head(head: &[u8]) -> io::Result<HttpReply> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("non-utf8 header block"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| invalid("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(invalid("bad protocol version")),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status code"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| invalid("bad header"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(HttpReply {
        status,
        headers,
        body: Vec::new(),
    })
}

/// Parses a full `connection: close` response buffer.
fn parse_reply(raw: &[u8]) -> io::Result<HttpReply> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("no header terminator"))?;
    let mut reply = parse_head(&raw[..header_end])?;
    let body_start = header_end + 4;
    let mut body = raw[body_start..].to_vec();
    if let Some(v) = reply.header("content-length") {
        let len: usize = v.parse().map_err(|_| invalid("bad content-length"))?;
        if body.len() < len {
            return Err(invalid("truncated body"));
        }
        body.truncate(len);
    }
    reply.body = body;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;

    #[test]
    fn ephemeral_ports_are_distinct_and_usable() {
        let (a, addr_a) = ephemeral_listener();
        let (_b, addr_b) = ephemeral_listener();
        assert_ne!(addr_a.port(), addr_b.port());
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr_a).expect("connect");
            s.write_all(b"ping").expect("write");
        });
        let (mut conn, _) = a.accept().expect("accept");
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        client.join().expect("client thread");
    }

    #[test]
    fn client_round_trips_a_canned_response() {
        let (listener, addr) = ephemeral_listener();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut reader = std::io::BufReader::new(conn);
            // Drain the request head, then the 3-byte body.
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).expect("request line");
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = [0u8; 3];
            reader.read_exact(&mut body).expect("request body");
            assert_eq!(&body, b"abc");
            let mut conn = reader.into_inner();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n\
                  connection: close\r\n\r\nhello",
            )
            .expect("write response");
        });
        let reply = http_request(addr, "POST", "/echo", b"abc").expect("round trip");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("Content-Type"), Some("text/plain"));
        assert_eq!(reply.body_str(), "hello");
        server.join().expect("server thread");
    }

    #[test]
    fn keep_alive_client_pipelines_and_handles_head() {
        let (listener, addr) = ephemeral_listener();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut reader = std::io::BufReader::new(conn);
            // Serve three requests off the one socket: echo nothing,
            // just answer canned frames (a HEAD frame in the middle —
            // content-length without a body).
            let mut heads = 0;
            let mut line = String::new();
            let replies: [&[u8]; 3] = [
                b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nconnection: keep-alive\r\n\r\none",
                b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\nconnection: keep-alive\r\n\r\n",
                b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nthree",
            ];
            for reply in replies {
                loop {
                    line.clear();
                    reader.read_line(&mut line).expect("request head");
                    if line == "\r\n" {
                        break;
                    }
                }
                heads += 1;
                reader
                    .get_mut()
                    .write_all(reply)
                    .expect("write canned reply");
            }
            assert_eq!(heads, 3);
        });
        let mut client = HttpClient::connect(addr).expect("connect");
        // Pipeline: both requests on the wire before either reply read.
        client.send("GET", "/a", b"").expect("send 1");
        client.send("HEAD", "/b", b"").expect("send 2");
        let first = client.read_reply().expect("reply 1");
        assert_eq!(first.body_str(), "one");
        let second = client.read_reply().expect("reply 2");
        assert_eq!(second.header("content-length"), Some("11"));
        assert!(second.body.is_empty(), "HEAD replies carry no body");
        // Sequential third request on the same socket.
        let third = client.request("GET", "/c", b"").expect("reply 3");
        assert_eq!(third.body_str(), "three");
        server.join().expect("server thread");
    }

    #[test]
    fn reading_with_nothing_in_flight_is_invalid_data() {
        let (listener, addr) = ephemeral_listener();
        let mut client = HttpClient::connect(addr).expect("connect");
        assert_eq!(
            client.read_reply().expect_err("nothing sent").kind(),
            io::ErrorKind::InvalidData
        );
        drop(listener);
    }

    #[test]
    fn malformed_responses_are_invalid_data() {
        assert_eq!(
            parse_reply(b"garbage").expect_err("no terminator").kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            parse_reply(b"NOPE 200 OK\r\n\r\n")
                .expect_err("version")
                .kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort")
                .expect_err("truncated")
                .kind(),
            io::ErrorKind::InvalidData
        );
    }
}
