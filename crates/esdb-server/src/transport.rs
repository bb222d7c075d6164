//! Transport abstraction: how bytes reach the server.
//!
//! [`EsdbServer`](crate::server::EsdbServer) is written against
//! [`Transport`]/[`Conn`], not `std::net` directly, so the HTTP/JSON
//! front-end over TCP shipped here can later coexist with a gRPC or
//! unix-socket listener without touching admission control or the
//! request handlers. The only transport bundled today is
//! [`TcpTransport`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// One accepted connection: a blocking, bidirectional byte stream.
pub trait Conn: Read + Write + Send {
    /// Peer address, for logs.
    fn peer(&self) -> String;
    /// Bounds how long a blocking read may park a worker thread, so
    /// drain can interrupt idle keep-alive connections.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

/// A listener producing [`Conn`]s.
pub trait Transport: Send {
    /// Polls for one new connection. `Ok(None)` = nothing pending right
    /// now (the accept loop sleeps briefly and re-polls, interleaving
    /// shutdown checks).
    fn poll_accept(&mut self) -> std::io::Result<Option<Box<dyn Conn>>>;
    /// Where the transport listens (e.g. `127.0.0.1:39143`).
    fn local_addr(&self) -> String;
}

/// TCP transport on a non-blocking listener.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `addr` (use port 0 for an ephemeral port; the bound
    /// address is reported by [`Transport::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }
}

impl Transport for TcpTransport {
    fn poll_accept(&mut self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self.listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Some(Box::new(TcpConn { stream, peer })))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.addr.to_string()
    }
}

struct TcpConn {
    stream: TcpStream,
    peer: SocketAddr,
}

impl Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for TcpConn {
    fn peer(&self) -> String {
        self.peer.to_string()
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ephemeral_bind_and_poll() {
        let mut t = TcpTransport::bind("127.0.0.1:0").unwrap();
        assert!(t.local_addr().starts_with("127.0.0.1:"));
        // Nothing connected yet.
        assert!(t.poll_accept().unwrap().is_none());
        let client = TcpStream::connect(t.addr).unwrap();
        // Accept may need a beat for the handshake to land.
        let mut accepted = None;
        for _ in 0..100 {
            if let Some(c) = t.poll_accept().unwrap() {
                accepted = Some(c);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let conn = accepted.expect("connection should be accepted");
        assert_eq!(conn.peer().split(':').next(), Some("127.0.0.1"));
        drop(client);
    }
}
