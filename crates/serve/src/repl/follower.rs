//! The tailing side of replication: connect to a leader, subscribe to
//! its op log at a resume LSN, and surface the pushed record and
//! heartbeat frames — plus the reconnect backoff the server's follower
//! thread drives.
//!
//! This module is deliberately just the wire client; *applying* the
//! records it yields (under the follower's write lock, through
//! [`apply_op`](crate::repl::apply_op)) lives with the server, so the
//! session entry points stay identical between leader and follower.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{self, BinReply, FrameClient};

/// Why a subscription attempt failed.
#[derive(Debug)]
pub enum ConnectError {
    /// The TCP connect or handshake I/O failed — transient, retry with
    /// backoff.
    Io(io::Error),
    /// The leader refused the subscription (resume LSN outside its
    /// log, replication not enabled) — fatal; the follower needs a
    /// newer snapshot or a config fix, not a retry.
    Rejected(String),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Io(e) => write!(f, "connect failed: {e}"),
            ConnectError::Rejected(msg) => write!(f, "subscription refused: {msg}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// One event pushed over a live subscription.
#[derive(Debug)]
pub enum TailEvent {
    /// An encoded WAL record body to replay.
    Record(Vec<u8>),
    /// An idle heartbeat: the leader's log tip and generation.
    Heartbeat {
        /// Leader log tip.
        tip: u64,
        /// Leader server generation.
        gen: u64,
    },
}

/// A live `OP_LOG_SUBSCRIBE` stream.
pub struct TailConn {
    client: FrameClient,
    /// Log tip the leader reported when the subscription was accepted.
    pub tip_at_subscribe: u64,
}

impl TailConn {
    /// Connect to `addr`, subscribe from `from`, and return the live
    /// stream. `read_timeout` bounds every subsequent
    /// [`Self::next_event`] so a silent leader is noticed promptly.
    pub fn connect(
        addr: &str,
        from: u64,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<TailConn, ConnectError> {
        let sock = addr
            .to_socket_addrs()
            .map_err(ConnectError::Io)?
            .next()
            .ok_or_else(|| {
                ConnectError::Io(io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    format!("no address for {addr}"),
                ))
            })?;
        let stream =
            TcpStream::connect_timeout(&sock, connect_timeout).map_err(ConnectError::Io)?;
        stream.set_nodelay(true).map_err(ConnectError::Io)?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(ConnectError::Io)?;
        let mut client = FrameClient::from(stream);
        client
            .send_raw(&frame::encode_log_subscribe(from))
            .map_err(ConnectError::Io)?;
        match client.read_reply().map_err(ConnectError::Io)? {
            BinReply::SubAck { tip, .. } => Ok(TailConn {
                client,
                tip_at_subscribe: tip,
            }),
            BinReply::Err { message } => Err(ConnectError::Rejected(message)),
            other => Err(ConnectError::Rejected(format!(
                "unexpected subscribe reply: {other:?}"
            ))),
        }
    }

    /// Block (up to the read timeout) for the next pushed frame. A
    /// timeout or disconnect is an `Err` — the caller reconnects.
    pub fn next_event(&mut self) -> io::Result<TailEvent> {
        match self.client.read_reply()? {
            BinReply::LogRecord { body } => Ok(TailEvent::Record(body)),
            BinReply::Heartbeat { tip, gen } => Ok(TailEvent::Heartbeat { tip, gen }),
            BinReply::Err { message } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("leader pushed an error: {message}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected push frame: {other:?}"),
            )),
        }
    }

    /// Whether bytes of a further frame are already read and buffered —
    /// `false` means the burst the leader sent is drained. A buffer
    /// check, not a syscall.
    pub fn has_buffered(&self) -> bool {
        self.client.has_buffered()
    }
}

/// Exponential reconnect backoff: 100 ms doubling to a 2 s ceiling,
/// reset after a successful subscribe.
#[derive(Debug)]
pub struct Backoff {
    next: Duration,
}

/// First retry delay.
pub const BACKOFF_FLOOR: Duration = Duration::from_millis(100);
/// Retry delay ceiling.
pub const BACKOFF_CEIL: Duration = Duration::from_secs(2);

impl Backoff {
    /// A fresh backoff at the floor.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Backoff {
        Backoff {
            next: BACKOFF_FLOOR,
        }
    }

    /// The delay to sleep before the next attempt (doubles, capped).
    pub fn step(&mut self) -> Duration {
        let d = self.next;
        self.next = (self.next * 2).min(BACKOFF_CEIL);
        d
    }

    /// Back to the floor (call after a successful subscribe).
    pub fn reset(&mut self) {
        self.next = BACKOFF_FLOOR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_ceiling_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.step(), Duration::from_millis(100));
        assert_eq!(b.step(), Duration::from_millis(200));
        assert_eq!(b.step(), Duration::from_millis(400));
        assert_eq!(b.step(), Duration::from_millis(800));
        assert_eq!(b.step(), Duration::from_millis(1600));
        assert_eq!(b.step(), Duration::from_secs(2));
        assert_eq!(b.step(), Duration::from_secs(2));
        b.reset();
        assert_eq!(b.step(), Duration::from_millis(100));
    }
}
