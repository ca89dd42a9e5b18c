//! # snorkel-poll
//!
//! Readiness notification for the labeling server's socket loops: a
//! level-triggered `epoll` instance ([`Poller`]) and an `eventfd`
//! [`Waker`] that another thread uses to end a [`Poller::wait`] early.
//!
//! A thread that owns a set of nonblocking sockets registers each with
//! the [`Interest`] it currently has — read while it still expects
//! bytes, write only while it holds output the socket would not take —
//! and parks in [`Poller::wait`] when a pass over them moved nothing. It
//! wakes when a socket becomes ready, when the timeout passes, or when
//! some other thread calls [`Waker::wake`] (new work handed over, a
//! record to push, shutdown). So an idle loop costs no CPU, and a
//! request that lands on an idle connection is served at once.
//!
//! Registrations are level-triggered: a socket is reported on every
//! wait for as long as it stays ready, so a caller that stops reading
//! early (a per-pass budget) loses nothing. An fd is dropped from the
//! set when it is closed, so a caller need not [`Poller::delete`] a
//! socket it is about to drop.
//!
//! Linux only. The crate's one unsafe module, `sys`, holds the raw
//! syscall bindings; everything here is safe code over it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
compile_error!("snorkel-poll needs Linux epoll and eventfd on an asm-generic flag layout");

#[allow(unsafe_code)]
mod sys;

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, OwnedFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The token the poller's own waker is registered under; callers may
/// not use it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Raw records fetched per `epoll_wait`. Level triggering re-reports
/// anything past this on the next wait.
const EVENTS_PER_WAIT: usize = 64;

/// Which readiness a registration asks to be told about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Readable, including a peer's half-close (EOF) or reset.
    pub read: bool,
    /// Writable: the socket's send buffer has room.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Neither: the fd stays registered, but only errors and full
    /// hang-ups (which the kernel always reports) wake the poller.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.read {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One ready registration, as reported by [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// A read will not block (it may return data, EOF or an error).
    pub readable: bool,
    /// A write will not block.
    pub writable: bool,
    /// The peer closed its side, or the socket is in error.
    pub closed: bool,
}

/// A level-triggered epoll set with a built-in [`Waker`].
pub struct Poller {
    epoll: OwnedFd,
    wake: Waker,
    raw: Vec<sys::EpollEvent>,
    events: Vec<Event>,
}

impl Poller {
    /// A new, empty poller (its waker already registered).
    pub fn new() -> io::Result<Poller> {
        let epoll = sys::epoll()?;
        let wake = Waker(Arc::new(File::from(sys::event_fd()?)));
        sys::ctl(
            epoll.as_fd(),
            sys::EPOLL_CTL_ADD,
            wake.0.as_fd(),
            sys::EPOLLIN,
            WAKE_TOKEN,
        )?;
        Ok(Poller {
            epoll,
            wake,
            raw: vec![sys::EpollEvent::default(); EVENTS_PER_WAIT],
            events: Vec::with_capacity(EVENTS_PER_WAIT),
        })
    }

    /// A handle that ends this poller's current or next [`Self::wait`]
    /// from any thread.
    pub fn waker(&self) -> Waker {
        self.wake.clone()
    }

    /// Watch `fd` for `interest`, reporting it under `token`.
    pub fn add(&self, fd: impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change a registered fd's token and interest.
    pub fn modify(&self, fd: impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd` (closing it does the same).
    pub fn delete(&self, fd: impl AsFd) -> io::Result<()> {
        sys::ctl(self.epoll.as_fd(), sys::EPOLL_CTL_DEL, fd.as_fd(), 0, 0)
    }

    fn ctl(&self, op: i32, fd: impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the poller's waker",
            ));
        }
        sys::ctl(self.epoll.as_fd(), op, fd.as_fd(), interest.bits(), token)
    }

    /// Block until a registered fd is ready, `timeout` passes (`None`
    /// waits indefinitely), or the waker fires; return the ready fds.
    /// A wake is consumed here and is not itself reported, so an empty
    /// result means "woken or timed out". A signal interrupting the
    /// wait resumes it for the remaining time.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[Event]> {
        // A timeout past the end of the clock is no timeout.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let n = loop {
            let timeout_ms = match deadline {
                None => -1,
                Some(at) => ceil_millis(at.saturating_duration_since(Instant::now())),
            };
            match sys::wait(self.epoll.as_fd(), &mut self.raw, timeout_ms) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                result => break result?,
            }
        };
        self.events.clear();
        for raw in &self.raw[..n] {
            let (bits, token) = (raw.events(), raw.data());
            if token == WAKE_TOKEN {
                // Reset the counter; a racing wake that makes it
                // nonzero again just ends the next wait at once.
                let _ = (&*self.wake.0).read(&mut [0u8; 8]);
                continue;
            }
            self.events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(&self.events)
    }
}

/// `epoll_wait`'s timeout: whole milliseconds, rounded up so a wait
/// never ends before its deadline and then spins on a zero timeout.
fn ceil_millis(d: Duration) -> i32 {
    let ms = d.as_nanos().div_ceil(1_000_000);
    ms.min(i32::MAX as u128) as i32
}

/// Ends a [`Poller::wait`] from another thread. Cheap to clone; a wake
/// with no thread waiting is remembered until the next wait.
#[derive(Clone)]
pub struct Waker(Arc<File>);

impl Waker {
    /// Wake the poller. Never blocks and never fails: should the
    /// eventfd counter be saturated, a wake is already pending.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&1u64.to_ne_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected loopback pair: (client, server side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn a_wake_before_wait_returns_at_once() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        waker.wake();
        waker.wake();
        let start = Instant::now();
        assert!(poller
            .wait(Some(Duration::from_secs(10)))
            .unwrap()
            .is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
        // Both wakes were consumed by that one wait.
        assert!(poller
            .wait(Some(Duration::from_millis(20)))
            .unwrap()
            .is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        assert!(poller.wait(None).unwrap().is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
    }

    #[test]
    fn readable_and_writable_sockets_are_reported_with_their_tokens() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller.add(&server, 1, Interest::READ).unwrap();
        let write = Interest {
            read: false,
            write: true,
        };
        poller.add(&client, 2, write).unwrap();
        // Nothing sent yet: only the client's send buffer is ready.
        let events = poller.wait(Some(Duration::from_secs(5))).unwrap().to_vec();
        assert_eq!(events.len(), 1);
        assert!(events[0].token == 2 && events[0].writable && !events[0].readable);

        client.write_all(b"ping").unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        while events.len() < 2 && start.elapsed() < Duration::from_secs(5) {
            events = poller.wait(Some(Duration::from_secs(5))).unwrap().to_vec();
        }
        events.sort_by_key(|e| e.token);
        assert!(events[0].token == 1 && events[0].readable && !events[0].closed);
        assert!(events[1].token == 2 && events[1].writable);

        // Level-triggered: unread bytes are reported again; dropping
        // the interest silences them.
        let again = poller.wait(Some(Duration::from_secs(5))).unwrap();
        assert!(again.iter().any(|e| e.token == 1 && e.readable));
        poller.modify(&server, 1, Interest::NONE).unwrap();
        poller.delete(&client).unwrap();
        assert!(poller
            .wait(Some(Duration::from_millis(20)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_peer_close_is_reported() {
        let mut poller = Poller::new().unwrap();
        let (client, server) = pair();
        poller.add(&server, 7, Interest::READ).unwrap();
        drop(client);
        let events = poller.wait(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].token == 7 && events[0].readable && events[0].closed);
    }

    #[test]
    fn a_timeout_returns_no_events() {
        let mut poller = Poller::new().unwrap();
        let (_client, server) = pair();
        poller.add(&server, 1, Interest::READ).unwrap();
        let start = Instant::now();
        assert!(poller
            .wait(Some(Duration::from_millis(30)))
            .unwrap()
            .is_empty());
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(poller.wait(Some(Duration::ZERO)).unwrap().is_empty());
    }

    #[test]
    fn a_closed_fd_is_no_longer_reported() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller.add(&server, 3, Interest::READ).unwrap();
        client.write_all(b"unread").unwrap();
        assert!(!poller
            .wait(Some(Duration::from_secs(5)))
            .unwrap()
            .is_empty());
        drop(server);
        assert!(poller
            .wait(Some(Duration::from_millis(20)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn the_waker_token_is_reserved() {
        let poller = Poller::new().unwrap();
        let (_client, server) = pair();
        let err = poller.add(&server, u64::MAX, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(ceil_millis(Duration::ZERO), 0);
        assert_eq!(ceil_millis(Duration::from_micros(1)), 1);
        assert_eq!(ceil_millis(Duration::from_millis(200)), 200);
        assert_eq!(ceil_millis(Duration::from_secs(u64::MAX)), i32::MAX);
    }
}
