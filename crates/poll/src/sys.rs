//! Raw bindings to the four Linux syscalls the poller needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait` and `eventfd` — declared
//! against the libc that std already links. Every wrapper checks the
//! return value and hands back owned descriptors or counts, so nothing
//! unsafe leaves this module.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};

// Flag values are the asm-generic ones (`O_CLOEXEC`, `O_NONBLOCK`),
// shared by every architecture `lib.rs` admits.
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
pub(crate) const EPOLL_CTL_MOD: i32 = 3;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. The kernel declares it packed on x86_64 only
/// (a 12-byte record); everywhere else it has natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    pub(crate) fn data(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A fresh close-on-exec epoll instance.
pub(crate) fn epoll() -> io::Result<OwnedFd> {
    // SAFETY: the call takes no pointers.
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: a non-negative return is a new descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// A fresh nonblocking, close-on-exec eventfd with counter 0.
pub(crate) fn event_fd() -> io::Result<OwnedFd> {
    // SAFETY: the call takes no pointers.
    let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    // SAFETY: a non-negative return is a new descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// `epoll_ctl(epfd, op, fd, {events, data})`.
pub(crate) fn ctl(
    epfd: BorrowedFd<'_>,
    op: i32,
    fd: BorrowedFd<'_>,
    events: u32,
    data: u64,
) -> io::Result<()> {
    let mut event = EpollEvent { events, data };
    // SAFETY: both descriptors are borrowed, so open for the call, and
    // `event` is a live `epoll_event` the kernel only reads.
    cvt(unsafe { epoll_ctl(epfd.as_raw_fd(), op, fd.as_raw_fd(), &mut event) }).map(drop)
}

/// `epoll_wait` into `buf`; returns how many leading entries it filled.
pub(crate) fn wait(
    epfd: BorrowedFd<'_>,
    buf: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    let max = buf.len().min(i32::MAX as usize) as i32;
    // SAFETY: the kernel writes at most `max` records into `buf`, which
    // holds at least that many.
    let n = cvt(unsafe { epoll_wait(epfd.as_raw_fd(), buf.as_mut_ptr(), max, timeout_ms) })?;
    Ok(n as usize)
}
