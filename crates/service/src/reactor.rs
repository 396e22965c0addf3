//! Readiness polling for the sharded nonblocking core.
//!
//! Two [`Reactor`] implementations drive the *same* shard event loop:
//!
//! * [`EpollReactor`] — the production poller over Linux `epoll`, declared
//!   through a thin hand-rolled FFI shim (mirroring the `signal(2)` shim in
//!   `server.rs`; the crate stays free of an async runtime and of `libc`).
//!   Level-triggered, with an `eventfd` wake channel so peer shards and the
//!   acceptor can interrupt a blocked `epoll_wait`.
//! * [`SimReactor`] — a condvar-backed ready set used by the deterministic
//!   fault simulator. In-memory pipes fire a ready hook on every write and
//!   close, which marks the connection's token ready and wakes the shard.
//!
//! Connections are abstracted as [`ShardStream`]: a nonblocking byte stream
//! that either exposes a raw fd (TCP, registered with epoll) or accepts a
//! ready hook (simulator pipes). Because shards always read until
//! `WouldBlock`, the hook's edge-style signalling composes safely with
//! level-triggered epoll semantics: a racing write simply re-marks the
//! token ready.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Token reserved for the reactor's internal wake channel; connection
/// tokens must stay below it.
pub const WAKE_TOKEN: usize = usize::MAX;

/// A nonblocking duplex byte stream owned by one shard.
///
/// `read_nb`/`write_nb` follow `std::io` conventions: `Ok(0)` from a read
/// is end-of-stream, and `ErrorKind::WouldBlock` means "try again after the
/// next readiness event".
pub trait ShardStream: Send {
    /// Nonblocking read into `buf`.
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write from `buf`.
    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// The raw file descriptor, for fd-based reactors. `None` for
    /// in-memory streams.
    fn raw_fd(&self) -> Option<i32> {
        None
    }
    /// Installs a hook fired whenever the stream may have become readable.
    /// Hook-based reactors use this; fd-based reactors ignore it.
    fn set_ready_hook(&mut self, _hook: Arc<dyn Fn() + Send + Sync>) {}
}

/// A cloneable handle that interrupts a reactor blocked in
/// [`Reactor::wait`], usable from any thread.
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    /// Wakes the owning reactor; idempotent and race-free.
    pub fn wake(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// A readiness poller owned by one shard thread.
pub trait Reactor: Send {
    /// Starts watching `stream` under `token` for read readiness.
    fn register(&mut self, token: usize, stream: &mut dyn ShardStream) -> io::Result<()>;
    /// Adds or removes write-readiness interest for a registered stream
    /// (set while the connection has unflushed output).
    fn set_write_interest(
        &mut self,
        token: usize,
        stream: &dyn ShardStream,
        want: bool,
    ) -> io::Result<()>;
    /// Stops watching a registered stream.
    fn deregister(&mut self, token: usize, stream: &dyn ShardStream) -> io::Result<()>;
    /// Blocks until at least one token is ready, the waker fires, or
    /// `timeout` elapses; appends ready tokens (deduplicated) to `ready`.
    fn wait(&mut self, timeout: Duration, ready: &mut Vec<usize>) -> io::Result<()>;
    /// Returns a handle that interrupts [`Reactor::wait`] from any thread.
    fn waker(&self) -> Waker;
}

/// A nonblocking TCP connection served by a shard.
pub struct TcpShardStream {
    stream: TcpStream,
}

impl TcpShardStream {
    /// Wraps an accepted stream, switching it to nonblocking mode and
    /// disabling Nagle (the protocol is request/response lines).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }
}

impl ShardStream for TcpShardStream {
    fn read_nb(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn raw_fd(&self) -> Option<i32> {
        Some(self.stream.as_raw_fd())
    }
}

mod ffi {
    //! Minimal epoll/eventfd bindings, hand-rolled to stay dependency-free
    //! (the repo's idiom: see the `signal` shim in `server.rs`).
    #![allow(non_camel_case_types)]

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    // The kernel ABI packs `epoll_event` on x86-64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32)
            -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// The production poller: level-triggered `epoll` plus an `eventfd` wake
/// channel registered under [`WAKE_TOKEN`].
pub struct EpollReactor {
    epfd: i32,
    /// Shared with every [`Waker`] this reactor hands out, and closed
    /// only when the last of them is gone: a waker fired after its shard
    /// exited (a peer's forward, a second `shutdown`) must not write into
    /// whatever file the kernel has since given the fd number to.
    wake_fd: Arc<OwnedFd>,
    events: Vec<ffi::epoll_event>,
}

// SAFETY: the reactor is owned and polled by a single shard thread; the
// raw epoll fd it holds is a plain integer.
unsafe impl Send for EpollReactor {}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

impl EpollReactor {
    /// Creates the epoll instance and its wake eventfd.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscalls creating new fds; results are checked.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        let raw_wake = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if raw_wake < 0 {
            let err = last_os_error();
            unsafe { ffi::close(epfd) };
            return Err(err);
        }
        // SAFETY: a fresh fd that nothing else owns.
        let wake_fd = Arc::new(unsafe { OwnedFd::from_raw_fd(raw_wake) });
        let mut ev = ffi::epoll_event {
            events: ffi::EPOLLIN,
            data: WAKE_TOKEN as u64,
        };
        // SAFETY: epfd and wake_fd are live fds we just created; `ev` is a
        // valid epoll_event for the duration of the call.
        if unsafe { ffi::epoll_ctl(epfd, ffi::EPOLL_CTL_ADD, raw_wake, &mut ev) } < 0 {
            let err = last_os_error();
            unsafe { ffi::close(epfd) };
            return Err(err);
        }
        Ok(Self {
            epfd,
            wake_fd,
            events: vec![ffi::epoll_event { events: 0, data: 0 }; 64],
        })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: usize) -> io::Result<()> {
        let mut ev = ffi::epoll_event {
            events,
            data: token as u64,
        };
        // SAFETY: `self.epfd` is live for the lifetime of the reactor and
        // `ev` outlives the call.
        if unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            Err(last_os_error())
        } else {
            Ok(())
        }
    }

    fn stream_fd(stream: &dyn ShardStream) -> io::Result<i32> {
        stream.raw_fd().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "EpollReactor requires fd-backed streams",
            )
        })
    }
}

impl Drop for EpollReactor {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd this reactor owns; the wake fd
        // closes with its last owner.
        unsafe {
            ffi::close(self.epfd);
        }
    }
}

impl Reactor for EpollReactor {
    fn register(&mut self, token: usize, stream: &mut dyn ShardStream) -> io::Result<()> {
        let fd = Self::stream_fd(stream)?;
        self.ctl(ffi::EPOLL_CTL_ADD, fd, ffi::EPOLLIN, token)
    }

    fn set_write_interest(
        &mut self,
        token: usize,
        stream: &dyn ShardStream,
        want: bool,
    ) -> io::Result<()> {
        let fd = Self::stream_fd(stream)?;
        let events = if want {
            ffi::EPOLLIN | ffi::EPOLLOUT
        } else {
            ffi::EPOLLIN
        };
        self.ctl(ffi::EPOLL_CTL_MOD, fd, events, token)
    }

    fn deregister(&mut self, _token: usize, stream: &dyn ShardStream) -> io::Result<()> {
        let fd = Self::stream_fd(stream)?;
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&mut self, timeout: Duration, ready: &mut Vec<usize>) -> io::Result<()> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `self.events` stays allocated for the duration of the
        // call and `maxevents` matches its length.
        let n = unsafe {
            ffi::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.events[..n as usize] {
            let token = { ev.data } as usize;
            if token == WAKE_TOKEN {
                // Drain the eventfd counter so the next wait can block.
                let mut buf = [0u8; 8];
                // SAFETY: reading our own nonblocking eventfd into a
                // stack buffer of the required 8 bytes.
                unsafe { ffi::read(self.wake_fd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
            } else if !ready.contains(&token) {
                ready.push(token);
            }
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        let fd = Arc::clone(&self.wake_fd);
        Waker(Arc::new(move || {
            let one = 1u64.to_ne_bytes();
            // SAFETY: writing 8 bytes to an eventfd this closure keeps
            // open; EAGAIN (counter saturated) still leaves the fd
            // readable, so errors are moot.
            unsafe { ffi::write(fd.as_raw_fd(), one.as_ptr(), one.len()) };
        }))
    }
}

#[derive(Default)]
struct SimReadyState {
    ready: BTreeSet<usize>,
    woken: bool,
}

#[derive(Default)]
struct SimShared {
    state: Mutex<SimReadyState>,
    cv: Condvar,
}

/// The simulator poller: a shared ready set fed by pipe write/close hooks.
#[derive(Default)]
pub struct SimReactor {
    shared: Arc<SimShared>,
}

impl SimReactor {
    /// Creates an empty ready set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Reactor for SimReactor {
    fn register(&mut self, token: usize, stream: &mut dyn ShardStream) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        stream.set_ready_hook(Arc::new(move || {
            let mut state = shared.state.lock().unwrap();
            state.ready.insert(token);
            shared.cv.notify_all();
        }));
        // Data may already be buffered from before registration: start
        // the token out ready so the first tick reads it.
        let mut state = self.shared.state.lock().unwrap();
        state.ready.insert(token);
        Ok(())
    }

    fn set_write_interest(
        &mut self,
        token: usize,
        _stream: &dyn ShardStream,
        want: bool,
    ) -> io::Result<()> {
        // Pipe writes never block, but keep the contract honest: wanting
        // write readiness re-marks the token so the next tick retries.
        if want {
            let mut state = self.shared.state.lock().unwrap();
            state.ready.insert(token);
            self.shared.cv.notify_all();
        }
        Ok(())
    }

    fn deregister(&mut self, token: usize, _stream: &dyn ShardStream) -> io::Result<()> {
        let mut state = self.shared.state.lock().unwrap();
        state.ready.remove(&token);
        Ok(())
    }

    fn wait(&mut self, timeout: Duration, ready: &mut Vec<usize>) -> io::Result<()> {
        let mut state = self.shared.state.lock().unwrap();
        if state.ready.is_empty() && !state.woken {
            let (guard, _) = self.shared.cv.wait_timeout(state, timeout).unwrap();
            state = guard;
        }
        state.woken = false;
        for token in std::mem::take(&mut state.ready) {
            if !ready.contains(&token) {
                ready.push(token);
            }
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        let shared = Arc::clone(&self.shared);
        Waker(Arc::new(move || {
            let mut state = shared.state.lock().unwrap();
            state.woken = true;
            shared.cv.notify_all();
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn epoll_sees_readable_data_and_waker_interrupts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut stream = TcpShardStream::new(server).unwrap();

        let mut reactor = EpollReactor::new().unwrap();
        reactor.register(7, &mut stream).unwrap();

        let mut ready = Vec::new();
        reactor.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty(), "no data yet: {ready:?}");

        client.write_all(b"ping\n").unwrap();
        ready.clear();
        reactor
            .wait(Duration::from_millis(500), &mut ready)
            .unwrap();
        assert_eq!(ready, vec![7]);

        let mut buf = [0u8; 16];
        let n = stream.read_nb(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
        assert!(matches!(
            stream.read_nb(&mut buf),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        ));

        // A waker fired from another thread interrupts a blocked wait.
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let start = Instant::now();
        ready.clear();
        reactor.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert!(start.elapsed() < Duration::from_secs(4));
        assert!(ready.is_empty());
        handle.join().unwrap();

        // EOF shows up as readable with a zero-byte read.
        drop(client);
        ready.clear();
        reactor
            .wait(Duration::from_millis(500), &mut ready)
            .unwrap();
        assert_eq!(ready, vec![7]);
        assert_eq!(stream.read_nb(&mut buf).unwrap(), 0);
        reactor.deregister(7, &stream).unwrap();
    }

    #[test]
    fn a_waker_that_outlives_its_reactor_writes_into_no_other_file() {
        let reactor = EpollReactor::new().unwrap();
        let waker = reactor.waker();
        drop(reactor);
        // Fresh sockets take the lowest free fd numbers, which include
        // the dropped reactor's epoll fd.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        waker.wake();
        waker.wake();
        for mut end in [&client, &server] {
            end.set_nonblocking(true).unwrap();
            let mut buf = [0u8; 16];
            let got = end.read(&mut buf);
            assert!(
                matches!(&got, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
                "a stale wake wrote into a live socket: {got:?}"
            );
        }
    }

    #[test]
    fn epoll_write_interest_fires_for_writable_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut stream = TcpShardStream::new(server).unwrap();

        let mut reactor = EpollReactor::new().unwrap();
        reactor.register(3, &mut stream).unwrap();
        reactor.set_write_interest(3, &stream, true).unwrap();
        let mut ready = Vec::new();
        reactor
            .wait(Duration::from_millis(500), &mut ready)
            .unwrap();
        assert_eq!(ready, vec![3], "an idle socket is immediately writable");
        reactor.set_write_interest(3, &stream, false).unwrap();
        ready.clear();
        reactor.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty());
    }

    struct HookStream {
        hook: Option<Arc<dyn Fn() + Send + Sync>>,
    }

    impl ShardStream for HookStream {
        fn read_nb(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
        fn write_nb(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn set_ready_hook(&mut self, hook: Arc<dyn Fn() + Send + Sync>) {
            self.hook = Some(hook);
        }
    }

    #[test]
    fn sim_reactor_ready_set_and_waker() {
        let mut reactor = SimReactor::new();
        let mut stream = HookStream { hook: None };
        reactor.register(11, &mut stream).unwrap();

        // Registration marks the token ready once (pre-buffered data).
        let mut ready = Vec::new();
        reactor.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert_eq!(ready, vec![11]);
        ready.clear();
        reactor.wait(Duration::from_millis(5), &mut ready).unwrap();
        assert!(ready.is_empty());

        // The hook re-marks it from any thread.
        let hook = stream.hook.clone().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            hook();
        });
        reactor.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert_eq!(ready, vec![11]);
        handle.join().unwrap();

        // Waker interrupts without marking any token.
        let waker = reactor.waker();
        waker.wake();
        ready.clear();
        reactor.wait(Duration::from_secs(5), &mut ready).unwrap();
        assert!(ready.is_empty());
    }
}
