//! # xsp-daemon — `xspd`, the resident across-stack profiling service
//!
//! The one-shot `xsp` CLI profiles a model and exits; `xspd` stays
//! resident and absorbs span traffic from many traced processes at once
//! (the ROADMAP's production-scale north star). Each client opens a
//! *session* over a Unix domain socket and streams span batches through a
//! length-prefixed framed protocol ([`protocol`]); the daemon gives every
//! session a bounded resident store that keeps spans in wire order
//! ([`session`]), serves live export requests through the same
//! correlation and writer as `xsp export --from` ([`server`]), and
//! drains every session to its sink on graceful shutdown.
//!
//! Determinism carries over from the rest of the stack: a capture streamed
//! through the daemon and exported live is byte-identical to the same
//! capture exported by the one-shot CLI, at any `XSP_THREADS` setting —
//! the repository's integration tests pin exactly that.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{ClientError, DaemonClient, OpenOptions};
pub use server::{spawn, DaemonConfig, DaemonHandle};
pub use session::{ExportCache, OnFull, Session, SessionStats, DEFAULT_QUOTA};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the process signal handler; [`run_until_signal`] polls it.
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    // Storing one atomic is all an async-signal-safe handler may do; the
    // main loop performs the actual graceful drain.
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain.
///
/// Declared against the platform C library directly — the workspace is
/// offline and vendors no libc crate, and `signal(2)` is the only symbol
/// the daemon needs.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

/// Spawns the daemon and blocks until SIGTERM/SIGINT (or a client
/// `Shutdown` frame) requests a stop, then drains gracefully: every live
/// session is flushed to its sink before the socket file is removed.
///
/// Shared by the `xspd` binary and `xsp serve`.
pub fn run_until_signal(config: DaemonConfig) -> std::io::Result<()> {
    install_signal_handlers();
    let poll = config.poll_interval.max(Duration::from_millis(10));
    let handle = spawn(config)?;
    eprintln!("xspd: listening on {}", handle.socket_path().display());
    while !TERMINATE.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(poll);
    }
    eprintln!("xspd: draining sessions and shutting down");
    handle.shutdown();
    Ok(())
}
