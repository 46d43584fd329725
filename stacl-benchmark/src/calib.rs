//! Calibration kernels: fixed pieces of work, independent of stacl, timed
//! alongside a workload's rounds so round timings can be scaled to a
//! reference host speed.
//!
//! On the 2-vCPU KVM guest (Xeon, 2.1 GHz) this benchmark was developed
//! on, the host runs in speed regimes that last from seconds to hours:
//! the same fleet round runs at about 0.65M or 1.1M decisions/s, with no
//! steal time, so the median over the rounds of one run still spread by
//! up to 37% (interquartile range over median) across ten runs. What a
//! regime slows is kernel entry: page faults and system calls. A workload
//! is scaled by the kernel that, over ten-seed sets, narrowed its
//! run-to-run spread:
//!
//! - [`allocation`] for `fleet-steady` and `mobility-mix`, which build and
//!   drop megabytes of short-lived heap records per round (throughput
//!   spread 3–15% → 2% and 9–14% → 3–6% over three sets);
//! - [`syscalls`] for `wire-pipelined` and the set-up of
//!   `coalition-churn`, whose work is socket I/O on one shared core
//!   (wire set-up time 26% → 10%, throughput 9% → 4%, p90 latency
//!   24% → 9% over one set);
//! - short [`syscall_trips`] runs taken between decisions for the
//!   `coalition-churn` rounds, whose 5 s length one kernel run after the
//!   round reads poorly (median latency 14% → 4% over ten interleaved
//!   pairs of runs).
//!
//! Also tried, and tracking worse or not at all: an ALU dependency chain,
//! an 8 MB pointer chase, a lock-and-map loop, writes into a resident
//! arena, and a cross-thread socket ping-pong.

use std::hint::black_box;
use std::time::Instant;

/// [`allocation`]'s kernel time on the development host, in seconds.
pub const ALLOCATION_REFERENCE_S: f64 = 0.004;

/// One write-then-read round trip of [`syscall_trips`] on the
/// development host, in seconds.
pub const SYSCALL_TRIP_REFERENCE_S: f64 = 0.8e-6;

/// Build 64 000 heap records of 80 bytes spread over 64 growing vectors,
/// then free them; returns the wall time in seconds.
fn build_and_drop() -> f64 {
    let t = Instant::now();
    let mut shards: Vec<Vec<Box<[u64; 10]>>> = (0..64).map(|_| Vec::new()).collect();
    for i in 0..64_000u64 {
        shards[i as usize % 64].push(Box::new([i; 10]));
    }
    black_box(&shards);
    drop(shards);
    t.elapsed().as_secs_f64()
}

/// The scale factor for an in-process round just finished: the time to
/// build and drop a round's worth of small records (the way a fleet round
/// builds its proof store) over [`ALLOCATION_REFERENCE_S`]. The kernel
/// runs twice and only the second run counts: the first leaves the
/// allocator in a state that depends on the kernel alone, not on the heap
/// the round left behind. Multiply the round's rates by the factor;
/// divide its times by it.
pub fn allocation() -> f64 {
    build_and_drop();
    build_and_drop() / ALLOCATION_REFERENCE_S
}

/// The scale factor for a loopback round just finished: the time of
/// 2 000 write-then-read round trips (see [`syscall_trips`]), three times
/// over, the median counting so one interrupted run does not skew the
/// round. Multiply the round's rates by the factor; divide its times by
/// it.
pub fn syscalls() -> f64 {
    crate::stats::median(&[
        syscall_trips(2_000),
        syscall_trips(2_000),
        syscall_trips(2_000),
    ])
}

/// The time of `trips` write-then-read round trips of 16 bytes over a
/// Unix socket pair, in one thread, over `trips` ×
/// [`SYSCALL_TRIP_REFERENCE_S`]: a syscall scale factor that short runs
/// (tens of round trips) can also sample between a workload's requests.
#[cfg(unix)]
pub fn syscall_trips(trips: usize) -> f64 {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::{Mutex, OnceLock};

    static PAIR: OnceLock<Mutex<(UnixStream, UnixStream)>> = OnceLock::new();
    let pair = PAIR.get_or_init(|| {
        Mutex::new(UnixStream::pair().expect("a process can open a Unix socket pair"))
    });
    let mut pair = pair
        .lock()
        .expect("no kernel run panics while holding the pair");
    let (tx, rx) = &mut *pair;
    let mut buf = [0x5a_u8; 16];
    let t = Instant::now();
    for _ in 0..trips {
        tx.write_all(&buf)
            .expect("a local socket pair accepts 16 bytes");
        rx.read_exact(&mut buf)
            .expect("the 16 bytes just written are readable");
    }
    t.elapsed().as_secs_f64() / (trips as f64 * SYSCALL_TRIP_REFERENCE_S)
}

#[cfg(not(unix))]
pub fn syscall_trips(_trips: usize) -> f64 {
    1.0
}
