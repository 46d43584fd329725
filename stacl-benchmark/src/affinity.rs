//! Pin the process to one CPU before a loopback workload spawns its
//! daemons, so client, daemons and their helper threads share a core (as
//! in the E14/E16 single-core runs).
//!
//! On the 2-vCPU KVM guest this benchmark was developed on, a wake-up
//! that crosses vCPUs costs more, and varies more, than the protocol work
//! being measured: left free, `wire-pipelined` ran at 220–290k
//! decisions/s with a 35 µs open-loop median; pinned, at 420–470k with a
//! 12 µs median. The workspace has no `libc`, so the affinity and
//! timer-slack syscalls are issued directly on x86-64 Linux; elsewhere
//! they are skipped.
#![allow(unsafe_code)]

/// Restrict this thread — and every thread it spawns afterwards — to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` when
/// the affinity calls are unavailable or refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    const SYS_SCHED_GETAFFINITY: isize = 204;
    let mut allowed = [0u64; 16];
    let len = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `len` bytes into `allowed`, an
    // exclusively borrowed, live array of exactly `len` bytes; pid 0 is
    // the calling thread.
    let got = unsafe { syscall3(SYS_SCHED_GETAFFINITY, 0, len, allowed.as_mut_ptr() as usize) };
    if got <= 0 {
        return None;
    }
    let (word, bit) = allowed
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| (i, w.trailing_zeros() as usize))?;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: the kernel only reads `len` bytes from `one`, a live array
    // of exactly `len` bytes; pid 0 is the calling thread.
    let set = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, len, one.as_ptr() as usize) };
    (set == 0).then_some(word * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Set this thread's timer slack to 1 ns, so an open-loop generator that
/// sleeps until its next request is due wakes on time instead of up to
/// the default 50 µs late. Best effort: returns whether it took effect.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn tight_timer_slack() -> bool {
    const SYS_PRCTL: isize = 157;
    const PR_SET_TIMERSLACK: usize = 29;
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument and no
    // pointers; the remaining argument is ignored.
    unsafe { syscall3(SYS_PRCTL, PR_SET_TIMERSLACK, 1, 0) == 0 }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn tight_timer_slack() -> bool {
    false
}

/// A raw three-argument Linux syscall; returns the kernel's result
/// (negative errno on failure).
///
/// # Safety
///
/// The arguments must be valid for syscall `n`: any pointer argument must
/// point to memory the kernel may read or write as that call specifies.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(n: isize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the caller upholds the syscall's argument contract; the
    // `syscall` instruction clobbers only rcx and r11, declared here.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}
