//! CPU placement through raw `sched_getaffinity(2)`/`sched_setaffinity(2)`
//! (the workspace vendors no libc crate).

use std::io;

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if r != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`.
pub fn pin_thread(tid: i32, cpu: usize) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    let word = set
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("cpu {cpu} is beyond cpu_set_t")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let r = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Restricts every current thread of process `pid` to `cpu`.
pub fn pin_process(pid: u32, cpu: usize) -> io::Result<()> {
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let name = entry?.file_name();
        let tid = name
            .to_str()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected task entry {name:?}")))?;
        pin_thread(tid, cpu)?;
    }
    Ok(())
}
