//! What the benchmark reads about its own process and the host: CPU
//! time, heap in use, steal time and the core count.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// glibc's `struct mallinfo2`: ten `size_t` counters.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallinfo2() -> MallInfo2;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, in ns.
/// Cost drift is priced in CPU time so that it means the same in an open
/// loop, where wall time per element is set by the schedule.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // x86_64/aarch64 Linux (two 64-bit fields), and the clock id is a
    // constant the kernel accepts for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Bytes the process's heap has handed out and not taken back, over
/// every allocator arena: small and large chunks in use plus mmapped
/// blocks. Unlike RSS it does not count memory the allocator keeps
/// free, which on a multi-threaded run depends on how threads met the
/// arenas rather than on what the program holds.
pub fn heap_in_use() -> u64 {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct
    // by value; glibc (2.33 and later) locks each arena while summing.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as u64
}

/// Peak heap in use above a baseline, sampled now and then and kept per
/// round.
///
/// `mallinfo2` walks every free chunk of every arena with the arena
/// locked; on a fragmented heap one call takes milliseconds and stalls
/// the program's allocating threads. So the wait between two samples is
/// at least [`HeapPeak::EVERY`] and at least [`HeapPeak::COST_SHARE`]
/// times what the last sample took, which keeps sampling below 1 % of
/// the run whatever the heap's shape.
pub struct HeapPeak {
    baseline: u64,
    peak: u64,
    next: Instant,
}

impl HeapPeak {
    const EVERY: Duration = Duration::from_millis(20);
    const COST_SHARE: u32 = 100;

    /// Takes the baseline now.
    pub fn new() -> HeapPeak {
        let baseline = heap_in_use();
        HeapPeak {
            baseline,
            peak: baseline,
            next: Instant::now() + HeapPeak::EVERY,
        }
    }

    /// Ends a round: returns its peak growth in MB and starts the next.
    pub fn end_round(&mut self) -> f64 {
        self.sample();
        let growth = self.peak.saturating_sub(self.baseline) as f64 / 1e6;
        self.peak = self.baseline;
        growth
    }

    /// Samples the heap if the wait since the last sample is over.
    #[inline]
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.sample();
        }
    }

    pub fn sample(&mut self) {
        let t = Instant::now();
        self.peak = self.peak.max(heap_in_use());
        let done = Instant::now();
        self.next = done + HeapPeak::EVERY.max((done - t) * HeapPeak::COST_SHARE);
    }
}

/// Host-wide CPU steal time so far, in ms (the `steal` column of the
/// `cpu` line of `/proc/stat`, in 10 ms ticks).
pub fn steal_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
