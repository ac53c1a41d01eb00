//! Host-side facts: process CPU time, peak resident memory, CPU
//! placement, the host fingerprint recorded beside every result, and a
//! fixed pure-CPU calibration loop so numbers from different hosts can be
//! normalised.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// `struct rusage` as laid out by glibc/musl on 64-bit Linux.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by every thread of this process so
/// far, finished threads included.
pub fn process_cpu_s() -> f64 {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(ru.utime) + tv(ru.stime)
}

/// The CPUs this process may run on, as found at first call.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..1024)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

fn set_affinity(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Run the calling thread, and every thread it spawns from now on, on the
/// `k`-th allowed CPU only (wrapping).
pub fn pin_thread(k: usize) {
    let cpus = allowed_cpus();
    set_affinity(&[cpus[k % cpus.len()]]);
}

/// Undo [`pin_thread`]: every allowed CPU again.
pub fn unpin_thread() {
    set_affinity(allowed_cpus());
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Milliseconds one fixed xorshift/multiply loop of 2^24 steps takes:
/// the median of five timings. Pure integer work with no memory traffic,
/// so its ratio between two hosts normalises their single-core speed.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            let mut acc = 0u64;
            for _ in 0..1u32 << 24 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}

/// The host fingerprint as one JSON object: core count, architecture,
/// compiler, build profile and the calibration time.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpus\": {:?}, \"arch\": \"{}\", \"os\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"calibration_ms\": {}}}",
        allowed_cpus(),
        std::env::consts::ARCH,
        std::env::consts::OS,
        env!("HOSTCOST_RUSTC"),
        env!("HOSTCOST_PROFILE"),
        calibration_ms(),
    )
}
