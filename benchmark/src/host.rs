//! Host stamp and reference kernel: numbers that tell a slow host period
//! apart from a program change. None of them calls program code except
//! the kernel-backend query.

use std::ffi::{c_int, c_long};
use std::hint::black_box;

/// Samples in the reference kernel's input (800 KB of `f32`).
const REF_SAMPLES: usize = 200_000;
/// Taps of the reference kernel's filter.
const REF_TAPS: usize = 41;
/// Passes of the reference kernel per timing.
const REF_PASSES: usize = 6;
/// The reference kernel's CPU time, in ms, on the host that [`adjust`]
/// scales to (about the 2-vCPU x86-64 build host's median).
pub const REFERENCE_MS: f64 = 100.0;

#[repr(C)]
struct TimeSpec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut TimeSpec) -> c_int;
}

fn cpu_clock_s(clock: c_int) -> f64 {
    let mut t = TimeSpec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is an initialised local laid out as the C `struct
    // timespec` and outlives the call; both clock ids are valid on Linux,
    // so the call only writes `t`.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process. Unlike wall
/// time it leaves out time the hypervisor stole and time spent waiting.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// A fixed kernel that calls no program code: a zero-padded 1-D `f32`
/// convolution over an 800 KB buffer into a freshly allocated output,
/// the shape of the litho oracle's row pass. On the shared build host the
/// CPU time of suite builds and of served requests slowed and sped up
/// with it: over 30 s windows, and over separate 50 s processes, the
/// ratio of the two spread 2–4% while either alone spread 6–30%. An
/// integer loop, a memory stream, an L1-resident 2-D blur and a
/// vectorised column pass tracked them less closely.
pub struct Reference {
    input: Vec<f32>,
    taps: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            input: (0..REF_SAMPLES)
                .map(|i| ((i * 7919) % 1000) as f32 * 1e-3)
                .collect(),
            taps: (0..REF_TAPS).map(|i| 1.0 / (1.0 + i as f32)).collect(),
        }
    }
}

impl Reference {
    /// Runs the kernel once on this thread and returns its CPU time in ms.
    pub fn cpu_ms(&self) -> f64 {
        let start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
        let (input, taps) = (&self.input, &self.taps);
        let mut out = vec![0f32; input.len()];
        let r = (taps.len() / 2) as isize;
        let n = input.len() as isize;
        for _ in 0..black_box(REF_PASSES) {
            for x in 0..n {
                let lo = (-r).max(-x);
                let hi = r.min(n - 1 - x);
                let mut acc = 0f32;
                for d in lo..=hi {
                    acc += input[(x + d) as usize] * taps[(d + r) as usize];
                }
                out[x as usize] = acc;
            }
            black_box(&mut out);
        }
        (cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - start) * 1e3
    }
}

/// Scales an operation's CPU seconds to a host on which the reference
/// takes [`REFERENCE_MS`]: `cpu_s` measured next to a reference run of
/// `reference_ms`.
pub fn adjust(cpu_s: f64, reference_ms: f64) -> f64 {
    cpu_s * REFERENCE_MS / reference_ms
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. `None` where the file is absent or unparsable.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time the hypervisor stole between two `/proc/stat`
/// readings (0 when unavailable or no time passed).
fn steal_frac(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The start of a run's host stamp; [`HostStamp::finish`] completes it.
pub struct HostStart {
    reference_ms: f64,
    jiffies: Option<(u64, u64)>,
}

/// The host stamp printed with every run.
pub struct HostStamp {
    pub reference_start_ms: f64,
    pub reference_end_ms: f64,
    pub steal_frac: f64,
    pub nproc: usize,
    pub backend: &'static str,
}

impl HostStart {
    pub fn take() -> Self {
        HostStart {
            reference_ms: Reference::default().cpu_ms(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn finish(self) -> HostStamp {
        let reference_end_ms = Reference::default().cpu_ms();
        HostStamp {
            reference_start_ms: self.reference_ms,
            reference_end_ms,
            steal_frac: steal_frac(self.jiffies, cpu_jiffies()),
            nproc: nproc(),
            backend: hotspot_nn::gemm::kernel_backend().name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjust_scales_to_the_reference_speed() {
        // A host at half the reference speed: 2 s of work is 1 s there.
        assert_eq!(adjust(2.0, 2.0 * REFERENCE_MS), 1.0);
        assert_eq!(adjust(0.5, REFERENCE_MS), 0.5);
    }
}
