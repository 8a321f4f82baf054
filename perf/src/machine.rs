//! What the box is, and its two measured ceilings: sustainable memory
//! bandwidth (a triad over arrays far larger than the caches) and the
//! multiply-add rate out of registers. Both are measured in the same run
//! as the kernels they bound, with as many threads as the kernels use.

use std::hint::black_box;
use std::time::Instant;

/// Facts about the machine stamped on every result.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Sum of the last-level caches, as sysfs reports them.
    pub llc_bytes: usize,
    /// `MemAvailable` when the run started.
    pub mem_available: usize,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn parse_size(text: &str) -> Option<usize> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Sum over the distinct caches of the highest level any CPU reports.
fn llc_bytes() -> Option<usize> {
    let mut caches: Vec<(u32, String, usize)> = Vec::new();
    for cpu in 0..1024 {
        let base = format!("/sys/devices/system/cpu/cpu{cpu}/cache");
        if !std::path::Path::new(&base).exists() {
            break;
        }
        for index in 0..8 {
            let dir = format!("{base}/index{index}");
            let (Some(level), Some(size), Some(shared)) = (
                read(&format!("{dir}/level")).and_then(|s| s.trim().parse::<u32>().ok()),
                read(&format!("{dir}/size")).and_then(|s| parse_size(&s)),
                read(&format!("{dir}/shared_cpu_list")),
            ) else {
                continue;
            };
            if read(&format!("{dir}/type")).is_some_and(|t| t.trim() == "Instruction") {
                continue;
            }
            let key = (level, shared.trim().to_string(), size);
            if !caches.contains(&key) {
                caches.push(key);
            }
        }
    }
    let top = caches.iter().map(|c| c.0).max()?;
    Some(caches.iter().filter(|c| c.0 == top).map(|c| c.2).sum())
}

fn mem_available() -> Option<usize> {
    read("/proc/meminfo")?
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<usize>()
                .ok()
        })
        .map(|kb| kb << 10)
}

impl Machine {
    pub fn probe() -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Unknown cache or memory: assume a common server part, and a
            // box too small to be generous with.
            llc_bytes: llc_bytes().unwrap_or(32 << 20),
            mem_available: mem_available().unwrap_or(2 << 30),
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The commit the benchmark was run from, when the checkout has one.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub struct Triad {
    /// Size of each of the three arrays.
    pub array_bytes: usize,
    /// Best pass, counting the three arrays' bytes once each (computed
    /// traffic: the write-allocate read of the target is not credited).
    pub gb_per_s: f64,
}

/// Largest triad array. First touch of fresh memory costs about 10 s per
/// GiB on the reference microVM (sized: 3 × 1040 MiB took 37 s), and every
/// traced run pays it; 256 MiB is four times a 64 MiB cache, more than any
/// one socket this repo has met really has. A box that *reports* more
/// (the reference VM claims 260 MiB of L3) gets the cap, and the report
/// states both sizes so the reader can tell.
const TRIAD_ARRAY_CAP: usize = 256 << 20;

/// STREAM-style triad `a[i] = b[i] + s·c[i]` over all cores. Each array is
/// four times the last-level caches when memory allows (at most an eighth
/// of what is available goes to each array, and never more than
/// [`TRIAD_ARRAY_CAP`]), so no pass is served from cache; both sizes are
/// reported.
///
/// `quick` (the smoke run) keeps the arrays at 8 MiB: it checks that the
/// measurement runs, not what it reads.
pub fn triad(machine: &Machine, quick: bool) -> Triad {
    let want = if quick { 0 } else { 4 * machine.llc_bytes };
    let array_bytes = want
        .min(machine.mem_available / 8)
        .clamp(8 << 20, TRIAD_ARRAY_CAP);
    let len = array_bytes / 8;
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let threads = machine.nproc;
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let s = 3.0 + pass as f64;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        // The first pass also pays the page faults of `a`.
        if pass > 0 {
            best = best.min(wall);
        }
    }
    black_box(&a);
    Triad {
        array_bytes: len * 8,
        gb_per_s: 3.0 * (len * 8) as f64 / best / 1e9,
    }
}

/// Multiply-add rate out of registers, all cores: eight independent
/// four-wide accumulator chains per thread, so neither latency nor memory
/// limits it. Compiled with the same target features as the kernels, so
/// this is the ceiling *this build* can reach, not the chip's data sheet.
pub fn peak_gflops(threads: usize, quick: bool) -> f64 {
    const CHAINS: usize = 8;
    const LANES: usize = 4;
    let iters: usize = if quick { 200_000 } else { 20_000_000 };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let m = black_box([1.000_000_1f64; LANES]);
                let add = black_box([1e-9f64; LANES]);
                let mut acc = [[t as f64; LANES]; CHAINS];
                for _ in 0..iters {
                    for chain in &mut acc {
                        for l in 0..LANES {
                            chain[l] = chain[l] * m[l] + add[l];
                        }
                    }
                }
                black_box(acc);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (threads * iters * CHAINS * LANES * 2) as f64 / wall / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_their_suffix() {
        assert_eq!(parse_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("1024"), Some(1024));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn the_process_has_a_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
