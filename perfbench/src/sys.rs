//! Host facts and the run's scratch space.

use std::path::PathBuf;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU time (user + system, all threads) process `pid` has used so far, in
/// seconds, or 0 where `/proc` does not report it. Time the hypervisor
/// stole from the process's virtual CPU is not counted.
#[must_use]
pub fn cpu_s(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name, from field 3
            // (state) on; utime and stime are fields 14 and 15.
            let (_, rest) = stat.rsplit_once(')')?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Cores available to this process.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The directory this run may write to: `.bench_work/<tag>` under the
/// working directory (the checkout root), emptied first.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_work").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and stream `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut again = SplitMix::new(7, 1);
        assert!(a.iter().all(|&v| v == again.next_u64()));
        assert_ne!(SplitMix::new(7, 2).next_u64(), a[0]);
        assert!((0..100).all(|_| again.below(24) < 24));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let me = std::process::id();
        if !std::path::Path::new(&format!("/proc/{me}/stat")).exists() {
            return;
        }
        let before = cpu_s(me);
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = cpu_s(me) - before;
        assert!(used >= 0.05, "{used} s of CPU for a 200 ms busy loop");
        assert_eq!(cpu_s(u32::MAX), 0.0);
    }
}
