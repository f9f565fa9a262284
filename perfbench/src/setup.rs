//! Set-up shared by every workload: the fitted model, its file in a
//! private temp dir, and facts about the host recorded beside the numbers.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use ceer_core::{Ceer, CeerModel, FitConfig};

use crate::speed;

/// The seed `ceer fit --seed` would be given: fixed, so every run serves
/// the same model and only the request streams vary with `--seed`.
pub const FIT_SEED: u64 = 7;

/// A directory under the benchmark's own `.tmp/` that is removed when
/// dropped, so a run leaves nothing behind in the checkout.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory for this process.
    ///
    /// # Errors
    ///
    /// Errors when the directory cannot be created.
    pub fn new() -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".tmp");
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = root.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `.tmp/` behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The model every server in a run serves, and the file it was loaded from.
pub struct Fitted {
    /// The fitted model.
    pub model: CeerModel,
    /// The model file (JSON, as `ceer fit --out` writes it).
    pub path: PathBuf,
    /// Wall time of `Ceer::fit`, µs.
    pub fit_us: f64,
}

/// Fits the default model and writes it to `dir/model.json`.
///
/// # Errors
///
/// Errors when the file cannot be written.
pub fn fit_model(dir: &Path) -> Result<Fitted, String> {
    let started = Instant::now();
    let model = Ceer::fit(&FitConfig { seed: FIT_SEED, ..FitConfig::default() });
    let fit_us = started.elapsed().as_secs_f64() * 1e6;
    let json = serde_json::to_string(&model).map_err(|e| format!("model serializes: {e}"))?;
    let path = dir.join("model.json");
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Fitted { model, path, fit_us })
}

/// Probe readings on each side of a set-up: one reading is a single
/// instant of a host that flips between modes several times a second.
const SETUP_PROBES: usize = 4;

/// Runs `build` `times` times and returns the median wall time in seconds
/// with the last result; earlier results are dropped (shut down) at once.
/// Each wall time is stated at the host's reference speed (see
/// [`crate::speed`]) by the mean of [`SETUP_PROBES`] probe readings taken
/// just before and as many just after it.
pub fn repeated<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let readings = || (0..SETUP_PROBES).map(|_| speed::probe_us()).sum::<f64>();
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let before = readings();
        let started = Instant::now();
        let built = build()?;
        let wall = started.elapsed().as_secs_f64();
        let slowness = speed::slowness_of((before + readings()) / (2 * SETUP_PROBES) as f64);
        walls.push(wall / slowness);
        last = Some(built);
    }
    let built = last.ok_or("set-up ran zero times")?;
    Ok((crate::stats::median(&walls), built))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set to its current one, so that
/// [`peak_rss_mib`] then reads the peak since the reset (Linux: `5` written
/// to `/proc/self/clear_refs`). Returns the peak before the reset, MiB.
///
/// # Errors
///
/// Errors when the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<f64, String> {
    let before = peak_rss_mib();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))?;
    Ok(before)
}

/// A `sched_setaffinity` CPU mask (room for 1024 CPUs).
type CpuSet = [u64; 16];

/// The calling thread's CPU mask before [`pin_to_one_cpu`] first ran.
static UNPINNED: OnceLock<CpuSet> = OnceLock::new();

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: pid 0 names the calling thread, and `mask` is a live array
    // whose size is passed as the set size, so the kernel reads exactly it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// The mask of `mask`'s lowest CPU, or `None` for an empty mask.
fn lowest(mask: &CpuSet) -> Option<CpuSet> {
    let word = mask.iter().position(|w| *w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

/// Confines the calling thread, and every thread it starts from then on,
/// to the lowest CPU it may run on (Linux `sched_setaffinity`).
///
/// # Errors
///
/// Errors when the kernel refuses to read or set the mask.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut before: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and the kernel writes at most
    // the set size passed into the live array `before`.
    let read =
        unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), before.as_mut_ptr()) == 0 };
    let one = lowest(&before).filter(|_| read).ok_or("cannot read the CPU mask")?;
    UNPINNED.get_or_init(|| before);
    if set_affinity(&one) {
        Ok(())
    } else {
        Err("cannot confine the benchmark to one CPU".to_string())
    }
}

/// Runs `f` on the calling thread with the CPU mask it had before
/// [`pin_to_one_cpu`], so threads `f` starts use every CPU, then pins the
/// thread again. The answer checks run this way: they are not measured.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    let Some(before) = UNPINNED.get() else { return f() };
    set_affinity(before);
    let out = f();
    if let Some(one) = lowest(before) {
        set_affinity(&one);
    }
    out
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
