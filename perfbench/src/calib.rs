//! CPU time, and the host-speed calibration the gated timings are
//! normalized by.
//!
//! A shared host changes speed under the benchmark: over a few minutes
//! the same computation's CPU time drifted by 15–20% (other tenants on
//! the same physical cores), so two runs of the same code disagreed by
//! more than any allowed bound. A fixed reference computation, owned by
//! the benchmark and untouched by the program under test, is timed
//! between the operations of every run. Its CPU time tracks the host's
//! speed (the ratio of a stream pass to it held within 0.4% while both
//! drifted 17%), so an operation's CPU time scaled by
//! `REF_NOMINAL_US / reference CPU time` is the time it would take on a
//! host where the reference takes [`REF_NOMINAL_US`]. A change in the
//! program moves that figure in full; a change in the host's speed
//! does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;
use std::time::Duration;

/// CPU time this process has used so far, summed over its threads,
/// those that have ended included.
///
/// Unlike wall time it leaves out the time the process waited for a
/// core: other tenants' load, and time the hypervisor stole (the kernel
/// leaves stolen time out of a task's CPU time). The same operation's
/// wall time moved by 30–60% between runs on a shared host for those
/// reasons alone.
pub fn cpu_time() -> Duration {
    clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_time() -> Duration {
    clock(3) // CLOCK_THREAD_CPUTIME_ID
}

fn clock(id: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(id, &mut now) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(now.sec as u64, now.nsec as u32)
}

/// CPU time, in µs, of one reference computation on the nominal host
/// the normalized timings are expressed for.
pub const REF_NOMINAL_US: f64 = 10_000.0;

/// A 64-bit LCG: the reference's inputs must not depend on any crate
/// the program could change.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// Which reference computation a workload's CPU times are normalized
/// by: the one whose CPU time follows the workload's as the host's
/// speed changes. Measured over 40 s while the host drifted: a stream
/// pass's ratio to [`RefKind::Mixed`] varied by 0.4% (to
/// [`RefKind::HeapPoints`] by 8%); a 12.5k-point GMM core-set's ratio to
/// `HeapPoints` by 1.8% (to `Mixed` by 3–10%).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// A farthest-point traversal over contiguous points, merges of
    /// sorted sparse index lists, and hash-map updates.
    Mixed,
    /// A farthest-point traversal to 128 centers over 12.5k 3-D points
    /// that each own a heap allocation, as the dense workloads' points
    /// do.
    HeapPoints,
}

/// The reference computations, over fixed inputs, about 10 ms of CPU
/// each.
struct Reference {
    kind: RefKind,
    points: Vec<[f64; 3]>,
    lists: Vec<Vec<u32>>,
    heap_points: Vec<Vec<f64>>,
}

impl Reference {
    fn new(kind: RefKind) -> Reference {
        let mut rng = Lcg(7);
        let points = (0..8192)
            .map(|_| [rng.unit(), rng.unit(), rng.unit()])
            .collect();
        let lists = (0..512)
            .map(|_| {
                let mut list: Vec<u32> = (0..40).map(|_| (rng.next() % 5000) as u32).collect();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        let heap_points = match kind {
            RefKind::Mixed => Vec::new(),
            RefKind::HeapPoints => (0..12_500)
                .map(|_| vec![rng.unit(), rng.unit(), rng.unit()])
                .collect(),
        };
        Reference {
            kind,
            points,
            lists,
            heap_points,
        }
    }

    /// Runs the computation once; the result only keeps it from being
    /// optimized away.
    fn run(&self) -> f64 {
        match self.kind {
            RefKind::Mixed => self.mixed(),
            RefKind::HeapPoints => self.heap_points(),
        }
    }

    fn heap_points(&self) -> f64 {
        let points = &self.heap_points;
        let mut nearest = vec![f64::INFINITY; points.len()];
        let (mut center, mut radii) = (0, 0.0);
        for _ in 0..128 {
            let c = &points[center];
            let mut farthest = (0, -1.0);
            for (i, p) in points.iter().enumerate() {
                let d: f64 = c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                nearest[i] = nearest[i].min(d);
                if nearest[i] > farthest.1 {
                    farthest = (i, nearest[i]);
                }
            }
            center = farthest.0;
            radii += farthest.1;
        }
        radii
    }

    fn mixed(&self) -> f64 {
        let mut nearest = vec![f64::INFINITY; self.points.len()];
        let (mut center, mut radii) = (0, 0.0);
        for _ in 0..24 {
            let c = self.points[center];
            let mut farthest = (0, -1.0);
            for (i, p) in self.points.iter().enumerate() {
                let d = (c[0] - p[0]).powi(2) + (c[1] - p[1]).powi(2) + (c[2] - p[2]).powi(2);
                nearest[i] = nearest[i].min(d);
                if nearest[i] > farthest.1 {
                    farthest = (i, nearest[i]);
                }
            }
            center = farthest.0;
            radii += farthest.1;
        }
        let mut shared = 0u64;
        for (a, x) in self.lists.iter().enumerate() {
            for y in self.lists[a + 1..].iter().step_by(7) {
                let (mut i, mut j) = (0, 0);
                while i < x.len() && j < y.len() {
                    match x[i].cmp(&y[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            shared += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        // A fixed hasher: a per-process random one moved the
        // reference's cost between processes.
        let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
            HashMap::with_capacity_and_hasher(1 << 14, Default::default());
        let mut rng = Lcg(11);
        for _ in 0..40_000 {
            *counts.entry(rng.next() % 30_000).or_insert(0) += 1;
        }
        radii + shared as f64 + counts.len() as f64
    }
}

/// The reference's CPU times over a run.
pub struct Calibration {
    reference: Reference,
    /// Copies of the reference a sample runs at once: as many as the
    /// threads the workload keeps busy, so that a sample shares the
    /// cores the way the workload's operations do.
    threads: usize,
    samples_us: Mutex<Vec<f64>>,
}

impl Calibration {
    pub fn new(kind: RefKind, threads: usize) -> Calibration {
        Calibration {
            reference: Reference::new(kind),
            threads: threads.max(1),
            samples_us: Mutex::new(Vec::new()),
        }
    }

    /// Times the reference once, on each of `threads` threads at once;
    /// the sample is their mean CPU time. Call it between operations,
    /// never while the workload's own threads run.
    pub fn sample(&self) {
        let c0 = cpu_time();
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(|| std::hint::black_box(self.reference.run()));
            }
            std::hint::black_box(self.reference.run());
        });
        let spent = (cpu_time() - c0).as_secs_f64() * 1e6 / self.threads as f64;
        self.samples_us.lock().expect("not poisoned").push(spent);
    }

    /// Every sample so far, in µs.
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples_us.lock().expect("not poisoned").clone()
    }

    /// What a CPU time measured in this run is multiplied by to express
    /// it for the nominal host: [`REF_NOMINAL_US`] ÷ the median sample.
    pub fn factor(&self) -> f64 {
        REF_NOMINAL_US / crate::stats::median(&self.samples_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        // Other tests run beside this one in the same process, so only
        // a lower bound holds.
        let c0 = cpu_time();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spun = cpu_time() - c0;
        assert!(spun >= Duration::from_millis(30), "spinning used {spun:?}");
        let t0 = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time() - t0;
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?}");
    }

    #[test]
    fn the_reference_is_fixed_and_the_factor_uses_the_median() {
        for kind in [RefKind::Mixed, RefKind::HeapPoints] {
            assert_eq!(
                Reference::new(kind).run().to_bits(),
                Reference::new(kind).run().to_bits()
            );
        }
        let calib = Calibration::new(RefKind::Mixed, 2);
        calib
            .samples_us
            .lock()
            .unwrap()
            .extend([5_000.0, 20_000.0, 9_000.0]);
        assert_eq!(calib.factor(), REF_NOMINAL_US / 9_000.0);
        calib.sample();
        assert_eq!(calib.samples_us().len(), 4);
    }
}
