//! CPU placement. Left to itself the scheduler sometimes stacks the
//! generator and a one-loop node on one core (wake-affine), sometimes
//! not, and a request's round trip differs 3-4× between the two — a
//! bimodal benchmark. So a one-loop node gets one CPU to itself, and
//! everything the benchmark runs — the generator, the origin's threads,
//! the store writer — shares the other: the node's numbers are then the
//! node's alone. (Origin and writer threads left to float mostly land on
//! the node's CPU, which is idle more often, and `push-refetch`'s `p50_us`
//! then flips between 31 and 37 µs from second to second; confined, it
//! repeats within 0.3 %.) A two-loop node needs both CPUs, so beside it
//! everything floats.
//!
//! The FFI surface is the two affinity calls of the libc every Rust binary
//! already links (the repo's `minipoll` does the same for `poll(2)`).

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Where the threads of a run go.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Every CPU this process may use.
    all: CpuSet,
    /// One CPU for a one-loop node, another for the generator; `None`
    /// with fewer than two CPUs (then nothing is pinned).
    pair: Option<(usize, usize)>,
}

impl Placement {
    /// Read the CPUs this process was given.
    pub fn detect() -> Placement {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a live, writable, correctly sized cpu_set_t;
        // pid 0 names the calling thread; the kernel writes at most
        // `size_of::<CpuSet>()` bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) };
        if rc != 0 {
            return Placement { all: [0; 16], pair: None };
        }
        let mut cpus = (0..1024).filter(|&c| all[c / 64] >> (c % 64) & 1 == 1);
        let pair = cpus.next().zip(cpus.next());
        Placement { all, pair }
    }

    fn apply(&self, set: &CpuSet) {
        if self.pair.is_some() {
            // SAFETY: `set` is a live, correctly sized cpu_set_t, only read
            // by the kernel; pid 0 names the calling thread. A refusal
            // leaves the thread where it was, which is harmless.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
        }
    }

    fn one(cpu: usize) -> CpuSet {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    /// Let the calling thread (and threads or processes it starts) run anywhere.
    fn float(&self) {
        self.apply(&self.all);
    }

    /// Confine the calling thread to the node's CPU, so that a child
    /// spawned now inherits it. A node with several loops floats.
    pub fn as_node(&self, event_loops: usize) {
        match self.pair {
            Some((node, _)) if event_loops == 1 => self.apply(&Self::one(node)),
            _ => self.float(),
        }
    }

    /// Confine the calling thread — and the threads it starts — to the
    /// benchmark's own CPU (beside a one-loop node; beside a wider node
    /// it floats too).
    pub fn as_generator(&self, event_loops: usize) {
        match self.pair {
            Some((_, gen)) if event_loops == 1 => self.apply(&Self::one(gen)),
            _ => self.float(),
        }
    }

    /// CPUs this process may use.
    pub fn cpus(&self) -> u32 {
        self.all.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_round_trips() {
        let p = Placement::detect();
        assert!(p.cpus() >= 1);
        p.as_node(1);
        if let Some((node, gen)) = p.pair {
            assert_ne!(node, gen);
            assert_eq!(Placement::detect().cpus(), 1, "confined to the node's CPU");
        }
        p.float();
        assert_eq!(Placement::detect().cpus(), p.cpus());
    }
}
