//! Shared test support: a generator of random *structured* kernels for
//! property tests, plus the deterministic PRNG driving it.
//!
//! Kernels are built from a segment grammar (ALU chains, memory accesses,
//! pressure spikes, loops, uniform/divergent skips, barriers) under a fixed
//! register discipline: persistent registers live for the whole kernel,
//! temporaries rotate through a small window, and spikes use the indices
//! above it. This mirrors how the workload generators are built, while the
//! seeded PRNG explores the structural space reproducibly (every failure
//! message carries the case seed, so any counterexample replays exactly).

use regmutex_isa::{ArchReg, Kernel, KernelBuilder, TripCount, XorShift};

/// Number of persistent registers (r0..r3).
const PERSISTENT: u16 = 4;
/// Temp window (r4..r5).
const TEMPS: u16 = 2;
/// First spike register.
const SPIKE_LO: u16 = PERSISTENT + TEMPS;

/// A small, fast, deterministic PRNG (the workspace's xorshift64*) for
/// property tests; a fixed seed makes every test run identical.
#[derive(Debug, Clone)]
pub struct Rng(XorShift);

impl Rng {
    /// Seeded generator; distinct seeds give well-separated streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate small seeds.
        Rng(XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fair coin.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// One structural element of a generated kernel.
#[derive(Debug, Clone)]
pub enum Seg {
    /// `n` dependent ALU instructions on persistent registers.
    Alu(u8),
    /// A global load + consume (temp-register landing).
    Load,
    /// A global store of a persistent register.
    Store,
    /// A pressure spike of `n` extra registers.
    Spike(u8),
    /// A loop around a body.
    Loop {
        /// Trip count (1..=4).
        trips: u8,
        /// Loop body.
        body: Vec<Seg>,
    },
    /// A uniform forward skip over a body.
    Skip {
        /// Taken probability in permille.
        permille: u16,
        /// Skipped body.
        body: Vec<Seg>,
    },
    /// A divergent forward skip over a body.
    Diverge {
        /// Per-lane skip probability in permille.
        permille: u16,
        /// Skipped body.
        body: Vec<Seg>,
    },
}

/// Generate one leaf segment.
fn gen_leaf(rng: &mut Rng) -> Seg {
    match rng.below(4) {
        0 => Seg::Alu(rng.range(1, 6) as u8),
        1 => Seg::Load,
        2 => Seg::Store,
        _ => Seg::Spike(rng.range(3, 10) as u8),
    }
}

/// Generate a segment tree of at most `depth` nesting levels, mirroring the
/// old `prop_recursive` strategy: half the draws below the depth limit
/// recurse into a loop/skip/diverge with a 1–3 segment body.
pub fn gen_seg(rng: &mut Rng, depth: u32) -> Seg {
    if depth == 0 || rng.flip() {
        return gen_leaf(rng);
    }
    let body: Vec<Seg> = (0..rng.range(1, 4))
        .map(|_| gen_seg(rng, depth - 1))
        .collect();
    match rng.below(3) {
        0 => Seg::Loop {
            trips: rng.range(1, 4) as u8,
            body,
        },
        1 => Seg::Skip {
            permille: rng.below(1000) as u16,
            body,
        },
        _ => Seg::Diverge {
            permille: rng.range(1, 1000) as u16,
            body,
        },
    }
}

/// Generate a whole kernel: a top-level segment list (with optional barriers
/// between segments) and a per-kernel data seed.
pub fn gen_kernel(rng: &mut Rng) -> Kernel {
    let segs: Vec<(Seg, bool)> = (0..rng.range(1, 6))
        .map(|_| (gen_seg(rng, 2), rng.flip()))
        .collect();
    let seed = rng.next_u64();
    build_kernel(&segs, seed)
}

fn r(i: u16) -> ArchReg {
    ArchReg(i)
}

fn emit(b: &mut KernelBuilder, seg: &Seg, next_temp: &mut u16) {
    match seg {
        Seg::Alu(n) => {
            for i in 0..*n {
                let d = r(u16::from(i) % PERSISTENT);
                b.iadd(d, r(0), r(u16::from(i + 1) % PERSISTENT));
            }
        }
        Seg::Load => {
            let t = r(PERSISTENT + (*next_temp % TEMPS));
            *next_temp += 1;
            b.ld_global(t, r(0));
            b.iadd(r(1), t, r(1));
        }
        Seg::Store => {
            b.st_global(r(0), r(1));
        }
        Seg::Spike(n) => {
            let n = u16::from(*n);
            for i in 0..n {
                b.xor(r(SPIKE_LO + i), r(i % PERSISTENT), r(1));
            }
            let mut i = 0;
            while i + 1 < n {
                b.imad(r(1), r(SPIKE_LO + i), r(SPIKE_LO + i + 1), r(1));
                i += 2;
            }
            if i < n {
                b.iadd(r(1), r(SPIKE_LO + i), r(1));
            }
        }
        Seg::Loop { trips, body } => {
            let top = b.here();
            for s in body {
                emit(b, s, next_temp);
            }
            b.bra_loop(top, TripCount::Fixed(u32::from(*trips)));
        }
        Seg::Skip { permille, body } => {
            let label = b.new_label();
            b.bra_if(label, *permille, Some(r(0)));
            for s in body {
                emit(b, s, next_temp);
            }
            b.place(label);
        }
        Seg::Diverge { permille, body } => {
            let label = b.new_label();
            b.bra_div(label, *permille, Some(r(0)));
            for s in body {
                emit(b, s, next_temp);
            }
            b.place(label);
        }
    }
}

/// Render a segment list into a valid kernel.
pub fn build_kernel(segs: &[(Seg, bool)], seed: u64) -> Kernel {
    let mut b = KernelBuilder::new("prop");
    b.threads_per_cta(64).seed(seed);
    for i in 0..PERSISTENT {
        b.movi(r(i), 0x1000 + u64::from(i));
    }
    let mut next_temp = 0;
    for (seg, barrier_after) in segs {
        emit(&mut b, seg, &mut next_temp);
        // Barriers only at top level, where the warp is converged.
        if *barrier_after {
            b.bar();
        }
    }
    // Make every persistent register observable.
    for i in 0..PERSISTENT {
        b.st_global(r(i), r((i + 1) % PERSISTENT));
    }
    b.exit();
    b.build().expect("generated kernel is structurally valid")
}
