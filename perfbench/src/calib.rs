//! The simulator calibration stream: a fixed, seeded sequence of public
//! `Cpu` calls, timed alone, giving the host cost of one simulated load run,
//! branch and code-block invocation. Its seed is a constant, so every
//! workload and seed times the same stream.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_sim::{BranchSite, CodeBlock, Cpu, CpuConfig, InterruptCfg, MemDep};

use crate::stats::median;

const SEED: u64 = 0xCA11_B0A7;
const LOADS: usize = 40_000;
const BRANCHES: usize = 200_000;
const BLOCKS: usize = 20_000;
const REPEATS: usize = 5;

/// Host ns per `Cpu::load_run`, `Cpu::branch` and `Cpu::exec_block` call,
/// each the median of [`REPEATS`] timings of its stream on a fresh core.
pub struct Calibration {
    pub ns_per_load: f64,
    pub ns_per_branch: f64,
    pub ns_per_block: f64,
}

fn cpu() -> Cpu {
    Cpu::new(CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()))
}

fn time_ns(n: usize, stream: impl Fn(&mut Cpu)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut cpu = cpu();
            let t = Instant::now();
            stream(&mut cpu);
            std::hint::black_box(cpu.cycles());
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Runs the three streams.
pub fn run() -> Calibration {
    let mut rng = StdRng::seed_from_u64(SEED);
    // Loads: 32..512-byte runs at random offsets in 8 MB, a mix of L1, L2
    // and memory hits.
    let loads: Vec<(u64, u32)> = (0..LOADS)
        .map(|_| {
            let addr = 0x1000_0000 + rng.random_range(0..8u64 << 20);
            (addr, rng.random_range(32..512u32))
        })
        .collect();
    // Branches: 64 sites, each with its own taken probability.
    let branches: Vec<(BranchSite, bool)> = (0..BRANCHES)
        .map(|_| {
            let site = rng.random_range(0..64u64);
            let bias = site as f64 / 64.0;
            let taken = rng.random_range(0..1000u32) < (bias * 1000.0) as u32;
            let s = BranchSite {
                addr: 0x0040_0000 + site * 24,
                backward: site % 2 == 0,
            };
            (s, taken)
        })
        .collect();
    // Blocks: 16 code blocks of 256 B..2 KB paths, invoked in random order.
    let blocks: Vec<CodeBlock> = (0..16u64)
        .map(|i| {
            CodeBlock::builder("calibration", 256 << (i % 4))
                .private(0x2000_0000 + i * 0x1_0000, 2048)
                .at(0x0080_0000 + i * 0x4_0000)
        })
        .collect();
    let order: Vec<usize> = (0..BLOCKS).map(|_| rng.random_range(0..16usize)).collect();

    Calibration {
        ns_per_load: time_ns(LOADS, |cpu| {
            for &(addr, len) in &loads {
                cpu.load_run(addr, len, MemDep::Demand);
            }
        }),
        ns_per_branch: time_ns(BRANCHES, |cpu| {
            for &(site, taken) in &branches {
                cpu.branch(site, taken);
            }
        }),
        ns_per_block: time_ns(BLOCKS, |cpu| {
            for &i in &order {
                cpu.exec_block(&blocks[i]);
            }
        }),
    }
}
