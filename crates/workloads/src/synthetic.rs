//! Parameterised synthetic workloads.
//!
//! The MiBench-substitute kernels pin down realistic profiles; this
//! module complements them with a *dial*: a workload whose write
//! fraction, footprint, and access locality are constructor parameters.
//! The crossover studies (where does pure STT-RAM start losing on
//! dynamic energy? when does the endurance check fire?) sweep these
//! dials, and property tests use them to feed the pipeline arbitrary
//! profiles.

use ftspm_sim::{BlockId, Cpu, Dram, Program, SimError};

use crate::util::{poke_words, random_words, Checksum};
use crate::Workload;

/// Configuration of a [`Synthetic`] workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Fraction of data accesses that are writes (0.0 ..= 1.0).
    pub write_fraction: f64,
    /// Words per data buffer (two buffers are created).
    pub buffer_words: u32,
    /// Total data accesses to perform.
    pub accesses: u32,
    /// Length of sequential runs between jumps (1 = fully scattered).
    pub run_length: u32,
    /// Input seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            write_fraction: 0.2,
            buffer_words: 512,
            accesses: 40_000,
            run_length: 16,
            seed: 0x5EED,
        }
    }
}

/// A deterministic synthetic kernel: a stream of reads/writes over two
/// buffers with configurable write fraction and locality.
#[derive(Debug)]
pub struct Synthetic {
    config: SyntheticConfig,
    program: Program,
    code: BlockId,
    bufs: [BlockId; 2],
    inits: [Vec<u32>; 2],
    expected: u64,
}

impl Synthetic {
    /// Builds a synthetic workload.
    ///
    /// # Panics
    ///
    /// Panics if `write_fraction` is outside `[0, 1]` or sizes are zero.
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.write_fraction),
            "write fraction must be in [0,1]"
        );
        assert!(config.buffer_words > 0 && config.accesses > 0);
        let mut b = Program::builder("synthetic");
        let code = b.code("Kernel", 1024, 32);
        let b0 = b.data("Buf0", config.buffer_words * 4);
        let b1 = b.data("Buf1", config.buffer_words * 4);
        b.stack(512);
        let program = b.build();
        let inits = [
            random_words(config.seed, config.buffer_words as usize),
            random_words(config.seed ^ 0xFF, config.buffer_words as usize),
        ];
        let expected = Self::host_reference(&config, &inits);
        Self {
            config,
            program,
            code,
            bufs: [b0, b1],
            inits,
            expected,
        }
    }

    /// The configuration.
    pub fn config(&self) -> SyntheticConfig {
        self.config
    }

    /// Deterministic access script: for step `i`, which buffer, word, and
    /// whether it is a write. A cheap splitmix-style hash keeps it
    /// reproducible in both the host and simulator paths.
    fn step(config: &SyntheticConfig, i: u32) -> (usize, u32, bool) {
        let run = i / config.run_length;
        let h = (u64::from(run).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ config.seed).rotate_left(17);
        let buf = (h & 1) as usize;
        let base = ((h >> 8) % u64::from(config.buffer_words)) as u32;
        let word = (base + (i % config.run_length)) % config.buffer_words;
        // Writes are decided per access, uniformly from the hash stream.
        let wh = u64::from(i).wrapping_mul(0xD129_0F1E_DCBA_9871) ^ config.seed;
        let is_write = ((wh >> 16) % 10_000) as f64 / 10_000.0 < config.write_fraction;
        (buf, word, is_write)
    }

    fn host_reference(config: &SyntheticConfig, inits: &[Vec<u32>; 2]) -> u64 {
        let mut bufs = inits.clone();
        let mut acc: u32 = 0;
        for i in 0..config.accesses {
            let (b, w, is_write) = Self::step(config, i);
            if is_write {
                bufs[b][w as usize] = acc.wrapping_add(i);
            } else {
                acc = acc.wrapping_add(bufs[b][w as usize]).rotate_left(1);
            }
        }
        let mut c = Checksum::new();
        c.push(acc);
        for buf in &bufs {
            for &v in buf.iter().step_by(64) {
                c.push(v);
            }
        }
        c.value()
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn init(&mut self, dram: &mut Dram) {
        for (block, data) in self.bufs.iter().zip(&self.inits) {
            poke_words(dram, *block, data);
        }
    }

    fn run(&mut self, cpu: &mut Cpu<'_, '_>) -> Result<u64, SimError> {
        let mut acc: u32 = 0;
        cpu.call(self.code)?;
        for i in 0..self.config.accesses {
            let (b, w, is_write) = Self::step(&self.config, i);
            if is_write {
                cpu.write_u32(self.bufs[b], w * 4, acc.wrapping_add(i))?;
            } else {
                acc = acc
                    .wrapping_add(cpu.read_u32(self.bufs[b], w * 4)?)
                    .rotate_left(1);
            }
            cpu.execute(2)?;
        }
        let mut c = Checksum::new();
        c.push(acc);
        for &buf in &self.bufs {
            let mut w = 0;
            while w < self.config.buffer_words {
                c.push(cpu.read_u32(buf, w * 4)?);
                w += 64;
            }
        }
        cpu.ret()?;
        Ok(c.value())
    }

    fn expected_checksum(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_fraction_is_respected_statistically() {
        for wf in [0.0, 0.25, 0.75, 1.0] {
            let cfg = SyntheticConfig {
                write_fraction: wf,
                ..SyntheticConfig::default()
            };
            let writes = (0..cfg.accesses)
                .filter(|&i| Synthetic::step(&cfg, i).2)
                .count() as f64;
            let measured = writes / f64::from(cfg.accesses);
            assert!(
                (measured - wf).abs() < 0.02,
                "target {wf}, measured {measured}"
            );
        }
    }

    #[test]
    fn steps_stay_in_bounds() {
        let cfg = SyntheticConfig::default();
        for i in 0..cfg.accesses {
            let (b, w, _) = Synthetic::step(&cfg, i);
            assert!(b < 2);
            assert!(w < cfg.buffer_words);
        }
    }

    #[test]
    fn seed_changes_the_reference() {
        let a = Synthetic::new(SyntheticConfig {
            seed: 1,
            ..SyntheticConfig::default()
        });
        let b = Synthetic::new(SyntheticConfig {
            seed: 2,
            ..SyntheticConfig::default()
        });
        assert_ne!(a.expected_checksum(), b.expected_checksum());
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn rejects_bad_fraction() {
        let _ = Synthetic::new(SyntheticConfig {
            write_fraction: 1.5,
            ..SyntheticConfig::default()
        });
    }
}
