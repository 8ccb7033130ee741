//! N-core machine: private MESI L1s over the shared hybrid SPM/DRAM.
//!
//! [`MultiMachine`] extends the single-core [`Machine`] to N hardware
//! threads without forking any of its device, fault, or placement logic:
//!
//! * **One shared backend.** There is exactly one `Machine` — one DRAM,
//!   one set of SPM regions, one fault subsystem, one placement map. The
//!   scratchpad side of the hierarchy is shared by construction, so a
//!   strike in a shared SPM block, a quarantine, or a demotion remap is
//!   observed by every core atomically (there is no per-core copy that
//!   could go stale).
//! * **Private L1s, MESI-coherent.** Each core owns an `(icache,
//!   dcache)` pair. The active core's pair sits in the machine's own
//!   cache slots; the rest are parked inside the machine's coherence
//!   hub, which snoops them on every off-chip access (remote write →
//!   invalidate, remote read → downgrade + dirty flush). See
//!   [`crate::CoherenceState`].
//! * **Deterministic by construction.** The multi-core simulation is
//!   *sequential*: cores interleave bounded steps under a scheduler that
//!   is a pure function of simulation state (see
//!   `ftspm-workloads::multicore::run_lockstep`), so a run is bit-for-bit
//!   identical at any `FTSPM_THREADS` — host threads only ever shard
//!   independent configurations, never one machine.
//!
//! A 1-core `MultiMachine` executes the exact same code path as a plain
//! `Machine` plus provably-inert hub hooks (every snoop loop iterates
//! zero parked caches), which the `multicore_differential` battery pins
//! byte-for-byte.

use crate::observer::Observer;
use crate::{
    Cache, CoherenceState, CoherenceStats, CoreFaultView, Cpu, CpuState, Machine, MachineConfig,
    MachineStats, PlacementMap, Program, SimError,
};

/// Cap on the core count: the obs registry exports per-core counters
/// under static names, and real embedded SPM SoCs are small.
pub const MAX_CORES: usize = 8;

/// An N-core machine: per-core CPUs with private coherent L1s over one
/// shared [`Machine`] backend.
#[derive(Debug)]
pub struct MultiMachine {
    machine: Machine,
    cpu_states: Vec<CpuState>,
    cores: usize,
}

impl MultiMachine {
    /// Builds an N-core machine for `program` under `placement`.
    ///
    /// Each core's stack pointer starts at `core * (stack_bytes / cores)`
    /// so the cores partition the program's single stack block into
    /// disjoint slices.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::new`] errors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cores <= MAX_CORES`.
    pub fn new(
        config: MachineConfig,
        program: Program,
        placement: PlacementMap,
        cores: usize,
    ) -> Result<Self, SimError> {
        assert!(
            (1..=MAX_CORES).contains(&cores),
            "cores must be 1..={MAX_CORES}, got {cores}"
        );
        let mut machine = Machine::new(config, program, placement)?;
        machine.attach_coherence(cores);
        let stack_bytes = machine
            .program()
            .stack_block()
            .map_or(0, |b| machine.program().block(b).size_bytes());
        let slice = stack_bytes / cores as u32;
        let cpu_states = (0..cores)
            .map(|c| CpuState::with_stack_base(c as u32 * slice))
            .collect();
        Ok(Self {
            machine,
            cpu_states,
            cores,
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The shared backend machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable backend access (e.g. to initialise workload inputs in
    /// DRAM before running).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Runs `f` with a [`Cpu`] executing as `core`: swaps the core's
    /// caches into the machine, restores its call stack and stack
    /// pointer, and parks both again afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn with_core<R>(
        &mut self,
        core: usize,
        observer: &mut dyn Observer,
        f: impl FnOnce(&mut Cpu<'_, '_>) -> R,
    ) -> R {
        assert!(core < self.cores, "core {core} out of range");
        self.machine.set_active_core(core);
        let mut cpu = Cpu::new(&mut self.machine, observer);
        cpu.swap_state(&mut self.cpu_states[core]);
        let out = f(&mut cpu);
        cpu.swap_state(&mut self.cpu_states[core]);
        out
    }

    /// `core`'s `(icache, dcache)` pair, whether live or parked — the
    /// litmus suite probes line states across cores through this.
    pub fn core_caches(&self, core: usize) -> (&Cache, &Cache) {
        self.machine.core_caches(core)
    }

    /// MESI state of the data-cache line holding `addr` on `core`.
    pub fn dcache_state(&self, core: usize, addr: u32) -> CoherenceState {
        self.machine.core_caches(core).1.probe_state(addr)
    }

    /// Bus-level coherence counters.
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.machine
            .coherence_stats()
            .expect("MultiMachine always has a hub")
    }

    /// Per-core fault observation views, indexed by core.
    pub fn core_fault_views(&self) -> &[CoreFaultView] {
        self.machine.core_fault_views()
    }

    /// Finishes the shared machine (writebacks + leakage) and returns
    /// its statistics. Idempotent.
    pub fn finish(&mut self, observer: &mut dyn Observer) -> MachineStats {
        self.machine.finish(observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::{CacheConfig, DramConfig, SpmRegionSpec};
    use ftspm_ecc::ProtectionScheme;
    use ftspm_mem::{Clock, RegionGeometry, Technology};

    fn tiny_setup() -> (MachineConfig, Program, PlacementMap) {
        let mut b = Program::builder("multi-tiny");
        let code = b.code("code", 256, 16);
        let data = b.data("shared", 256);
        let _stack = b.stack(512);
        let program = b.build();
        let regions = vec![SpmRegionSpec::new(
            "spm",
            Technology::SramSecDed,
            ProtectionScheme::SecDed,
            RegionGeometry::from_kib(1),
        )];
        let mut placement = PlacementMap::new(&program, &regions);
        placement.place_off_chip(code);
        placement.place_off_chip(data);
        let config = MachineConfig {
            clock: Clock::default(),
            icache: CacheConfig::default(),
            dcache: CacheConfig::default(),
            dram: DramConfig::default(),
            regions,
            faults: None,
            deadline_cycles: None,
        };
        (config, program, placement)
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let (config, program, placement) = tiny_setup();
        let data = program.find("shared").unwrap();
        let mut mm = MultiMachine::new(config, program, placement, 2).unwrap();
        let mut obs = NullObserver;
        // Core 0 reads: fills Exclusive.
        mm.with_core(0, &mut obs, |cpu| cpu.read_u32(data, 0))
            .unwrap();
        // Core 1 reads the same word: both Shared.
        mm.with_core(1, &mut obs, |cpu| cpu.read_u32(data, 0))
            .unwrap();
        let home = mm.machine().program().block(data).dram_base();
        assert_eq!(mm.dcache_state(0, home), CoherenceState::Shared);
        assert_eq!(mm.dcache_state(1, home), CoherenceState::Shared);
        // Core 0 writes: core 1's copy must die.
        mm.with_core(0, &mut obs, |cpu| cpu.write_u32(data, 0, 7))
            .unwrap();
        assert_eq!(mm.dcache_state(0, home), CoherenceState::Modified);
        assert_eq!(mm.dcache_state(1, home), CoherenceState::Invalid);
        let s = mm.coherence_stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.shared_fills, 1);
        // Core 1 reads back the stored value through coherence.
        let v = mm
            .with_core(1, &mut obs, |cpu| cpu.read_u32(data, 0))
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn sharer_masks_track_program_accesses() {
        let (config, program, placement) = tiny_setup();
        let data = program.find("shared").unwrap();
        let mut mm = MultiMachine::new(config, program, placement, 3).unwrap();
        let mut obs = NullObserver;
        mm.with_core(0, &mut obs, |cpu| cpu.read_u32(data, 0))
            .unwrap();
        mm.with_core(2, &mut obs, |cpu| cpu.write_u32(data, 4, 1))
            .unwrap();
        assert_eq!(mm.machine().sharer_mask(data), 0b101);
    }

    #[test]
    #[should_panic(expected = "cores must be")]
    fn zero_cores_rejected() {
        let (config, program, placement) = tiny_setup();
        let _ = MultiMachine::new(config, program, placement, 0);
    }
}
