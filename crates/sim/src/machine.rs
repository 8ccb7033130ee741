//! The machine: devices, routing, cycle and energy accounting.

use ftspm_ecc::{ErrorClass, ProtectionScheme};
use ftspm_mem::{Clock, Technology};

use crate::cache::{Cache, CoherenceState};
use crate::fault::{fold_data_mask, stored_bits, FaultConfig, FaultState, FaultStats};
use crate::observer::{
    AccessEvent, AccessKind, Observer, QuarantineCause, QuarantineEvent, RemapEvent, Target,
};
use crate::stats::{MachineStats, RegionStats};
use crate::{
    BlockId, BlockKind, CacheConfig, Dram, DramConfig, Placement, PlacementMap, Program, SimError,
    SpmRegion, SpmRegionSpec,
};

/// Static configuration of a simulated machine (the paper's Table IV).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU clock (default 400 MHz).
    pub clock: Clock,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Off-chip memory parameters.
    pub dram: DramConfig,
    /// The scratchpad regions, in [`crate::RegionId`] order.
    pub regions: Vec<SpmRegionSpec>,
    /// Live fault injection and recovery (`None` = clean run).
    pub faults: Option<FaultConfig>,
    /// Cycle budget: the first access at or past this cycle count is
    /// refused with [`SimError::DeadlineExceeded`] instead of executed
    /// (`None` = unbounded). The cut is a pure function of the cycle
    /// counter, so a deadline kill happens at the same access on every
    /// replay.
    pub deadline_cycles: Option<u64>,
}

impl MachineConfig {
    /// A machine with the given SPM regions and default caches/DRAM/clock.
    pub fn with_regions(regions: Vec<SpmRegionSpec>) -> Self {
        Self {
            clock: Clock::default(),
            icache: CacheConfig::default(),
            dcache: CacheConfig::default(),
            dram: DramConfig::default(),
            regions,
            faults: None,
            deadline_cycles: None,
        }
    }

    /// Enables live fault injection under `faults`.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Bus-level coherence counters of a multi-core machine.
///
/// All zeros on a single-core machine (no snoops ever run). The fault
/// propagation fields mirror the narrative of *Transient Faults
/// Propagation in Multithread Applications*: a strike in a block several
/// cores touch is *counted once* in [`FaultStats`] but *observed* by
/// every sharer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote copies invalidated by a local write (MESI BusRdX/upgrade).
    pub invalidations: u64,
    /// Remote Modified copies flushed to DRAM by a snoop.
    pub dirty_flushes: u64,
    /// Remote Modified/Exclusive copies downgraded to Shared by a read.
    pub downgrades: u64,
    /// Read misses filled Shared because a remote copy existed.
    pub shared_fills: u64,
    /// Local Shared→Modified upgrades (write hit on a shared line).
    pub upgrades: u64,
    /// Cache lines invalidated because their block was quarantine-remapped
    /// (the remap updates every core's mapping atomically; this clears any
    /// cached shadow of the old home range).
    pub remap_invalidations: u64,
    /// Fault events (correction/DUE/SDC) landing in a block more than one
    /// core had touched.
    pub shared_block_faults: u64,
    /// Sum over shared-block faults of (sharers − 1): how many *other*
    /// cores each fault was visible to.
    pub cross_core_observations: u64,
}

/// Per-core view of the fault subsystem: what each core observed at its
/// own accesses, plus how many shared-block faults it was exposed to.
/// The shared registry ([`FaultStats`]) counts every event exactly once;
/// these views distribute the same events across their observers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreFaultView {
    /// Corrections (DRE + scrub) decoded while this core was active.
    pub corrections: u64,
    /// DUE traps taken while this core was active.
    pub due_traps: u64,
    /// SDC escapes decoded while this core was active.
    pub sdc_escapes: u64,
    /// Fault events in blocks this core shares with at least one other
    /// core (whether or not this core was the active observer).
    pub shared_exposures: u64,
}

/// The coherence hub of a multi-core machine: the parked cache pairs of
/// every non-active core (the active core's caches live in the machine's
/// own `icache`/`dcache` slots), plus sharer tracking and counters.
#[derive(Debug)]
struct CoherenceHub {
    cores: usize,
    active: usize,
    /// Parked `(icache, dcache)` pairs, indexed by core; the active
    /// core's slot is `None`.
    parked: Vec<Option<(Cache, Cache)>>,
    /// Per-block bitmask of cores that issued program accesses to it.
    touched: Vec<u64>,
    stats: CoherenceStats,
    per_core: Vec<CoreFaultView>,
}

/// A running simulation: one program, one placement, one set of devices.
///
/// Construct with [`Machine::new`], drive through [`crate::Cpu`], then call
/// [`Machine::finish`] to write back dirty blocks, charge leakage, and
/// freeze the statistics.
#[derive(Debug)]
pub struct Machine {
    clock: Clock,
    program: Program,
    placement: PlacementMap,
    regions: Vec<SpmRegion>,
    icache: Cache,
    dcache: Cache,
    dram: Dram,
    cycle: u64,
    instructions: u64,
    /// Resolved-slot table: `(region, base offset)` of every SPM-resident
    /// block, `None` for blocks that are off-chip or not mapped in — so a
    /// resident access costs one load instead of a placement lookup.
    /// [`Machine::dma_fill`] sets an entry; every eviction, remap and
    /// quarantine clears it.
    slots: Vec<Option<(crate::RegionId, u32)>>,
    dirty: Vec<bool>,
    /// Non-DMA (program) reads/writes per region.
    program_rw: Vec<(u64, u64)>,
    /// Run-time offset of each dynamically-placed resident block.
    dyn_offset: Vec<Option<u32>>,
    /// Cycle of the last access per block (dynamic-eviction LRU).
    last_access: Vec<u64>,
    /// Per-region free lists for the dynamic pools.
    dyn_free: Vec<FreeList>,
    /// Dynamic evictions performed per region.
    dyn_evictions: Vec<u64>,
    /// Live fault-injection state (`None` = clean run).
    faults: Option<FaultState>,
    /// Cycle of the next fault event, cached flat on the machine so a hot
    /// access pays one compare: `u64::MAX` with no (or eventless) fault
    /// state, `0` on the reference path (which polls every access).
    fault_gate: u64,
    /// Whether wear tracking is configured (cached off the fault config).
    fault_wear: bool,
    /// Bit `i` set ⇔ region `i` carries at least one pending mark (bit 63
    /// stands in for every region from 63 up). All-ones on the reference
    /// path (which probes every access), zero with no fault state. Lets a
    /// clean access decide "no decode needed" from one hot field.
    fault_marked: u64,
    /// Cycle budget cached flat for the hot path (`u64::MAX` when
    /// unbounded); a clean access pays one always-false compare.
    deadline: u64,
    /// Multi-core coherence hub (`None` on a plain single-core machine;
    /// every snoop/sharer hook is then skipped entirely).
    coh: Option<Box<CoherenceHub>>,
    /// Whether the attached observer wants [`AccessEvent`]s (see
    /// [`Observer::observes_accesses`]); when false none is built.
    observe_accesses: bool,
    finished: bool,
}

/// `offset % size`, dividing only when `offset` has actually run past the
/// end of the block.
#[inline]
fn wrap_offset(offset: u32, size: u32) -> u32 {
    if offset < size {
        offset
    } else {
        offset % size
    }
}

/// A sorted, coalescing free-interval list for one region's dynamic pool.
#[derive(Debug, Clone, Default)]
struct FreeList {
    /// `(offset, len)` runs, sorted by offset, never adjacent.
    runs: Vec<(u32, u32)>,
}

impl FreeList {
    fn new(base: u32, capacity: u32) -> Self {
        let len = capacity - base;
        Self {
            runs: if len > 0 {
                vec![(base, len)]
            } else {
                Vec::new()
            },
        }
    }

    /// First-fit allocation.
    fn alloc(&mut self, size: u32) -> Option<u32> {
        let i = self.runs.iter().position(|&(_, len)| len >= size)?;
        let (off, len) = self.runs[i];
        if len == size {
            self.runs.remove(i);
        } else {
            self.runs[i] = (off + size, len - size);
        }
        Some(off)
    }

    /// Returns an interval, coalescing with neighbours.
    fn free(&mut self, offset: u32, size: u32) {
        let i = self.runs.partition_point(|&(o, _)| o < offset);
        debug_assert!(
            i == 0 || self.runs[i - 1].0 + self.runs[i - 1].1 <= offset,
            "double free below"
        );
        debug_assert!(
            i == self.runs.len() || offset + size <= self.runs[i].0,
            "double free above"
        );
        self.runs.insert(i, (offset, size));
        // Coalesce with the next run.
        if i + 1 < self.runs.len() && self.runs[i].0 + self.runs[i].1 == self.runs[i + 1].0 {
            self.runs[i].1 += self.runs[i + 1].1;
            self.runs.remove(i + 1);
        }
        // Coalesce with the previous run.
        if i > 0 && self.runs[i - 1].0 + self.runs[i - 1].1 == self.runs[i].0 {
            self.runs[i - 1].1 += self.runs[i].1;
            self.runs.remove(i);
        }
    }
}

impl Machine {
    /// Builds a machine for `program` under `placement`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegion`] if the placement or the fault
    /// configuration references a region the config does not define.
    pub fn new(
        config: MachineConfig,
        program: Program,
        placement: PlacementMap,
    ) -> Result<Self, SimError> {
        if let Some(fc) = &config.faults {
            for r in fc
                .targets
                .iter()
                .flatten()
                .chain(fc.demotion.iter().flatten())
            {
                if r.index() >= config.regions.len() {
                    return Err(SimError::UnknownRegion(*r));
                }
            }
        }
        for (b, p) in placement.iter() {
            if let Some(r) = p.region() {
                if r.index() >= config.regions.len() {
                    return Err(SimError::UnknownRegion(r));
                }
                // A static `place` issued *after* a `place_dynamic` can
                // shrink the pool below a block admitted earlier; catch
                // that here so it cannot panic mid-run.
                if p.is_dynamic() {
                    let pool = placement.capacity(r) - placement.dynamic_pool_base(r);
                    let size = program.block(b).size_bytes();
                    if size > pool {
                        return Err(SimError::RegionFull {
                            region: r,
                            block: b,
                            requested: size,
                            available: pool,
                        });
                    }
                }
            }
        }
        let regions: Vec<SpmRegion> = config.regions.into_iter().map(SpmRegion::new).collect();
        let n_regions = regions.len();
        let dram = Dram::new(config.dram, &program);
        let n = program.len();
        let dyn_free = (0..n_regions)
            .map(|i| {
                if i < placement.region_count() {
                    let r = crate::RegionId::new(i);
                    FreeList::new(placement.dynamic_pool_base(r), placement.capacity(r))
                } else {
                    FreeList::default()
                }
            })
            .collect();
        let faults = config.faults.map(|fc| {
            let words: Vec<u32> = regions
                .iter()
                .map(|r| r.spec().geometry().words())
                .collect();
            FaultState::new(fc, &words)
        });
        let mut m = Self {
            clock: config.clock,
            program,
            placement,
            regions,
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            dram,
            cycle: 0,
            instructions: 0,
            slots: vec![None; n],
            dirty: vec![false; n],
            program_rw: vec![(0, 0); n_regions],
            dyn_offset: vec![None; n],
            last_access: vec![0; n],
            dyn_free,
            dyn_evictions: vec![0; n_regions],
            faults,
            fault_gate: 0,
            fault_wear: false,
            fault_marked: 0,
            deadline: config.deadline_cycles.unwrap_or(u64::MAX),
            coh: None,
            observe_accesses: true,
            finished: false,
        };
        m.fault_wear = m
            .faults
            .as_ref()
            .is_some_and(|f| f.config.line_write_budget.is_some());
        m.fault_refresh_gate();
        m.fault_refresh_marked(0);
        Ok(m)
    }

    /// The program under simulation.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The active placement.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The machine clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Off-chip memory (e.g. to initialise workload inputs with
    /// [`Dram::poke_word`] before running).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable off-chip memory.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// The SPM regions in id order.
    pub fn regions(&self) -> &[SpmRegion] {
        &self.regions
    }

    /// Records whether the observer driving the next accesses consumes
    /// [`AccessEvent`]s ([`crate::Cpu`] caches its observer's answer
    /// here).
    pub(crate) fn set_observes_accesses(&mut self, on: bool) {
        self.observe_accesses = on;
    }

    /// The cycle-budget gate on every CPU-visible access: one compare
    /// against a cached `u64::MAX` when no deadline is set.
    #[inline]
    fn check_deadline(&self) -> Result<(), SimError> {
        if self.cycle >= self.deadline {
            return Err(SimError::DeadlineExceeded {
                cycle: self.cycle,
                deadline_cycles: self.deadline,
            });
        }
        Ok(())
    }

    fn check_bounds(&self, block: BlockId, offset: u32, width: u32) -> Result<(), SimError> {
        let size = self.program.block(block).size_bytes();
        if offset.checked_add(width).is_none_or(|end| end > size) {
            return Err(SimError::OffsetOutOfBounds {
                block,
                offset,
                size,
            });
        }
        Ok(())
    }

    /// Installs a coherence hub for `cores` hardware threads. Core 0's
    /// caches are the machine's own `icache`/`dcache`; cores 1.. get
    /// fresh parked pairs of the same geometry. Called once by
    /// [`crate::MultiMachine::new`].
    ///
    /// # Panics
    ///
    /// Panics on 0 cores, more than 64 cores (the sharer mask is a
    /// `u64`), or a second attach.
    pub(crate) fn attach_coherence(&mut self, cores: usize) {
        assert!((1..=64).contains(&cores), "1..=64 cores");
        assert!(self.coh.is_none(), "coherence hub already attached");
        let (icfg, dcfg) = (self.icache.config(), self.dcache.config());
        let parked = (0..cores)
            .map(|c| (c != 0).then(|| (Cache::new(icfg), Cache::new(dcfg))))
            .collect();
        self.coh = Some(Box::new(CoherenceHub {
            cores,
            active: 0,
            parked,
            touched: vec![0; self.program.len()],
            stats: CoherenceStats::default(),
            per_core: vec![CoreFaultView::default(); cores],
        }));
    }

    /// Swaps `core`'s cache pair into the machine's active slots.
    ///
    /// # Panics
    ///
    /// Panics without a hub or with `core` out of range.
    pub(crate) fn set_active_core(&mut self, core: usize) {
        let hub = self.coh.as_deref_mut().expect("coherence hub attached");
        assert!(core < hub.cores, "core {core} out of range");
        if core == hub.active {
            return;
        }
        let (pi, pd) = hub.parked[core].take().expect("inactive core is parked");
        let old_i = std::mem::replace(&mut self.icache, pi);
        let old_d = std::mem::replace(&mut self.dcache, pd);
        hub.parked[hub.active] = Some((old_i, old_d));
        hub.active = core;
    }

    /// `core`'s `(icache, dcache)` pair, live or parked.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub(crate) fn core_caches(&self, core: usize) -> (&Cache, &Cache) {
        match self.coh.as_deref() {
            Some(hub) if core != hub.active => {
                assert!(core < hub.cores, "core {core} out of range");
                let p = hub.parked[core].as_ref().expect("parked");
                (&p.0, &p.1)
            }
            Some(_) => (&self.icache, &self.dcache),
            None => {
                assert_eq!(core, 0, "single-core machine");
                (&self.icache, &self.dcache)
            }
        }
    }

    /// Bus-level coherence counters (`None` on a single-core machine).
    pub fn coherence_stats(&self) -> Option<CoherenceStats> {
        self.coh.as_deref().map(|h| h.stats)
    }

    /// Per-core fault observation views (empty on a single-core machine).
    pub fn core_fault_views(&self) -> &[CoreFaultView] {
        self.coh.as_deref().map_or(&[], |h| &h.per_core)
    }

    /// Bitmask of cores that issued program accesses to `block` (bit
    /// `c` ⇔ core `c`). Always 0 on a single-core machine (no hub).
    pub fn sharer_mask(&self, block: BlockId) -> u64 {
        self.coh.as_deref().map_or(0, |h| h.touched[block.index()])
    }

    /// Records the active core as a sharer of `block`.
    #[inline]
    fn coh_touch(&mut self, block: BlockId) {
        if let Some(hub) = self.coh.as_deref_mut() {
            hub.touched[block.index()] |= 1u64 << hub.active;
        }
    }

    /// MESI bus transaction preceding a data-cache access at `addr`.
    /// Returns `(shared_hint, snoop_cycles)`: whether a remote copy
    /// remains (read miss fills Shared) and the DRAM cycles charged for
    /// remote dirty flushes. A no-op — `(false, 0)` — without a hub,
    /// with no other cores, or when the local state already permits the
    /// access without a bus transaction.
    fn coh_before_data(&mut self, addr: u32, is_write: bool) -> (bool, u32) {
        let Some(hub) = self.coh.as_deref_mut() else {
            return (false, 0);
        };
        let local = self.dcache.probe_state(addr);
        let mut flushed_words = 0u32;
        let mut shared = false;
        if is_write {
            if matches!(local, CoherenceState::Modified | CoherenceState::Exclusive) {
                // Already the exclusive owner: silent E→M upgrade.
                return (false, 0);
            }
            for pair in hub.parked.iter_mut().flatten() {
                let r = pair.1.snoop_invalidate(addr);
                if r.had_copy {
                    hub.stats.invalidations += 1;
                    if r.writeback_words > 0 {
                        hub.stats.dirty_flushes += 1;
                        flushed_words += r.writeback_words;
                    }
                }
            }
            if local == CoherenceState::Shared {
                hub.stats.upgrades += 1;
            }
        } else {
            if local != CoherenceState::Invalid {
                // Local hit: any valid state serves a read.
                return (false, 0);
            }
            for pair in hub.parked.iter_mut().flatten() {
                let r = pair.1.snoop_read(addr);
                if r.had_copy {
                    shared = true;
                    if r.downgraded {
                        hub.stats.downgrades += 1;
                    }
                    if r.writeback_words > 0 {
                        hub.stats.dirty_flushes += 1;
                        flushed_words += r.writeback_words;
                    }
                }
            }
            if shared {
                hub.stats.shared_fills += 1;
            }
        }
        let cycles = if flushed_words > 0 {
            self.dram.charge_burst_write(flushed_words)
        } else {
            0
        };
        (shared, cycles)
    }

    /// Read snoop on the other cores' *instruction* caches before an
    /// icache fill. Code is read-only, so remote copies are never
    /// Modified — this only decides Exclusive vs Shared fills.
    fn coh_before_fetch(&mut self, addr: u32) -> bool {
        let Some(hub) = self.coh.as_deref_mut() else {
            return false;
        };
        if self.icache.probe_state(addr) != CoherenceState::Invalid {
            return false;
        }
        let mut shared = false;
        for pair in hub.parked.iter_mut().flatten() {
            let r = pair.0.snoop_read(addr);
            if r.had_copy {
                shared = true;
                if r.downgraded {
                    hub.stats.downgrades += 1;
                }
            }
        }
        if shared {
            hub.stats.shared_fills += 1;
        }
        shared
    }

    /// Invalidates every core's cached lines of `block`'s home range
    /// after a quarantine remap, so no core can serve a stale copy of
    /// the demoted block. The shared placement map already moved; this
    /// clears the cached shadow. (A block that lived in the SPM was
    /// never cached, so this is defensive — and free — in that case.)
    fn coh_invalidate_block(&mut self, block: BlockId) {
        if self.coh.is_none() {
            return;
        }
        let spec = self.program.block(block);
        let base = spec.dram_base();
        let size = spec.size_bytes();
        let line = self.dcache.config().line_bytes;
        let mut flushed_words = 0u32;
        let mut invalidated = 0u64;
        let mut addr = base & !(line - 1);
        while addr < base + size {
            let r = self.dcache.snoop_invalidate(addr);
            if r.had_copy {
                invalidated += 1;
                flushed_words += r.writeback_words;
            }
            if let Some(hub) = self.coh.as_deref_mut() {
                for pair in hub.parked.iter_mut().flatten() {
                    let r = pair.1.snoop_invalidate(addr);
                    if r.had_copy {
                        invalidated += 1;
                        flushed_words += r.writeback_words;
                    }
                }
            }
            addr += line;
        }
        if let Some(hub) = self.coh.as_deref_mut() {
            hub.stats.remap_invalidations += invalidated;
        }
        if flushed_words > 0 {
            let c = self.dram.charge_burst_write(flushed_words);
            self.cycle += u64::from(c);
        }
    }

    /// Distributes a fault event (already counted once in the shared
    /// [`FaultStats`] registry) across its observers: the active core's
    /// view, and — when the struck block is shared — every sharer's
    /// exposure counter.
    fn coh_observe_fault(&mut self, block: BlockId, kind: AccessKind) {
        let Some(hub) = self.coh.as_deref_mut() else {
            return;
        };
        let view = &mut hub.per_core[hub.active];
        match kind {
            AccessKind::Correction | AccessKind::Scrub => view.corrections += 1,
            AccessKind::DueTrap => view.due_traps += 1,
            AccessKind::SdcEscape => view.sdc_escapes += 1,
            _ => return,
        }
        let mask = hub.touched[block.index()];
        let sharers = u64::from(mask.count_ones());
        if sharers > 1 {
            hub.stats.shared_block_faults += 1;
            hub.stats.cross_core_observations += sharers - 1;
            for c in 0..hub.cores {
                if mask & (1u64 << c) != 0 {
                    hub.per_core[c].shared_exposures += 1;
                }
            }
        }
    }

    /// Resolves `block` to its current SPM slot, performing the lazy
    /// map-in DMA (and, for dynamic blocks, allocation plus any LRU
    /// evictions) if needed. Returns `None` for off-chip blocks.
    ///
    /// A resident block costs one load of the resolved-slot table. Debug
    /// builds recompute a resident block's slot from the placement map
    /// and the dynamic offsets on every call, so every debug-mode test
    /// checks the table's invalidation rule.
    #[inline]
    fn ensure_resident(
        &mut self,
        block: BlockId,
        observer: &mut dyn Observer,
    ) -> Option<(crate::RegionId, u32)> {
        let i = block.index();
        self.last_access[i] = self.cycle;
        if let Some(slot) = self.slots[i] {
            debug_assert_eq!(
                Some(slot),
                self.placed_slot(block),
                "stale resolved slot for {block:?}"
            );
            return Some(slot);
        }
        match self.placement.placement(block) {
            Placement::OffChip => None,
            Placement::Spm { region, offset } => {
                self.dma_fill(block, region, offset, observer);
                Some((region, offset))
            }
            Placement::Dynamic { region } => {
                let size = self.program.block(block).size_bytes();
                let offset = self.dyn_allocate(block, region, size, observer);
                self.dyn_offset[i] = Some(offset);
                self.dma_fill(block, region, offset, observer);
                Some((region, offset))
            }
        }
    }

    /// Where the placement map and the dynamic offsets put `block` if it
    /// is resident — the value its resolved slot must cache.
    fn placed_slot(&self, block: BlockId) -> Option<(crate::RegionId, u32)> {
        match self.placement.placement(block) {
            Placement::Spm { region, offset } => Some((region, offset)),
            Placement::Dynamic { region } => self.dyn_offset[block.index()].map(|o| (region, o)),
            Placement::OffChip => None,
        }
    }

    /// DMA copy of a block's home copy into its SPM slot.
    fn dma_fill(
        &mut self,
        block: BlockId,
        region: crate::RegionId,
        offset: u32,
        observer: &mut dyn Observer,
    ) {
        let words = self.program.block(block).size_bytes() / 4;
        let mut buf = Vec::with_capacity(words as usize);
        let mut cycles = self.dram.read_burst(block, 0, words, &mut buf);
        let r = &mut self.regions[region.index()];
        for (i, v) in buf.iter().enumerate() {
            cycles += r.write_word(offset + (i as u32) * 4, *v);
        }
        self.cycle += u64::from(cycles);
        if let Some(fs) = self.faults.as_mut() {
            // The fill rewrites (re-encodes) every word in the slot.
            fs.marks[region.index()].clear_range(offset / 4, words);
            self.fault_refresh_marked(region.index());
        }
        self.slots[block.index()] = Some((region, offset));
        self.dirty[block.index()] = false;
        if self.observe_accesses {
            observer.on_access(&AccessEvent {
                cycle: self.cycle,
                block,
                kind: AccessKind::Write,
                target: Target::Region(region),
                offset: 0,
                dma: true,
                count: words,
            });
        }
    }

    /// Carves `size` bytes out of `region`'s dynamic pool, evicting
    /// least-recently-used dynamic residents until the allocation fits.
    ///
    /// # Panics
    ///
    /// Panics if the block can never fit (prevented by
    /// [`PlacementMap::place_dynamic`]'s capacity check).
    fn dyn_allocate(
        &mut self,
        for_block: BlockId,
        region: crate::RegionId,
        size: u32,
        observer: &mut dyn Observer,
    ) -> u32 {
        loop {
            if let Some(off) = self.dyn_free[region.index()].alloc(size) {
                return off;
            }
            let victim = self
                .program
                .iter()
                .map(|(id, _)| id)
                .filter(|&id| {
                    id != for_block
                        && self.slots[id.index()].is_some()
                        && self.placement.placement(id) == (Placement::Dynamic { region })
                })
                .min_by_key(|id| self.last_access[id.index()])
                .unwrap_or_else(|| {
                    panic!("dynamic pool of {region:?} cannot fit {size} B even after evictions")
                });
            self.evict(victim, observer);
            self.dyn_evictions[region.index()] += 1;
        }
    }

    /// Evicts a resident dynamic block: writes it back if dirty, frees its
    /// slot, and marks it non-resident.
    fn evict(&mut self, block: BlockId, observer: &mut dyn Observer) {
        let Placement::Dynamic { region } = self.placement.placement(block) else {
            unreachable!("only dynamic blocks are evicted");
        };
        let offset = self.dyn_offset[block.index()].expect("victim is resident");
        let size = self.program.block(block).size_bytes();
        if self.dirty[block.index()] {
            self.writeback(block, region, offset, observer);
        }
        self.slots[block.index()] = None;
        self.dyn_offset[block.index()] = None;
        self.dyn_free[region.index()].free(offset, size);
    }

    /// DMA copy of a (dirty) block from its SPM slot back to its home.
    fn writeback(
        &mut self,
        block: BlockId,
        region: crate::RegionId,
        offset: u32,
        observer: &mut dyn Observer,
    ) {
        let words = self.program.block(block).size_bytes() / 4;
        if self.faults.is_some() {
            self.fault_flush_marks(region, offset, words);
        }
        let mut buf = Vec::with_capacity(words as usize);
        let mut cycles = 0u32;
        for i in 0..words {
            let (v, c) = self.regions[region.index()].read_word(offset + i * 4);
            buf.push(v);
            cycles += c;
        }
        cycles += self.dram.write_burst(block, 0, &buf);
        self.cycle += u64::from(cycles);
        self.dirty[block.index()] = false;
        if self.observe_accesses {
            observer.on_access(&AccessEvent {
                cycle: self.cycle,
                block,
                kind: AccessKind::Read,
                target: Target::Region(region),
                offset: 0,
                dma: true,
                count: words,
            });
        }
    }

    /// Executes `count` sequential instruction fetches of `block` starting
    /// at byte `pc_offset` (wrapping within the block), returning the new
    /// PC cursor.
    ///
    /// # Errors
    ///
    /// [`SimError::WrongBlockKind`] if `block` is not code.
    #[inline]
    pub(crate) fn fetch(
        &mut self,
        block: BlockId,
        pc_offset: u32,
        count: u32,
        observer: &mut dyn Observer,
    ) -> Result<u32, SimError> {
        self.check_deadline()?;
        let spec = self.program.block(block);
        if spec.kind() != BlockKind::Code {
            return Err(SimError::WrongBlockKind { block });
        }
        let size = spec.size_bytes();
        let base = spec.dram_base();
        self.coh_touch(block);
        if self.cycle >= self.fault_gate {
            self.fault_tick(observer);
        }
        let start = wrap_offset(pc_offset, size);
        let mut slot = self.ensure_resident(block, observer);
        if let Some((region, offset)) = slot {
            // Entering the decode branch is only needed when the region
            // carries a pending mark (the reference path enters always):
            // with no marks the span decode is a no-op and the re-resolve
            // below cannot observe a different slot, because no cycles
            // were charged and no recovery ran.
            if self.fault_decode_needed(region) {
                self.fault_decode_span(block, region, offset, start, size, count, observer);
                // Recovery may have quarantined a line and remapped the
                // block mid-fetch; re-resolve its slot.
                slot = self.ensure_resident(block, observer);
            }
        }
        self.instructions += u64::from(count);
        let mut pc = start;
        match slot {
            Some((region, offset)) => {
                // Fetches need no values, so they are charged as a batch of
                // `count` reads at the region's read latency.
                let cycles = self.regions[region.index()].read_batch(offset + pc, count);
                self.program_rw[region.index()].0 += u64::from(count);
                self.cycle += u64::from(cycles);
                pc = wrap_offset(pc + 4 * count, size);
                if self.observe_accesses {
                    observer.on_access(&AccessEvent {
                        cycle: self.cycle,
                        block,
                        kind: AccessKind::Fetch,
                        target: Target::Region(region),
                        offset: pc,
                        dma: false,
                        count,
                    });
                }
            }
            None => {
                for _ in 0..count {
                    let shared = self.coh_before_fetch(base + pc);
                    let acc = self.icache.access_with_hint(base + pc, false, shared);
                    let mut cycles = self.icache.hit_cycles();
                    if !acc.hit {
                        cycles += self.dram_charge_read(acc.fill_words);
                    }
                    if acc.writeback_words > 0 {
                        cycles += self.dram_charge_write(acc.writeback_words);
                    }
                    self.cycle += u64::from(cycles);
                    if self.observe_accesses {
                        observer.on_access(&AccessEvent {
                            cycle: self.cycle,
                            block,
                            kind: AccessKind::Fetch,
                            target: Target::ICache { hit: acc.hit },
                            offset: pc,
                            dma: false,
                            count: 1,
                        });
                    }
                    pc = wrap_offset(pc + 4, size);
                }
            }
        }
        Ok(pc)
    }

    fn dram_charge_read(&mut self, words: u32) -> u32 {
        self.dram.charge_burst_read(words)
    }

    fn dram_charge_write(&mut self, words: u32) -> u32 {
        self.dram.charge_burst_write(words)
    }

    /// Reads one aligned word of a data block.
    #[inline]
    pub(crate) fn read_word(
        &mut self,
        block: BlockId,
        offset: u32,
        observer: &mut dyn Observer,
    ) -> Result<u32, SimError> {
        self.check_deadline()?;
        self.check_bounds(block, offset, 4)?;
        self.coh_touch(block);
        if self.cycle >= self.fault_gate {
            self.fault_tick(observer);
        }
        let mut slot = self.ensure_resident(block, observer);
        if let Some((region, base)) = slot {
            if self.fault_decode_needed(region) {
                let woff = (base + offset) & !3;
                self.fault_decode_word(Some((block, base)), region, woff, false, observer);
                slot = self.ensure_resident(block, observer);
            }
        }
        let (value, target, cycles) = match slot {
            Some((region, base)) => {
                let (v, c) = self.regions[region.index()].read_word(base + offset);
                self.program_rw[region.index()].0 += 1;
                (v, Target::Region(region), c)
            }
            None => {
                let addr = self.program.block(block).dram_base() + offset;
                let (shared, snoop_cycles) = self.coh_before_data(addr, false);
                let acc = self.dcache.access_with_hint(addr, false, shared);
                let mut cycles = self.dcache.hit_cycles() + snoop_cycles;
                if !acc.hit {
                    cycles += self.dram_charge_read(acc.fill_words);
                }
                if acc.writeback_words > 0 {
                    cycles += self.dram_charge_write(acc.writeback_words);
                }
                (
                    self.dram.peek_word(block, offset & !3),
                    Target::DCache { hit: acc.hit },
                    cycles,
                )
            }
        };
        self.cycle += u64::from(cycles);
        if self.observe_accesses {
            observer.on_access(&AccessEvent {
                cycle: self.cycle,
                block,
                kind: AccessKind::Read,
                target,
                offset,
                dma: false,
                count: 1,
            });
        }
        Ok(value)
    }

    /// Writes one aligned word of a data block.
    #[inline]
    pub(crate) fn write_word(
        &mut self,
        block: BlockId,
        offset: u32,
        value: u32,
        observer: &mut dyn Observer,
    ) -> Result<(), SimError> {
        self.check_deadline()?;
        self.check_bounds(block, offset, 4)?;
        self.coh_touch(block);
        if self.cycle >= self.fault_gate {
            self.fault_tick(observer);
        }
        let slot = self.ensure_resident(block, observer);
        let (target, cycles) = match slot {
            Some((region, base)) => {
                let c = self.regions[region.index()].write_word(base + offset, value);
                self.program_rw[region.index()].1 += 1;
                self.dirty[block.index()] = true;
                if self.fault_decode_needed(region) {
                    if let Some(fs) = self.faults.as_mut() {
                        // A full-word write re-encodes the codeword,
                        // clearing any latent flips on the line.
                        fs.marks[region.index()].remove((base + offset) / 4);
                        self.fault_refresh_marked(region.index());
                    }
                }
                if self.fault_wear {
                    self.fault_check_wear(region, base + offset, observer);
                }
                (Target::Region(region), c)
            }
            None => {
                let addr = self.program.block(block).dram_base() + offset;
                let (_, snoop_cycles) = self.coh_before_data(addr, true);
                let acc = self.dcache.access_with_hint(addr, true, false);
                let mut cycles = self.dcache.hit_cycles() + snoop_cycles;
                if !acc.hit {
                    cycles += self.dram_charge_read(acc.fill_words);
                }
                if acc.writeback_words > 0 {
                    cycles += self.dram_charge_write(acc.writeback_words);
                }
                self.dram.poke_word(block, offset, value);
                (Target::DCache { hit: acc.hit }, cycles)
            }
        };
        self.cycle += u64::from(cycles);
        if self.observe_accesses {
            observer.on_access(&AccessEvent {
                cycle: self.cycle,
                block,
                kind: AccessKind::Write,
                target,
                offset,
                dma: false,
                count: 1,
            });
        }
        Ok(())
    }

    /// Injects a particle strike of `flipped_bits` adjacent bit flips
    /// into `region` at word `offset`, mid-run.
    ///
    /// The region's protection scheme decides the outcome, mirroring the
    /// decode path a real controller would take on the next access:
    ///
    /// * immune cells ([`ftspm_ecc::ErrorClass::Masked`]) and corrected
    ///   errors ([`ftspm_ecc::ErrorClass::Dre`]) leave the data intact;
    /// * detected-unrecoverable errors ([`ftspm_ecc::ErrorClass::Due`])
    ///   leave the data intact but report the trap;
    /// * silent corruptions ([`ftspm_ecc::ErrorClass::Sdc`]) **really
    ///   flip the stored data bits**, so the corruption propagates into
    ///   subsequent program reads and, ultimately, its outputs.
    ///
    /// Returns the outcome so campaigns can count SDC/DUE/DRE.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegion`] if `region` is out of range,
    /// [`SimError::BadStrike`] if `offset` is unaligned or
    /// `flipped_bits` is 0, and [`SimError::StrikeOutOfRange`] if the
    /// word lies beyond the region.
    pub fn inject_strike(
        &mut self,
        region: crate::RegionId,
        offset: u32,
        first_bit: u32,
        flipped_bits: u32,
    ) -> Result<ErrorClass, SimError> {
        let Some(r) = self.regions.get_mut(region.index()) else {
            return Err(SimError::UnknownRegion(region));
        };
        if flipped_bits == 0 || !offset.is_multiple_of(4) {
            return Err(SimError::BadStrike {
                offset,
                flipped_bits,
            });
        }
        let bytes = r.spec().geometry().bytes();
        if offset.checked_add(4).is_none_or(|end| end > bytes) {
            return Err(SimError::StrikeOutOfRange {
                region,
                offset,
                bytes,
            });
        }
        let scheme = r.spec().scheme();
        let outcome = scheme.classify(flipped_bits);
        if outcome == ErrorClass::Sdc {
            // Corrupt the data bits for real (clamped into the word).
            let mut mask: u32 = 0;
            for k in 0..flipped_bits.min(32) {
                mask |= 1 << ((first_bit + k) % 32);
            }
            r.corrupt_word(offset, mask);
        }
        Ok(outcome)
    }

    /// Live fault-injection counters (`None` when the machine runs clean).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Words of `region` currently carrying a pending (not yet decoded)
    /// strike mask, in ascending order. Empty for clean machines and
    /// out-of-range regions. Test/differential-oracle visibility into
    /// latent state that no report surfaces.
    pub fn pending_marks(&self, region: crate::RegionId) -> Vec<u32> {
        let mut out = Vec::new();
        if let Some(f) = self.faults.as_ref() {
            if let Some(t) = f.marks.get(region.index()) {
                t.collect_into(&mut out);
            }
        }
        out
    }

    /// Word lines of `region` currently quarantined, in ascending order.
    /// Empty for clean machines and out-of-range regions.
    pub fn quarantined_lines(&self, region: crate::RegionId) -> Vec<u32> {
        self.faults
            .as_ref()
            .and_then(|f| f.quarantined.get(region.index()))
            .map(|q| q.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Advances the fault subsystem to the current cycle: lands every
    /// strike whose arrival time has passed, then runs the scrub daemon
    /// if its period elapsed. Called at the top of every program access.
    ///
    /// Event-driven: the access skips straight past the subsystem with a
    /// single comparison against the cached next event (the earlier of
    /// the injector's next arrival and the next scrub tick). Events land
    /// at exactly the cycles the per-access reference path lands them —
    /// both paths process the subsystem at the first access whose cycle
    /// reaches the schedule, and accesses are the only places time
    /// advances past it — so replays stay bit-for-bit.
    fn fault_tick(&mut self, observer: &mut dyn Observer) {
        let due = self
            .faults
            .as_ref()
            .is_some_and(|f| f.reference || self.cycle >= f.next_event);
        if !due {
            // Reachable only through a stale gate (the caller's compare
            // uses the cached copy); re-sync it.
            self.fault_refresh_gate();
            return;
        }
        self.fault_inject_pending();
        let scrub_now = self
            .faults
            .as_ref()
            .is_some_and(|f| self.cycle >= f.next_scrub);
        if scrub_now {
            self.fault_scrub(observer);
            if let Some(fs) = self.faults.as_mut() {
                let interval = fs.config.scrub_interval.unwrap_or(u64::MAX);
                fs.next_scrub = self.cycle.saturating_add(interval);
                fs.recompute_next_event();
            }
        }
        self.fault_refresh_gate();
    }

    /// Re-caches [`Machine::fault_gate`] from the fault state's schedule.
    /// Must run after anything that moves `next_event` (strike arrivals,
    /// scrub reschedules).
    fn fault_refresh_gate(&mut self) {
        self.fault_gate = match self.faults.as_ref() {
            Some(f) if f.reference => 0,
            Some(f) => f.next_event,
            None => u64::MAX,
        };
    }

    /// Whether an access to `region` must run the decode branch: the
    /// region carries a pending mark, or the reference path is selected
    /// (which always probes, like the pre-optimization code did). One
    /// test of a hot cached field; bit 63 may be conservatively set (a
    /// false positive only makes the decode probe a no-op).
    #[inline]
    fn fault_decode_needed(&self, region: crate::RegionId) -> bool {
        self.fault_marked & (1u64 << region.index().min(63)) != 0
    }

    /// Re-caches region `ri`'s bit of [`Machine::fault_marked`] from its
    /// mark table. Must run after anything that may flip the table
    /// between empty and non-empty.
    fn fault_refresh_marked(&mut self, ri: usize) {
        let Some(f) = self.faults.as_ref() else {
            self.fault_marked = 0;
            return;
        };
        if f.reference {
            self.fault_marked = u64::MAX;
            return;
        }
        if ri < 63 {
            if f.marks.get(ri).is_none_or(crate::MarkTable::is_empty) {
                self.fault_marked &= !(1u64 << ri);
            } else {
                self.fault_marked |= 1u64 << ri;
            }
        } else if f.marks[63..].iter().any(|t| !t.is_empty()) {
            self.fault_marked |= 1u64 << 63;
        } else {
            self.fault_marked &= !(1u64 << 63);
        }
    }

    /// Lands every strike scheduled at or before the current cycle as a
    /// pending flip mask on the struck word (immune cells absorb theirs
    /// outright). Storage is only corrupted later, if a decode aliases.
    /// Re-caches the next-event cycle on exit (the injector advanced).
    fn fault_inject_pending(&mut self) {
        let now = self.cycle;
        loop {
            let Some(fs) = self.faults.as_mut() else {
                return;
            };
            if !fs.armed || !fs.injector.strike_due(now) {
                fs.recompute_next_event();
                break;
            }
            let pick = fs.injector.pick_weighted(&fs.weights);
            let ri = fs.eligible[pick];
            fs.stats.strikes += 1;
            let scheme = self.regions[ri].spec().scheme();
            if scheme == ProtectionScheme::Immune {
                fs.stats.masked += 1;
                continue;
            }
            let words = self.regions[ri].spec().geometry().words();
            let strike = fs.injector.sample(words, stored_bits(scheme));
            let mut mask = 0u64;
            for b in strike.bits() {
                mask |= 1 << b;
            }
            fs.marks[ri].or_insert(strike.word, mask);
            self.fault_marked |= 1u64 << ri.min(63);
        }
        self.fault_refresh_gate();
    }

    /// Decodes pending marks over a fetch span of `count` words starting
    /// at block-relative byte `start` (wrapping within `size`).
    #[allow(clippy::too_many_arguments)]
    fn fault_decode_span(
        &mut self,
        block: BlockId,
        region: crate::RegionId,
        base: u32,
        start: u32,
        size: u32,
        count: u32,
        observer: &mut dyn Observer,
    ) {
        let ri = region.index();
        let mut pc = start;
        for _ in 0..count {
            if self.faults.as_ref().is_none_or(|f| f.marks[ri].is_empty()) {
                return;
            }
            self.fault_decode_word(Some((block, base)), region, base + pc, false, observer);
            pc = (pc + 4) % size;
        }
    }

    /// Decodes any pending flip mask on `region`'s word at byte `woff`
    /// through the region's protection scheme, charging the architectural
    /// consequences. `owner` (block and its slot base) attributes observer
    /// events; `scrub` selects the scrub-daemon counters/event kind for
    /// corrected words.
    fn fault_decode_word(
        &mut self,
        owner: Option<(BlockId, u32)>,
        region: crate::RegionId,
        woff: u32,
        scrub: bool,
        observer: &mut dyn Observer,
    ) {
        let ri = region.index();
        let word = woff / 4;
        let Some(mask) = self.faults.as_mut().and_then(|f| f.marks[ri].remove(word)) else {
            return;
        };
        self.fault_refresh_marked(ri);
        let scheme = self.regions[ri].spec().scheme();
        match scheme.classify(mask.count_ones()) {
            ErrorClass::Masked => {}
            ErrorClass::Dre => {
                // The decoder corrects inline; the controller writes the
                // repaired word back so the flip cannot accumulate.
                let value = self.spm_word(ri, woff);
                let c = u64::from(self.regions[ri].write_word(woff, value));
                self.cycle += c;
                if let Some(fs) = self.faults.as_mut() {
                    if scrub {
                        fs.stats.scrub_corrections += 1;
                    } else {
                        fs.stats.corrections += 1;
                    }
                    fs.stats.recovery_cycles += c;
                }
                let kind = if scrub {
                    AccessKind::Scrub
                } else {
                    AccessKind::Correction
                };
                self.fault_event(owner, kind, region, woff, 1, observer);
            }
            ErrorClass::Due => self.fault_recover_due(owner, region, woff, observer),
            ErrorClass::Sdc => {
                // Aliased past the code: stored data really flips.
                self.regions[ri].corrupt_word(woff, fold_data_mask(mask));
                if let Some(fs) = self.faults.as_mut() {
                    fs.stats.sdc_escapes += 1;
                }
                self.fault_event(owner, AccessKind::SdcEscape, region, woff, 1, observer);
            }
        }
    }

    /// DUE trap: re-fetch the clean copy from DRAM and rewrite the word,
    /// retrying (bounded) if another strike lands on the line while the
    /// recovery itself runs. Gives the line up to quarantine when the
    /// retry budget is exhausted or the line keeps trapping.
    fn fault_recover_due(
        &mut self,
        owner: Option<(BlockId, u32)>,
        region: crate::RegionId,
        woff: u32,
        observer: &mut dyn Observer,
    ) {
        let ri = region.index();
        let word = woff / 4;
        let retry_limit = self.faults.as_ref().map_or(0, |f| f.config.due_retry_limit);
        let mut attempts = 0u32;
        let mut gave_up = false;
        loop {
            attempts += 1;
            // One recovery attempt: a one-word DRAM burst plus the SPM
            // rewrite. The stored word is architecturally clean (non-SDC
            // marks never corrupt storage), so rewriting it models the
            // re-fetch without disturbing program data.
            let mut c = u64::from(self.dram.charge_burst_read(1));
            let value = self.spm_word(ri, woff);
            c += u64::from(self.regions[ri].write_word(woff, value));
            self.cycle += c;
            if let Some(fs) = self.faults.as_mut() {
                fs.stats.recovery_cycles += c;
            }
            // Strikes keep arriving while recovery runs; one may re-mark
            // this very line and force a retry.
            self.fault_inject_pending();
            let remarked = self
                .faults
                .as_mut()
                .is_some_and(|f| f.marks[ri].remove(word).is_some());
            self.fault_refresh_marked(ri);
            if !remarked {
                break;
            }
            if attempts > retry_limit {
                gave_up = true;
                break;
            }
        }
        let threshold = self
            .faults
            .as_ref()
            .map_or(u32::MAX, |f| f.config.quarantine_due_threshold);
        let mut quarantine = gave_up;
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.due_traps += 1;
            fs.stats.due_retries += u64::from(attempts - 1);
            let hits = fs.due_counts[ri].entry(word).or_insert(0);
            *hits += 1;
            quarantine = quarantine || *hits >= threshold;
        }
        self.fault_event(owner, AccessKind::DueTrap, region, woff, attempts, observer);
        if quarantine {
            let cause = if gave_up {
                QuarantineCause::RetryExhausted
            } else {
                QuarantineCause::DueThreshold
            };
            self.fault_quarantine(region, woff, cause, observer);
        }
    }

    /// One scrub-daemon pass: sweep-read every protected SRAM region,
    /// decode pending marks, rewrite correctable words, recover DUEs.
    fn fault_scrub(&mut self, observer: &mut dyn Observer) {
        for ri in 0..self.regions.len() {
            let scheme = self.regions[ri].spec().scheme();
            if !matches!(scheme, ProtectionScheme::Parity | ProtectionScheme::SecDed) {
                continue;
            }
            let region = crate::RegionId::new(ri);
            let words = self.regions[ri].spec().geometry().words();
            // The daemon reads the whole region each pass.
            let c = u64::from(self.regions[ri].read_batch(0, words));
            self.cycle += c;
            if let Some(fs) = self.faults.as_mut() {
                fs.stats.recovery_cycles += c;
            }
            // Batch-decode the marked words: one set-bit sweep of the
            // dirty bitmap into a reused scratch buffer (ascending word
            // order, exactly the order the old per-key map walk used),
            // instead of allocating a fresh Vec per pass.
            let mut marked = match self.faults.as_mut() {
                Some(f) => {
                    let mut buf = std::mem::take(&mut f.scrub_scratch);
                    f.marks[ri].collect_into(&mut buf);
                    buf
                }
                None => Vec::new(),
            };
            for &w in &marked {
                let woff = w * 4;
                let owner = self.owner_of(region, woff);
                self.fault_decode_word(owner, region, woff, true, observer);
            }
            if let Some(fs) = self.faults.as_mut() {
                marked.clear();
                fs.scrub_scratch = marked;
            }
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.scrub_passes += 1;
        }
    }

    /// Applies pending marks in a DMA-writeback window without the trap
    /// machinery: the outgoing DMA stream passes through the decoder, so
    /// correctable flips are fixed silently and aliasing flips corrupt
    /// the stream; DUE-class marks stay latent (the engine cannot recover
    /// mid-burst) and die with the vacated slot.
    fn fault_flush_marks(&mut self, region: crate::RegionId, offset: u32, words: u32) {
        let ri = region.index();
        if self.faults.as_ref().is_none_or(|f| f.marks[ri].is_empty()) {
            return;
        }
        let scheme = self.regions[ri].spec().scheme();
        let first = offset / 4;
        for w in first..first + words {
            let Some(mask) = self.faults.as_ref().and_then(|f| f.marks[ri].get(w)) else {
                continue;
            };
            match scheme.classify(mask.count_ones()) {
                ErrorClass::Dre => {
                    if let Some(fs) = self.faults.as_mut() {
                        fs.marks[ri].remove(w);
                        fs.stats.corrections += 1;
                    }
                }
                ErrorClass::Sdc => {
                    self.regions[ri].corrupt_word(w * 4, fold_data_mask(mask));
                    if let Some(fs) = self.faults.as_mut() {
                        fs.marks[ri].remove(w);
                        fs.stats.sdc_escapes += 1;
                    }
                }
                ErrorClass::Due | ErrorClass::Masked => {}
            }
        }
        self.fault_refresh_marked(ri);
    }

    /// Quarantines an STT line whose write count exceeded the configured
    /// endurance budget, demoting its owning block.
    fn fault_check_wear(
        &mut self,
        region: crate::RegionId,
        woff: u32,
        observer: &mut dyn Observer,
    ) {
        let ri = region.index();
        let Some(budget) = self
            .faults
            .as_ref()
            .and_then(|f| f.config.line_write_budget)
        else {
            return;
        };
        if self.regions[ri].spec().technology() != Technology::SttRam {
            return;
        }
        let line = (woff / 4) as usize;
        if self.regions[ri].line_writes()[line] <= budget {
            return;
        }
        self.fault_quarantine(region, woff, QuarantineCause::Wear, observer);
    }

    /// The block currently occupying `region` byte `woff`, with its slot
    /// base offset.
    fn owner_of(&self, region: crate::RegionId, woff: u32) -> Option<(BlockId, u32)> {
        for (block, p) in self.placement.iter() {
            let (r, base) = match p {
                Placement::Spm { region: r, offset } => (r, offset),
                Placement::Dynamic { region: r } => match self.dyn_offset[block.index()] {
                    Some(off) => (r, off),
                    None => continue,
                },
                Placement::OffChip => continue,
            };
            if r != region {
                continue;
            }
            let size = self.program.block(block).size_bytes();
            if woff >= base && woff < base + size {
                return Some((block, base));
            }
        }
        None
    }

    /// Quarantines a word line (first offence only) and demotes its
    /// owning block out of the degraded region.
    fn fault_quarantine(
        &mut self,
        region: crate::RegionId,
        woff: u32,
        cause: QuarantineCause,
        observer: &mut dyn Observer,
    ) {
        let ri = region.index();
        let line = woff / 4;
        let newly = self
            .faults
            .as_mut()
            .is_some_and(|f| f.quarantined[ri].insert(line));
        if !newly {
            return;
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.quarantined_lines += 1;
            fs.due_counts[ri].remove(&line);
        }
        observer.on_quarantine(&QuarantineEvent {
            cycle: self.cycle,
            region,
            line,
            cause,
        });
        if let Some((block, _)) = self.owner_of(region, woff) {
            self.remap_block(block, observer);
        }
    }

    /// Demotes `block` out of its (degraded) region: writes back the
    /// dirty copy, vacates the slot, and re-places the block dynamically
    /// in the region's configured demotion target (falling back to
    /// off-chip if there is none or the block cannot fit).
    fn remap_block(&mut self, block: BlockId, observer: &mut dyn Observer) {
        let old = self.placement.placement(block);
        let Some(region) = old.region() else { return };
        if let Some((_, offset)) = self.slots[block.index()] {
            if self.dirty[block.index()] {
                self.writeback(block, region, offset, observer);
            }
            self.slots[block.index()] = None;
            if old.is_dynamic() {
                let size = self.program.block(block).size_bytes();
                self.dyn_offset[block.index()] = None;
                self.dyn_free[region.index()].free(offset, size);
            }
        }
        let target = self
            .faults
            .as_ref()
            .and_then(|f| f.config.demotion.get(region.index()).copied().flatten())
            .filter(|t| *t != region);
        // Demote dynamically: no static space was reserved in the target,
        // so a full target degrades further to off-chip instead of
        // failing the run.
        let placed = match target {
            Some(t) => self
                .placement
                .place_dynamic(&self.program, block, t)
                .is_ok(),
            None => false,
        };
        if !placed {
            self.placement.place_off_chip(block);
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.remapped_blocks += 1;
        }
        // The placement map is shared by every core, so the remap is
        // atomic across cores by construction; invalidating any cached
        // shadow of the block closes the remaining stale-copy window.
        self.coh_invalidate_block(block);
        observer.on_remap(&RemapEvent {
            cycle: self.cycle,
            block,
            from: region,
            to: target.filter(|_| placed),
        });
    }

    /// Emits a fault/recovery observer event attributed to the owning
    /// block (unattributable events — e.g. scrub hits on vacant words —
    /// are counted in [`FaultStats`] but not traced), and distributes the
    /// event across the coherence hub's per-core/shared-block views.
    fn fault_event(
        &mut self,
        owner: Option<(BlockId, u32)>,
        kind: AccessKind,
        region: crate::RegionId,
        woff: u32,
        count: u32,
        observer: &mut dyn Observer,
    ) {
        let Some((block, base)) = owner else { return };
        self.coh_observe_fault(block, kind);
        if self.observe_accesses {
            observer.on_access(&AccessEvent {
                cycle: self.cycle,
                block,
                kind,
                target: Target::Region(region),
                offset: woff.saturating_sub(base),
                dma: false,
                count,
            });
        }
    }

    /// The stored word at region byte `woff`, free of timing or energy.
    fn spm_word(&self, ri: usize, woff: u32) -> u32 {
        let s = self.regions[ri].storage();
        let i = woff as usize;
        u32::from_le_bytes(s[i..i + 4].try_into().expect("aligned word"))
    }

    /// Reads a word's current value without charging timing or energy
    /// (byte-merge support and test inspection). Reads the SPM copy when
    /// the block is resident, the DRAM home copy otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::OffsetOutOfBounds`] on a bad offset.
    pub fn peek_block_word(&self, block: BlockId, offset: u32) -> Result<u32, SimError> {
        self.check_bounds(block, offset, 4)?;
        if let Some((region, base)) = self.slots[block.index()] {
            return Ok(self.spm_word(region.index(), base + offset));
        }
        Ok(self.dram.peek_word(block, offset))
    }

    /// Writes back dirty SPM-resident data blocks, charges leakage to every
    /// on-chip device for the elapsed cycles, and returns the final
    /// statistics. Idempotent after the first call.
    pub fn finish(&mut self, observer: &mut dyn Observer) -> MachineStats {
        if !self.finished {
            self.observe_accesses = observer.observes_accesses();
            // Write back dirty data blocks (the unmapping commands).
            let ids: Vec<BlockId> = self.program.iter().map(|(id, _)| id).collect();
            for block in ids {
                if !self.dirty[block.index()] || self.program.block(block).kind() != BlockKind::Data
                {
                    continue;
                }
                if let Some((region, offset)) = self.slots[block.index()] {
                    self.writeback(block, region, offset, observer);
                }
            }
            // Leakage over the whole run.
            let cycles = self.cycle;
            for r in &mut self.regions {
                let leak = r.leakage_mw();
                r.energy_mut().charge_static(self.clock, leak, cycles);
            }
            let il = self.icache.leakage_mw();
            self.icache
                .energy_mut()
                .charge_static(self.clock, il, cycles);
            let dl = self.dcache.leakage_mw();
            self.dcache
                .energy_mut()
                .charge_static(self.clock, dl, cycles);
            // Parked cores' caches leak for the whole run too.
            let clock = self.clock;
            if let Some(hub) = self.coh.as_deref_mut() {
                for pair in hub.parked.iter_mut().flatten() {
                    let il = pair.0.leakage_mw();
                    pair.0.energy_mut().charge_static(clock, il, cycles);
                    let dl = pair.1.leakage_mw();
                    pair.1.energy_mut().charge_static(clock, dl, cycles);
                }
            }
            self.finished = true;
        }
        self.stats()
    }

    /// A statistics snapshot (leakage is only included after
    /// [`Machine::finish`]).
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycle,
            instructions: self.instructions,
            regions: self
                .regions
                .iter()
                .enumerate()
                .map(|(i, r)| RegionStats {
                    name: r.spec().name().to_string(),
                    device: r.stats(),
                    program_reads: self.program_rw[i].0,
                    program_writes: self.program_rw[i].1,
                    max_line_writes: r.max_line_writes(),
                    dyn_evictions: self.dyn_evictions[i],
                    total_writes: r.total_writes(),
                    energy: r.energy().breakdown(),
                    leakage_mw: r.leakage_mw(),
                })
                .collect(),
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            dram: self.dram.stats(),
            icache_energy: self.icache.energy().breakdown(),
            dcache_energy: self.dcache.energy().breakdown(),
            dram_energy: self.dram.energy().breakdown(),
            faults: self.faults.as_ref().map(|f| f.stats),
        }
    }
}
