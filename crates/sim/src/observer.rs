//! Event hooks: how the profiler (and tests) watch a running machine.

use crate::{BlockId, RegionId};

/// What kind of memory operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch from a code block.
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// The protection scheme corrected a struck word in place (DRE); the
    /// event's `count` is 1 and its cost is already in the cycle counter.
    Correction,
    /// A detected-unrecoverable error trapped and the machine re-fetched
    /// the clean copy; `count` is the number of recovery attempts.
    DueTrap,
    /// A strike aliased past the protection scheme and silently corrupted
    /// stored data (SDC).
    SdcEscape,
    /// The scrub daemon rewrote a correctable word during a sweep.
    Scrub,
}

/// Which device served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// An SPM region.
    Region(RegionId),
    /// The L1 instruction cache (code block left off-chip).
    ICache {
        /// Whether the access hit in the cache.
        hit: bool,
    },
    /// The L1 data cache (data block left off-chip).
    DCache {
        /// Whether the access hit in the cache.
        hit: bool,
    },
}

/// One memory access performed by the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Machine cycle at which the access completed.
    pub cycle: u64,
    /// The program block accessed (for fetches, the executing code block).
    pub block: BlockId,
    /// Fetch / read / write.
    pub kind: AccessKind,
    /// Device that served the access.
    pub target: Target,
    /// Byte offset within the block.
    pub offset: u32,
    /// True for DMA traffic (block map-in / writeback), which the paper's
    /// profiling explicitly excludes from block statistics.
    pub dma: bool,
    /// Number of word accesses this event represents (batched fetches and
    /// DMA bursts are reported as one event; ordinary loads/stores are 1).
    pub count: u32,
}

/// Why a word line was pulled out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineCause {
    /// The line trapped (DUE) often enough to cross the configured
    /// quarantine threshold.
    DueThreshold,
    /// A single DUE recovery exhausted its retry budget — strikes kept
    /// re-marking the line while recovery ran.
    RetryExhausted,
    /// An STT-RAM line exceeded its endurance write budget.
    Wear,
}

impl QuarantineCause {
    /// Short machine-readable label (used by trace exporters).
    pub fn label(self) -> &'static str {
        match self {
            QuarantineCause::DueThreshold => "due_threshold",
            QuarantineCause::RetryExhausted => "retry_exhausted",
            QuarantineCause::Wear => "wear",
        }
    }
}

/// A word line was quarantined (graceful-degradation decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Machine cycle of the decision.
    pub cycle: u64,
    /// The degraded region.
    pub region: RegionId,
    /// Word-line index within the region.
    pub line: u32,
    /// What pushed the line over the edge.
    pub cause: QuarantineCause,
}

/// A block was demoted out of a degraded region (remap decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapEvent {
    /// Machine cycle of the decision.
    pub cycle: u64,
    /// The demoted block.
    pub block: BlockId,
    /// The region the block was evicted from.
    pub from: RegionId,
    /// The demotion target (`None` = the block went off-chip).
    pub to: Option<RegionId>,
}

/// Observer of a running machine. All methods have empty defaults; a
/// profiler overrides what it needs. Every hook takes its event by
/// reference so the hot fetch/decode loops never copy event payloads
/// into observer calls.
pub trait Observer {
    /// Whether this observer consumes [`Observer::on_access`] events.
    /// The machine asks once per [`crate::Cpu`] and, on `false`, never
    /// builds an [`AccessEvent`] for it. Only an observer whose
    /// `on_access` ignores every event may return `false`: the events
    /// carry no simulation state, so skipping them changes nothing else.
    fn observes_accesses(&self) -> bool {
        true
    }

    /// A memory access completed.
    fn on_access(&mut self, _event: &AccessEvent) {}

    /// Control entered a code block (a call), at `cycle`.
    fn on_block_enter(&mut self, _block: BlockId, _cycle: u64) {}

    /// Control left a code block (a return), at `cycle`.
    fn on_block_exit(&mut self, _block: BlockId, _cycle: u64) {}

    /// The stack pointer reached `depth_bytes` bytes of occupancy after a
    /// call into `block`.
    fn on_stack_depth(&mut self, _block: BlockId, _depth_bytes: u32) {}

    /// The fault subsystem quarantined a word line.
    fn on_quarantine(&mut self, _event: &QuarantineEvent) {}

    /// The fault subsystem demoted a block out of a degraded region.
    fn on_remap(&mut self, _event: &RemapEvent) {}
}

/// An observer that ignores everything (for unobserved runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn observes_accesses(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_accepts_events() {
        let mut o = NullObserver;
        assert!(!o.observes_accesses());
        o.on_access(&AccessEvent {
            cycle: 0,
            block: BlockId(0),
            kind: AccessKind::Read,
            target: Target::Region(RegionId(0)),
            offset: 0,
            dma: false,
            count: 1,
        });
        o.on_block_enter(BlockId(0), 1);
        o.on_block_exit(BlockId(0), 2);
        o.on_stack_depth(BlockId(0), 64);
        o.on_quarantine(&QuarantineEvent {
            cycle: 3,
            region: RegionId(0),
            line: 7,
            cause: QuarantineCause::Wear,
        });
        o.on_remap(&RemapEvent {
            cycle: 4,
            block: BlockId(0),
            from: RegionId(0),
            to: None,
        });
    }

    #[test]
    fn quarantine_causes_have_distinct_labels() {
        let labels = [
            QuarantineCause::DueThreshold.label(),
            QuarantineCause::RetryExhausted.label(),
            QuarantineCause::Wear.label(),
        ];
        assert_eq!(labels, ["due_threshold", "retry_exhausted", "wear"]);
    }
}
