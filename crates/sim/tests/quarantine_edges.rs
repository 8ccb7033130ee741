//! Graceful-degradation edge cases under the fault fast path, pinned as
//! named regressions: a strike landing on an already-quarantined line, a
//! scrub pass racing a DUE re-fetch, and (in
//! `fault_fastpath_props.rs::epoch_wraparound_still_detects_mutation`)
//! epoch-counter wraparound. Each scenario also runs through the
//! reference path and must agree byte for byte.

use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    AccessEvent, AccessKind, BlockId, Cpu, CpuConfig, FaultConfig, FaultStats, Machine,
    MachineConfig, NullObserver, Observer, Placement, PlacementMap, Program, RegionId, RemapEvent,
    SpmRegionSpec, Target,
};

/// Strikes that flip exactly two adjacent bits: on SEC-DED, every strike
/// decodes as a DUE — the trap machinery fires deterministically.
fn double_bit() -> MbuDistribution {
    MbuDistribution::new(0.0, 1.0, 0.0, 0.0)
}

/// A tiny 16-word SEC-DED region (so repeat strikes on one line are
/// certain), an immune STT demotion target, and one data block pinned in
/// the struck region.
fn setup(cfg: FaultConfig) -> (Machine, ftspm_sim::BlockId, ftspm_sim::BlockId) {
    let mut b = Program::builder("edges");
    let f = b.code("F", 256, 0);
    let d = b.data("D", 64);
    b.stack(256);
    let p = b.build();
    let specs = vec![
        SpmRegionSpec::new(
            "stt",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(1),
        ),
        SpmRegionSpec::new(
            "ecc",
            Technology::SramSecDed,
            ProtectionScheme::SecDed,
            RegionGeometry::from_bytes(64),
        ),
    ];
    let mut map = PlacementMap::new(&p, &specs);
    map.place(&p, d, RegionId::new(1)).unwrap();
    let m = Machine::new(MachineConfig::with_regions(specs).with_faults(cfg), p, map).unwrap();
    (m, f, d)
}

/// Writes then re-reads the block for `rounds` rounds, tolerating
/// corrupted read-backs (strikes here are DUE-class, so values stay
/// clean, but the helper does not assert it — the tests pin stats).
fn hammer(m: &mut Machine, f: ftspm_sim::BlockId, d: ftspm_sim::BlockId, rounds: u32) {
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(
        m,
        &mut o,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(f).unwrap();
    for w in 0..16 {
        cpu.write_u32(d, w * 4, 0xE000_0000 | w).unwrap();
    }
    for _ in 0..rounds {
        for w in 0..16 {
            cpu.read_u32(d, w * 4).unwrap();
        }
    }
    cpu.ret().unwrap();
}

/// One full scenario run; `reference` selects the oracle path.
fn run(
    cfg_mut: impl Fn(&mut FaultConfig),
    reference: bool,
) -> (FaultStats, u64, Vec<u32>, Vec<u32>) {
    let mut cfg = FaultConfig::new(0xED6E, 30.0);
    cfg.mbu = double_bit();
    cfg.targets = Some(vec![RegionId::new(1)]);
    cfg.quarantine_due_threshold = 1;
    cfg.demotion = vec![None, Some(RegionId::new(0))];
    cfg.reference_path = reference;
    cfg_mut(&mut cfg);
    let (mut m, f, d) = setup(cfg);
    hammer(&mut m, f, d, 60);
    let region = RegionId::new(1);
    (
        m.fault_stats().unwrap(),
        m.cycle(),
        m.pending_marks(region),
        m.quarantined_lines(region),
    )
}

/// Strikes keep landing on lines that are already quarantined (16 words,
/// dozens of strikes): the quarantine must count each line once, remap
/// its owner once, and never double-book.
#[test]
fn strikes_on_already_quarantined_lines_count_once() {
    let (stats, _, _, quarantined) = run(|_| {}, false);
    assert!(stats.due_traps > 0, "{stats:?}");
    assert!(
        stats.quarantined_lines >= 1,
        "first DUE quarantines: {stats:?}"
    );
    assert_eq!(
        stats.quarantined_lines,
        quarantined.len() as u64,
        "stats and machine state agree on the quarantine set"
    );
    assert!(
        stats.quarantined_lines <= 16,
        "a 16-word region cannot lose more than 16 lines: {stats:?}"
    );
    assert!(
        stats.strikes > stats.quarantined_lines,
        "repeat strikes on quarantined lines landed and were not \
         double-counted: {stats:?}"
    );
    assert_eq!(
        stats.remapped_blocks, 1,
        "the single resident block demotes exactly once: {stats:?}"
    );
}

/// The same scenario remaps the victim into the immune STT region and
/// stays byte-identical across the fast and reference paths.
#[test]
fn quarantine_scenario_agrees_with_reference_path() {
    let fast = run(|_| {}, false);
    let reference = run(|_| {}, true);
    assert_eq!(fast, reference, "fast vs reference diverged");
}

/// A strike re-marks the struck line *while its DUE recovery is still
/// re-fetching* (the injector keeps running mid-recovery), forcing a
/// retry; meanwhile the scrub daemon is sweeping the same region. The
/// interleaving must replay identically on both paths.
#[test]
fn scrub_racing_due_refetch_replays_identically() {
    let scenario = |reference| {
        run(
            |cfg| {
                cfg.seed = 0x5C3B_0001;
                cfg.mean_cycles_between_strikes = 8.0;
                cfg.scrub_interval = Some(400);
                cfg.quarantine_due_threshold = u32::MAX; // keep lines in play
            },
            reference,
        )
    };
    let fast = scenario(false);
    let reference = scenario(true);
    let (stats, _, _, _) = &fast;
    assert!(
        stats.due_retries > 0,
        "a mid-recovery strike forced at least one re-fetch retry: {stats:?}"
    );
    assert!(stats.scrub_passes > 0, "the daemon swept: {stats:?}");
    assert!(
        stats.scrub_corrections == 0,
        "2-bit flips are never DRE on SEC-DED: {stats:?}"
    );
    assert_eq!(fast, reference, "fast vs reference diverged");
}

/// Demotion lands the victim in the immune region after its first DUE.
#[test]
fn quarantined_victim_demotes_to_immune_region() {
    let mut cfg = FaultConfig::new(0xED6E, 30.0);
    cfg.mbu = double_bit();
    cfg.targets = Some(vec![RegionId::new(1)]);
    cfg.quarantine_due_threshold = 1;
    cfg.demotion = vec![None, Some(RegionId::new(0))];
    let (mut m, f, d) = setup(cfg);
    hammer(&mut m, f, d, 60);
    assert_eq!(
        m.placement().placement(d),
        Placement::Dynamic {
            region: RegionId::new(0)
        },
        "victim demoted to the immune STT region"
    );
    assert!(m.fault_stats().unwrap().sdc_escapes == 0);
}

/// Records the first remap and the serving target of every later
/// program access to the watched block.
struct RemapWatch {
    block: BlockId,
    remapped_to: Option<Option<RegionId>>,
    targets_after: Vec<Target>,
}

impl Observer for RemapWatch {
    fn on_remap(&mut self, e: &RemapEvent) {
        if e.block == self.block && self.remapped_to.is_none() {
            self.remapped_to = Some(e.to);
        }
    }

    fn on_access(&mut self, e: &AccessEvent) {
        let program = matches!(e.kind, AccessKind::Read | AccessKind::Write);
        if self.remapped_to.is_some() && e.block == self.block && program && !e.dma {
            self.targets_after.push(e.target);
        }
    }
}

/// Named regression for the resolved-slot table: quarantine clears the
/// demoted block's cached slot, so its next access lands in the demotion
/// target (with its data intact), never in the quarantined region.
#[test]
fn quarantine_remapped_block_next_access_lands_in_demotion_target() {
    let mut cfg = FaultConfig::new(0xED6E, 30.0);
    cfg.mbu = double_bit();
    cfg.targets = Some(vec![RegionId::new(1)]);
    cfg.quarantine_due_threshold = 1;
    cfg.demotion = vec![None, Some(RegionId::new(0))];
    let (mut m, f, d) = setup(cfg);
    let mut watch = RemapWatch {
        block: d,
        remapped_to: None,
        targets_after: Vec::new(),
    };
    let mut cpu = Cpu::with_config(
        &mut m,
        &mut watch,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(f).unwrap();
    for w in 0..16 {
        cpu.write_u32(d, w * 4, 0xE000_0000 | w).unwrap();
    }
    for _ in 0..60 {
        for w in 0..16 {
            // DUE-class strikes never corrupt storage, before or after
            // the remap.
            assert_eq!(cpu.read_u32(d, w * 4).unwrap(), 0xE000_0000 | w);
        }
    }
    cpu.ret().unwrap();
    drop(cpu);
    assert_eq!(watch.remapped_to, Some(Some(RegionId::new(0))));
    assert!(!watch.targets_after.is_empty(), "accesses after the remap");
    assert!(
        watch
            .targets_after
            .iter()
            .all(|t| *t == Target::Region(RegionId::new(0))),
        "{:?}",
        watch.targets_after
    );
}
