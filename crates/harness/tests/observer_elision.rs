//! Access-event elision is invisible: an observer that keeps the default
//! `Observer::observes_accesses` still sees every program fetch, read and
//! write, and a `NullObserver` run — which builds no access events at
//! all — measures exactly what an observed run measures.

use std::collections::BTreeMap;

use ftspm_core::mda::run_mda;
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_harness::{profile_workload, RunBuilder, RunMetrics, StructureKind};
use ftspm_sim::{AccessEvent, AccessKind, Observer, RegionId, Target};
use ftspm_workloads::{CaseStudy, Workload};

/// Sums program (non-DMA) access events by kind and serving region.
#[derive(Default)]
struct Counting {
    /// `(region, reads incl. fetches, writes)` per SPM region.
    spm: BTreeMap<RegionId, (u64, u64)>,
    /// Fetched instructions, wherever they were served from.
    fetched: u64,
}

impl Observer for Counting {
    fn on_access(&mut self, e: &AccessEvent) {
        if e.dma {
            return;
        }
        let n = u64::from(e.count);
        if e.kind == AccessKind::Fetch {
            self.fetched += n;
        }
        if let Target::Region(r) = e.target {
            let entry = self.spm.entry(r).or_default();
            match e.kind {
                AccessKind::Fetch | AccessKind::Read => entry.0 += n,
                AccessKind::Write => entry.1 += n,
                _ => {}
            }
        }
    }
}

fn mapped_run(observer: Option<&mut dyn Observer>) -> RunMetrics {
    let structure = SpmStructure::ftspm();
    let profile = profile_workload(&mut CaseStudy::new());
    let mapping = run_mda(
        &CaseStudy::new().program().clone(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let mut w = CaseStudy::new();
    let builder = RunBuilder::new()
        .workload(&mut w)
        .structure(&structure, StructureKind::Ftspm)
        .mapping(mapping)
        .profile(&profile);
    match observer {
        Some(o) => builder.observer(o).run(),
        None => builder.run(),
    }
}

#[test]
fn default_observer_sees_every_program_access() {
    let mut counting = Counting::default();
    assert!(counting.observes_accesses(), "the provided default is true");
    let metrics = mapped_run(Some(&mut counting));
    assert!(metrics.checksum_ok);
    assert_eq!(counting.fetched, metrics.instructions);
    assert!(metrics.spm_accesses() > 0, "the kernel uses the SPM");
    for (i, t) in metrics.traffic.iter().enumerate() {
        let seen = counting
            .spm
            .get(&RegionId::new(i))
            .copied()
            .unwrap_or_default();
        assert_eq!(seen, (t.reads, t.writes), "region {}", t.region);
    }
}

#[test]
fn null_observer_run_measures_what_an_observed_run_measures() {
    let observed = mapped_run(Some(&mut Counting::default()));
    let unobserved = mapped_run(None);
    assert_eq!(format!("{observed:?}"), format!("{unobserved:?}"));
}
