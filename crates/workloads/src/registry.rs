//! The kernel registry: every named workload, keyed by its stable wire
//! name.
//!
//! One ordered table of [`KernelEntry`] values carries each kernel's
//! stable name, default seed, suite membership, and a monomorphic build
//! function; the evaluation sweeps and the serve crate's name table all
//! read it.

use crate::Workload;

/// One named kernel in the registry.
pub struct KernelEntry {
    name: &'static str,
    default_seed: Option<u64>,
    suite: bool,
    build: fn(u64) -> Box<dyn Workload>,
}

impl KernelEntry {
    /// The stable wire name (`"crc32"`, `"case_study"`, ...).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The default input seed, or `None` for seedless kernels
    /// (`case_study` takes no seed; passing one to it is a caller
    /// error the serve decoder rejects).
    #[must_use]
    pub fn default_seed(&self) -> Option<u64> {
        self.default_seed
    }

    /// Whether the kernel is seedless (its output ignores any seed).
    #[must_use]
    pub fn seedless(&self) -> bool {
        self.default_seed.is_none()
    }

    /// Whether the kernel belongs to the 13-kernel MiBench-substitute
    /// suite (excludes `case_study` and the `stream` pipeline).
    #[must_use]
    pub fn in_suite(&self) -> bool {
        self.suite
    }

    /// Builds the kernel with `seed`, falling back to the default seed
    /// when `None` (seedless kernels ignore the seed entirely).
    #[must_use]
    pub fn build(&self, seed: Option<u64>) -> Box<dyn Workload> {
        (self.build)(seed.or(self.default_seed).unwrap_or(0))
    }
}

impl std::fmt::Debug for KernelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelEntry")
            .field("name", &self.name)
            .field("default_seed", &self.default_seed)
            .field("suite", &self.suite)
            .finish()
    }
}

macro_rules! entry {
    ($name:literal, seedless, $suite:expr, $ty:ty) => {
        KernelEntry {
            name: $name,
            default_seed: None,
            suite: $suite,
            build: |_| Box::new(<$ty>::new()),
        }
    };
    ($name:literal, $seed:literal, $suite:expr, $ty:ty) => {
        KernelEntry {
            name: $name,
            default_seed: Some($seed),
            suite: $suite,
            build: |seed| Box::new(<$ty>::new(seed)),
        }
    };
}

/// The registry table, in canonical order: the case study first, then
/// the suite in its historical order, then the extras. The order is
/// stable — [`evaluation_set`] and the evaluation sweeps depend on it.
const REGISTRY: &[KernelEntry] = &[
    entry!("case_study", seedless, false, crate::CaseStudy),
    entry!("qsort", 0xF75F, true, crate::QSort),
    entry!("bitcount", 0xB17C, true, crate::BitCount),
    entry!("basicmath", 0xBA51, true, crate::BasicMath),
    entry!("crc32", 0xC3C3, true, crate::Crc32),
    entry!("sha", 0x54A1, true, crate::Sha1),
    entry!("dijkstra", 0xD1D1, true, crate::Dijkstra),
    entry!("stringsearch", 0x5EA3, true, crate::StringSearch),
    entry!("fft", 0xFF7A, true, crate::Fft),
    entry!("susan", 0x5A5A, true, crate::Susan),
    entry!("jpeg", 0xDC7A, true, crate::JpegDct),
    entry!("adpcm", 0xADCA, true, crate::Adpcm),
    entry!("rijndael", 0xAE5C, true, crate::Rijndael),
    entry!("patricia", 0x9A72, true, crate::Patricia),
    entry!("stream", 0x57E4, false, crate::StreamPipeline),
];

/// Every named kernel, in canonical order.
#[must_use]
pub fn registry() -> &'static [KernelEntry] {
    REGISTRY
}

/// Looks a kernel up by its stable name.
#[must_use]
pub fn find(name: &str) -> Option<&'static KernelEntry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The stable names of every registered kernel, in canonical order —
/// the list a typed unknown-workload error echoes back to the caller.
#[must_use]
pub fn kernel_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

/// Builds the paper's evaluation set at default seeds: the case study
/// followed by the 13-kernel suite.
#[must_use]
pub fn evaluation_set() -> Vec<Box<dyn Workload>> {
    REGISTRY
        .iter()
        .filter(|e| e.name == "case_study" || e.suite)
        .map(|e| e.build(None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_is_complete_and_uniquely_named() {
        assert_eq!(REGISTRY.len(), 15);
        let mut names = kernel_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
        assert_eq!(REGISTRY.iter().filter(|e| e.in_suite()).count(), 13);
        assert!(find("case_study").expect("registered").seedless());
        assert!(find("no_such_kernel").is_none());
        let set = evaluation_set();
        assert_eq!(set.len(), 14);
        assert_eq!(set[0].name(), "case_study");
    }

    #[test]
    fn entries_build_the_kernel_they_name() {
        for e in registry() {
            let w = e.build(None);
            assert_eq!(w.name(), e.name(), "entry builds a different kernel");
        }
    }

    #[test]
    fn seed_overrides_reach_the_kernel() {
        let e = find("crc32").expect("registered");
        let a = e.build(None);
        let b = e.build(Some(1));
        assert_ne!(
            a.expected_checksum(),
            b.expected_checksum(),
            "override must change the input"
        );
    }

    #[test]
    fn every_program_declares_a_stack() {
        for w in evaluation_set() {
            assert!(
                w.program().stack_block().is_some(),
                "{} lacks a stack block",
                w.name()
            );
        }
    }

    #[test]
    fn every_program_has_code_and_data() {
        for w in evaluation_set() {
            assert!(!w.program().code_blocks().is_empty(), "{}", w.name());
            assert!(w.program().data_blocks().len() >= 2, "{}", w.name());
        }
    }
}
