//! Crash-only campaign journal: append-only, CRC-framed shard records.
//!
//! A campaign that shards work over `ftspm_testkit::par` appends one
//! opaque payload per *completed* shard. If the process is `kill -9`'d
//! mid-campaign, the journal survives and a resumed run skips every
//! shard whose record decoded cleanly — and because each shard is an
//! independent deterministic simulation, the resumed final report is
//! byte-identical to an uninterrupted run.
//!
//! ## Framing
//!
//! ```text
//! magic  b"FTSPMJNL"            8 bytes
//! version u32 LE (currently 1)  4 bytes
//! record: len u32 LE | crc32 u32 LE | payload   (repeated)
//! ```
//!
//! The CRC is IEEE CRC-32 over the payload alone. Decoding
//! discriminates two failure shapes:
//!
//! - **Torn tail** ([`Tail::Torn`]): the file ends mid-record (inside
//!   the length/CRC header or short of `len` payload bytes). This is
//!   the expected signature of a crash between the start and end of a
//!   write, so it is *not* an error — the complete prefix is returned
//!   and the torn bytes are dropped; determinism recomputes that shard.
//! - **Corruption** ([`DecodeError::Corrupt`]): a *complete* record
//!   whose CRC does not match, or a header that is not this format.
//!   That is never a crash signature (writes are tmp+rename atomic), so
//!   it is a hard error rather than a silent wrong resume.
//!
//! ## Durability
//!
//! [`Journal::append`] rewrites the whole journal to `<path>.tmp`,
//! `fsync`s it, renames it over `<path>`, and `fsync`s the parent
//! directory — so at every instant the on-disk journal is a complete
//! prefix of campaign history and a torn main file can only come from
//! storage-level damage, which the CRC framing then catches.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic: the first 8 bytes of every journal.
pub const MAGIC: [u8; 8] = *b"FTSPMJNL";

/// Current framing version.
pub const VERSION: u32 = 1;

/// IEEE CRC-32 (the zlib/PNG polynomial, reflected), one table lookup
/// per byte.
///
/// Journal records and every `FTSPMTRC` chunk are framed with it, so a
/// trace upload pays it once per byte.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC32_TABLE[i]` is the CRC register after shifting byte `i` through
/// the bitwise algorithm.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// What the decoder found at the end of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The stream ended exactly on a record boundary.
    Clean,
    /// The stream ended mid-record (torn header, torn CRC, or payload
    /// shorter than its declared length). The complete prefix decoded;
    /// the torn bytes carry no usable record and were dropped.
    Torn,
}

/// A journal byte stream that cannot be decoded at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The stream does not start with [`MAGIC`] + [`VERSION`] (and is
    /// not a torn prefix of them): it is not a journal of this format.
    BadHeader,
    /// Record `index` is complete (its full payload is present) but its
    /// stored CRC does not match the payload. Atomic writes never
    /// produce this, so resuming would risk trusting damaged results.
    Corrupt {
        /// Zero-based index of the damaged record.
        index: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader => write!(f, "not an FTSPM journal (bad magic or version)"),
            Self::Corrupt { index } => {
                write!(f, "journal record {index} is complete but fails its CRC")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors from [`Journal::open`]: the decode failures plus plain I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The file exists but does not decode (see [`DecodeError`]).
    Decode(DecodeError),
    /// Reading or writing the file failed.
    Io(io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Decode(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "journal I/O: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Decode(e) => Some(e),
            Self::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DecodeError> for JournalError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

/// Decodes a journal byte stream into its complete records.
///
/// An empty stream is a valid empty journal. A stream that ends
/// mid-record yields the complete prefix with [`Tail::Torn`]. This
/// never panics, whatever the input.
///
/// # Errors
///
/// [`DecodeError::BadHeader`] when the stream is not this format;
/// [`DecodeError::Corrupt`] when a *complete* record fails its CRC.
pub fn decode(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, Tail), DecodeError> {
    if bytes.is_empty() {
        return Ok((Vec::new(), Tail::Clean));
    }
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(&MAGIC);
    header[8..].copy_from_slice(&VERSION.to_le_bytes());
    if bytes.len() < header.len() {
        return if header.starts_with(bytes) {
            Ok((Vec::new(), Tail::Torn))
        } else {
            Err(DecodeError::BadHeader)
        };
    }
    if bytes[..header.len()] != header {
        return Err(DecodeError::BadHeader);
    }
    let mut rest = &bytes[header.len()..];
    let mut records = Vec::new();
    loop {
        if rest.is_empty() {
            return Ok((records, Tail::Clean));
        }
        if rest.len() < 8 {
            // Cut inside the length or CRC field — the named
            // mid-CRC-cut case lands here.
            return Ok((records, Tail::Torn));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(8..8 + len) else {
            return Ok((records, Tail::Torn));
        };
        if crc32(payload) != stored_crc {
            return Err(DecodeError::Corrupt {
                index: records.len(),
            });
        }
        records.push(payload.to_vec());
        rest = &rest[8 + len..];
    }
}

/// Encodes `records` into journal bytes (header + framed records).
#[must_use]
pub fn encode(records: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = records.iter().map(|r| 8 + r.len()).sum();
    let mut out = Vec::with_capacity(12 + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for record in records {
        out.extend_from_slice(
            &u32::try_from(record.len())
                .expect("record < 4 GiB")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32(record).to_le_bytes());
        out.extend_from_slice(record);
    }
    out
}

/// Appends completed this process, for the `FTSPM_JOURNAL_CRASH_AFTER`
/// crash-testing knob (process-wide: campaigns run one journal).
static APPENDS: AtomicU64 = AtomicU64::new(0);

/// `kill -9` stand-in for CI: when `FTSPM_JOURNAL_CRASH_AFTER=n` is
/// set, the process aborts — no unwinding, no flushing, exactly like a
/// SIGKILL — immediately after the `n`-th successful append.
fn maybe_crash_after_append() {
    if let Ok(v) = std::env::var("FTSPM_JOURNAL_CRASH_AFTER") {
        if let Ok(n) = v.parse::<u64>() {
            if APPENDS.fetch_add(1, Ordering::SeqCst) + 1 >= n {
                std::process::abort();
            }
        }
    }
}

/// An append-only campaign journal backed by a file.
///
/// Payloads are opaque to the journal; campaigns store whatever lets
/// them skip a completed shard on resume (the recovery sweep stores the
/// shard's rendered artifacts keyed by cell index).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: Vec<Vec<u8>>,
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the header.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let journal = Self {
            path: path.into(),
            records: Vec::new(),
        };
        journal.persist()?;
        Ok(journal)
    }

    /// Opens an existing journal, tolerating a torn tail (the complete
    /// prefix loads; the torn bytes are dropped and will be rewritten
    /// away by the next [`append`](Self::append)). A missing file opens
    /// as an empty journal, so "resume" and "start" are one code path.
    ///
    /// # Errors
    ///
    /// [`JournalError::Decode`] when the file is not a journal or a
    /// complete record fails its CRC; [`JournalError::Io`] on I/O
    /// failures other than the file not existing.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, Tail), JournalError> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (records, tail) = decode(&bytes)?;
        Ok((Self { path, records }, tail))
    }

    /// The journal's complete records, in append order.
    #[must_use]
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and durably persists the journal before
    /// returning — after `append` returns, a `kill -9` cannot lose the
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory record list is unchanged
    /// when persisting fails.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.records.push(payload.to_vec());
        if let Err(e) = self.persist() {
            self.records.pop();
            return Err(e);
        }
        maybe_crash_after_append();
        Ok(())
    }

    /// Whole-file tmp+rename rewrite: the on-disk journal atomically
    /// goes from one complete prefix to the next, never through a
    /// partially-written state.
    fn persist(&self) -> Result<(), JournalError> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode(&self.records))?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        if let Some(parent) = self.path.parent() {
            let parent = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            // Make the rename itself durable. Directory fsync can be
            // unsupported on exotic filesystems; the rename already
            // happened, so treat that as best-effort.
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::crc32;
    use ftspm_testkit::rng::Rng;

    /// The bit-serial definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc32_matches_bitwise_on_random_buffers() {
        let mut rng = Rng::seed_from_u64(0xC3C3_2024);
        let lengths = (0..8).chain([31, 64, 257, 1000, 4096]);
        for len in lengths {
            for _ in 0..16 {
                let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}: {buf:?}");
            }
        }
    }
}
