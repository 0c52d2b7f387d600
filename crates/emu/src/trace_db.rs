//! Persistent, mmap-friendly on-disk store for oracle traces.
//!
//! A [`TraceDb`] is a directory of `.trc` files, one per workload name,
//! laid out as `<dir>/<name>.trc`: a fixed little-endian header followed
//! by one record per dynamic instruction (its logical [`DynInsn`]),
//! consumed by a sequential chunked decode into a compact [`Trace`] (8
//! bytes per record in memory, against a table of static instructions). A
//! name means one file: the last [`TraceDb::save`] or [`TraceDb::import`]
//! of a name replaces it. The simulator keeps imported (externally
//! captured) traces here; it emulates its own suite's traces, which is
//! faster than decoding them. A run resolves an imported workload's name
//! once, with [`TraceDb::open`], and decodes the file it holds open from
//! then on ([`OpenTrace`]).
//!
//! A store in the old `<dir>/<name>/<len>.trc` layout is migrated when
//! [`TraceDb::at`] opens it.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"RCMCTRCE"
//!      8     4  format version   (FORMAT_VERSION — file layout)
//!     12     4  trace version    (TRACE_VERSION — emulator semantics,
//!                                 independent of the timing MODEL_VERSION)
//!     16     8  key length       (the requested trace length; checked
//!                                 by TraceDb::load)
//!     24     8  instruction count
//!     32     8  checksum         (4-lane FNV-1a over the LOGICAL records:
//!                                 lane j folds 8-byte word j of each
//!                                 record, lanes FNV-mixed at the end —
//!                                 identical across format versions)
//!     40     4  static instruction count of the source program
//!     44     1  halted flag      (1 = ran to `halt`, 0 = hit the budget)
//!     45     3  reserved (zero)
//!     48     2  name length
//!     50    14  reserved (zero)
//!     64     n  name (UTF-8), zero-padded to the next multiple of 32
//!   ....    ..  payload: one record per dynamic instruction
//! ```
//!
//! A record's **logical** form is four 8-byte words: the instruction's
//! ISA encoding ([`rcmc_isa::encode()`]), `pc | next_pc << 32`, `mem_addr`,
//! and a reserved all-zero word.
//!
//! * **Format v1** stored the four words verbatim — 32 bytes per record,
//!   roughly three quarters of them zero (non-memory instructions have no
//!   `mem_addr`; the reserved word never held anything).
//! * **Format v2** (what this build writes) run-length-compresses exactly
//!   those zeros: each record is one control byte whose low four bits flag
//!   the nonzero words, followed by only those words. A typical non-memory
//!   instruction costs 17 bytes instead of 32.
//!
//! The checksum always covers the logical words, so it vouches for the
//! *decoded* instructions identically under both layouts.
//!
//! ## One decoder
//!
//! Every read of a whole file — [`TraceDb::load`]/[`TraceDb::load_full`]
//! (what `rcmc trace verify` runs), [`OpenTrace::load`] and
//! [`TraceDb::import`] (which upgrades v1 files to v2) — goes through one
//! private streaming decoder, so one file gets one verdict whichever of
//! them reads it. It checks the magic and both versions on the fixed 64
//! bytes before it reads the name region, then walks the payload through a
//! bounded scratch window one record at a time (a fixed 32-byte v1 record
//! or a v2 control-byte record), folding the checksum in the same pass. The
//! file stores every record's instruction in full; the decoder interns each
//! distinct (pc, instruction) pair once into the trace's static table, so
//! the full ISA decoder (operand signature included) runs only the first
//! time a pair appears, and packs the record against it ([`Trace::push`]):
//! a static id plus one 32-bit word, or an entry in the trace's escape
//! table for a record its instruction cannot derive (an address past 32
//! bits, an address on a non-memory instruction, a `next_pc` the
//! instruction would not produce). A record whose instruction does not
//! decode, or whose static id or escape index does not fit, is reported as
//! [`TraceDbError::BadRecord`] at its own index, the first that carries
//! the word. The encoder writes the unpacked logical records, so the
//! in-memory packing changes neither the file bytes nor the checksum.
//! [`TraceDb::scan`], [`TraceDb::list`] and [`TraceDb::open`] read headers
//! only.
//!
//! ## Versioning rules
//!
//! * [`FORMAT_VERSION`] changes when the byte layout changes; older layouts
//!   this build can still read are listed in `READABLE_FORMATS`.
//! * [`TRACE_VERSION`] changes when the *emulator's semantics* change such
//!   that a re-emulated trace could differ. It is deliberately independent
//!   of the timing model's `MODEL_VERSION`: timing changes never invalidate
//!   traces.
//!
//! A stored trace is **ignored, never trusted**: [`TraceDb::load`] returns
//! `None` (a miss) unless the magic, both versions, the embedded name/key,
//! the payload size and the checksum all check out.
//! Writes go through a temp file + atomic rename (exactly like the result
//! store), so concurrent writers — threads or processes racing on one
//! name — can only ever leave a complete, valid file behind.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rcmc_isa::{encode, Insn};

use crate::trace::{DynInsn, StaticInsn, Trace, TraceRec};

/// File-layout version this build writes; bump when the byte layout
/// changes. v2 = zero-run compressed records (v1 = fixed 32-byte records,
/// still readable).
pub const FORMAT_VERSION: u32 = 2;

/// Layout versions this build can decode.
const READABLE_FORMATS: [u32; 2] = [1, 2];

/// Emulator-semantics version; bump when re-emulating a program could
/// produce a different dynamic stream. Independent of the timing model's
/// `MODEL_VERSION`.
pub const TRACE_VERSION: u32 = 1;

/// Bytes per **logical** dynamic-instruction record (the v1 on-disk width;
/// v2 records are variable, between 1 and [`V2_MAX_RECORD`] bytes).
pub const RECORD_BYTES: usize = 32;

/// Largest possible v2 record: control byte + all four words nonzero.
pub const V2_MAX_RECORD: usize = 1 + RECORD_BYTES;

/// Valid bits of a v2 control byte (one per logical word).
const V2_WORD_MASK: u8 = 0x0f;

const MAGIC: &[u8; 8] = b"RCMCTRCE";
const HEADER_BASE: usize = 64;

/// Why a stored trace was rejected (surfaced by [`TraceDb::load_full`] and
/// `rcmc trace verify`; [`TraceDb::load`] folds all of these into `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDbError {
    /// The file could not be read.
    Io(String),
    /// The magic bytes do not match.
    BadMagic,
    /// Written with a different file layout.
    WrongFormatVersion(u32),
    /// Written by an emulator with different semantics.
    WrongTraceVersion(u32),
    /// The embedded name or key length disagrees with the requested key.
    KeyMismatch,
    /// The file is shorter than its header claims.
    Truncated,
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// A payload record does not decode to a valid instruction.
    BadRecord(usize),
    /// An import under a name the caller reserves ([`TraceDb::import`]).
    ReservedName(String),
}

impl std::fmt::Display for TraceDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDbError::Io(e) => write!(f, "i/o: {e}"),
            TraceDbError::BadMagic => write!(f, "bad magic (not a trace file)"),
            TraceDbError::WrongFormatVersion(v) => {
                write!(f, "format version {v} (this build reads {FORMAT_VERSION})")
            }
            TraceDbError::WrongTraceVersion(v) => {
                write!(f, "trace version {v} (this build emits {TRACE_VERSION})")
            }
            TraceDbError::KeyMismatch => write!(f, "embedded name/length disagrees with the key"),
            TraceDbError::Truncated => write!(f, "truncated payload"),
            TraceDbError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            TraceDbError::BadRecord(i) => write!(f, "record {i} does not decode"),
            TraceDbError::ReservedName(n) => write!(f, "the name '{n}' is reserved"),
        }
    }
}

impl std::error::Error for TraceDbError {}

/// Catalog entry for one stored trace ([`TraceDb::list`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Workload name (the file is `<name>.trc`).
    pub name: String,
    /// Requested trace length, as recorded in the header.
    pub len: u64,
    /// Dynamic instructions actually stored.
    pub insns: u64,
    /// On-disk file size in bytes.
    pub bytes: u64,
    /// Trace version the file was written with.
    pub trace_version: u32,
    /// Whether the traced program ran to `halt`.
    pub halted: bool,
    /// The header's payload checksum: the identity of the stored records,
    /// read without decoding them.
    pub checksum: u64,
}

/// Distinguishes concurrent writers' temp files within one process; the
/// pid distinguishes processes.
static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A directory of versioned, checksummed oracle-trace files.
///
/// Cloning is cheap (the handle is just the root path); every operation
/// opens the files it needs, so one handle can be shared freely across
/// threads.
#[derive(Clone, Debug)]
pub struct TraceDb {
    dir: PathBuf,
}

impl TraceDb {
    /// A store rooted at `dir` (created on first write). A store in the
    /// old `<name>/<len>.trc` layout is migrated, best effort: in each
    /// directory holding a `<len>.trc` file, the file a run of `name` read
    /// before — the longest whose header names `(name, len)` — becomes
    /// `<name>.trc`, unless that file exists, and the directory is
    /// deleted, since no run could read the rest. A store with no such
    /// directory is only read.
    pub fn at(dir: PathBuf) -> TraceDb {
        let db = TraceDb { dir };
        db.migrate();
        db
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Only names that can never escape the store directory or collide
    /// with the temp-file protocol are accepted as keys.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 128
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.trc"))
    }

    /// Load and fully validate the trace stored under `name`, whose header
    /// must record the requested length `len`. Every rejection reason is
    /// explicit; callers that only care about hit-or-miss use
    /// [`TraceDb::load`].
    pub fn load_full(&self, name: &str, len: u64) -> Result<Trace, TraceDbError> {
        if !Self::valid_name(name) {
            return Err(TraceDbError::KeyMismatch);
        }
        let f = std::fs::File::open(self.path_of(name)).map_err(io_err)?;
        let file_len = f.metadata().map_err(io_err)?.len();
        decode(f, file_len, Some((name, len))).map(|(_, t)| t)
    }

    /// Load the trace stored under `(name, len)`, or `None` if absent,
    /// stale (older format/trace version) or corrupt in any way — a
    /// stored trace is never trusted without passing every check.
    pub fn load(&self, name: &str, len: u64) -> Option<Arc<Trace>> {
        self.load_full(name, len).ok().map(Arc::new)
    }

    /// The trace a run of workload `name` reads, held open:
    /// `<dir>/<name>.trc`, whose header must parse and name `name` (the
    /// payload is not read). `Ok(None)` when no such file exists; a file
    /// whose header is damaged is an error, not a missing trace.
    pub fn open(&self, name: &str) -> Result<Option<OpenTrace>, TraceDbError> {
        if !Self::valid_name(name) {
            return Ok(None);
        }
        Ok(
            open_named(&self.path_of(name), name)?.map(|(file, h)| OpenTrace {
                name: h.name,
                len: h.key_len,
                checksum: h.checksum,
                file: Mutex::new(file),
            }),
        )
    }

    /// Persist `trace` as `name`'s one file, recording `len` in its
    /// header, via temp file + atomic rename: it replaces whatever was
    /// stored under `name`. Returns whether the trace is now durably on
    /// disk.
    pub fn save(&self, name: &str, len: u64, trace: &Trace) -> bool {
        Self::valid_name(name)
            && write_atomic(&self.path_of(name), &encode_file(name, len, trace)).is_ok()
    }

    /// Copy an already-encoded trace file into the store after full
    /// validation, under `rename` or else the name in its header,
    /// replacing whatever was stored under that name; a v1 file is stored
    /// as v2. A name `reserved` matches is refused, and nothing is
    /// written. Returns the catalog entry of the stored file.
    pub fn import(
        &self,
        file_bytes: &[u8],
        rename: Option<&str>,
        reserved: impl Fn(&str) -> bool,
    ) -> Result<TraceMeta, TraceDbError> {
        let (header, trace) = decode(file_bytes, file_bytes.len() as u64, None)?;
        let name = rename.unwrap_or(&header.name).to_string();
        if !Self::valid_name(&name) {
            return Err(TraceDbError::KeyMismatch);
        }
        if reserved(&name) {
            return Err(TraceDbError::ReservedName(name));
        }
        let bytes = encode_file(&name, header.key_len, &trace);
        write_atomic(&self.path_of(&name), &bytes).map_err(io_err)?;
        Ok(meta(name, &header, bytes.len() as u64))
    }

    /// Every `<name>.trc` file in the store, sorted by name: its catalog
    /// entry if its header parses and names `name`, else why not (the
    /// payload is not read). Files whose stem is not a valid name are not
    /// traces and are skipped.
    pub fn scan(&self) -> Vec<(String, Result<TraceMeta, TraceDbError>)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<_> = entries
            .flatten()
            .filter_map(|entry| {
                let fname = entry.file_name();
                let name = fname.to_str()?.strip_suffix(".trc")?;
                if !Self::valid_name(name) {
                    return None;
                }
                // `None`: removed since the directory was read.
                let opened = open_named(&entry.path(), name).transpose()?;
                let meta = opened.and_then(|(file, h)| {
                    let bytes = file.metadata().map_err(io_err)?.len();
                    Ok(meta(name.to_string(), &h, bytes))
                });
                Some((name.to_string(), meta))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The readable entries of [`TraceDb::scan`]: every stored trace whose
    /// header parses and names its file, sorted by name.
    pub fn list(&self) -> Vec<TraceMeta> {
        self.scan()
            .into_iter()
            .filter_map(|(_, m)| m.ok())
            .collect()
    }

    /// Delete the trace stored under `name`. Returns whether a file was
    /// deleted. A trace already held open ([`TraceDb::open`]) stays
    /// readable through its handle.
    pub fn remove(&self, name: &str) -> bool {
        Self::valid_name(name) && std::fs::remove_file(self.path_of(name)).is_ok()
    }

    /// The old-layout migration of [`TraceDb::at`].
    fn migrate(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let (old, name) = (entry.path(), entry.file_name());
            let name = name.to_string_lossy();
            let Ok(files) = std::fs::read_dir(&old) else {
                continue; // not a directory
            };
            let mut lens: Vec<u64> = files
                .flatten()
                .filter_map(|f| f.file_name().to_str()?.strip_suffix(".trc")?.parse().ok())
                .collect();
            if lens.is_empty() || !Self::valid_name(&name) {
                continue;
            }
            let target = self.path_of(&name);
            lens.sort_unstable_by(|a, b| b.cmp(a)); // longest first
            let resolved = lens
                .into_iter()
                .map(|len| (len, old.join(format!("{len}.trc"))))
                .find(|(len, p)| {
                    matches!(open_named(p, &name), Ok(Some((_, h))) if h.key_len == *len)
                });
            if let Some((_, file)) = resolved.filter(|_| !target.exists()) {
                let _ = std::fs::rename(file, &target);
            }
            let _ = std::fs::remove_dir_all(&old);
        }
    }
}

/// The catalog entry of a file stored as `name` with header `h`.
fn meta(name: String, h: &Header, bytes: u64) -> TraceMeta {
    TraceMeta {
        name,
        len: h.key_len,
        insns: h.insn_count,
        bytes,
        trace_version: h.trace_version,
        halted: h.halted,
        checksum: h.checksum,
    }
}

/// The file at `path`, opened, with its header, which must parse and name
/// `name` (the payload is not read). `Ok(None)` if there is no such file.
fn open_named(path: &Path, name: &str) -> Result<Option<(std::fs::File, Header)>, TraceDbError> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    let h = read_header(&mut file)?;
    if h.name != name {
        return Err(TraceDbError::KeyMismatch);
    }
    Ok(Some((file, h)))
}

/// One stored trace file, held open from [`TraceDb::open`] on. On Unix an
/// open file outlives its directory entry, so a later
/// [`TraceDb::remove`], or a save or import that renames another file
/// over it, does not change what [`OpenTrace::load`] decodes.
#[derive(Debug)]
pub struct OpenTrace {
    name: String,
    len: u64,
    checksum: u64,
    file: Mutex<std::fs::File>,
}

impl OpenTrace {
    /// The workload name the file is stored under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The header's payload checksum ([`TraceMeta::checksum`]), read at
    /// open without decoding.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Decode the whole file with every check [`TraceDb::load_full`]
    /// makes, and check that its checksum is still the one read at open.
    /// The file is rewound under a lock first, so one handle serves any
    /// number of decodes, one at a time.
    pub fn load(&self) -> Result<Trace, TraceDbError> {
        // Every decode starts with a rewind, so a guard a panicking decode
        // left behind is still usable.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let (h, trace) = decode(&mut *file, file_len, Some((&self.name, self.len)))?;
        if h.checksum != self.checksum {
            return Err(TraceDbError::ChecksumMismatch);
        }
        Ok(trace)
    }
}

fn write_atomic(p: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = p.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, p).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running state of the 4-lane FNV-1a payload checksum: lane *j* folds
/// word *j* of every record (the payload is always a whole number of
/// 32-byte records, so the lanes stay in lockstep). One serial FNV chain
/// would put a multiply's full latency between every 8 bytes — on the
/// decode path that chain, not memory, is the bottleneck; four
/// independent lanes give the CPU four chains to overlap. Every single-bit
/// flip still lands in exactly one lane and survives the final mix.
#[derive(Clone, Copy)]
struct Lanes([u64; 4]);

impl Lanes {
    fn new() -> Lanes {
        Lanes([FNV_OFFSET; 4])
    }

    /// Fold one record's logical words into the four lanes (the decoder
    /// loads each record once and feeds both the checksum and the decode).
    #[inline]
    fn fold_words(&mut self, words: [u64; 4]) {
        for (lane, word) in self.0.iter_mut().zip(words) {
            *lane ^= word;
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mix the lanes into the stored 8-byte checksum.
    fn finish(self) -> u64 {
        self.0
            .into_iter()
            .fold(FNV_OFFSET, |h, l| (h ^ l).wrapping_mul(FNV_PRIME))
    }
}

/// The four logical words of one instruction (what the checksum covers and
/// what both on-disk layouts serialize).
#[inline]
fn logical_words(d: &DynInsn) -> [u64; 4] {
    [
        encode(&d.insn),
        (d.pc as u64) | ((d.next_pc as u64) << 32),
        d.mem_addr,
        0,
    ]
}

/// Append one zero-run-compressed (v2) record: a control byte flagging the
/// nonzero words, then only those words.
#[inline]
fn encode_v2_record(words: [u64; 4], out: &mut Vec<u8>) {
    let mut ctl = 0u8;
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            ctl |= 1 << w;
        }
    }
    out.push(ctl);
    for &word in words.iter() {
        if word != 0 {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
}

/// Decode one v2 record from the front of `b`: the logical words plus the
/// encoded length. Reserved control bits are a malformed record; missing
/// bytes are a truncation (the distinction callers surface to `verify`).
#[inline]
fn decode_v2_record(b: &[u8], idx: usize) -> Result<([u64; 4], usize), TraceDbError> {
    let Some(&ctl) = b.first() else {
        return Err(TraceDbError::Truncated);
    };
    if ctl & !V2_WORD_MASK != 0 {
        return Err(TraceDbError::BadRecord(idx));
    }
    let need = 1 + ctl.count_ones() as usize * 8;
    if b.len() < need {
        return Err(TraceDbError::Truncated);
    }
    let mut words = [0u64; 4];
    let mut off = 1usize;
    for (w, word) in words.iter_mut().enumerate() {
        if ctl & (1 << w) != 0 {
            *word = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
            off += 8;
        }
    }
    Ok((words, off))
}

struct Header {
    format_version: u32,
    trace_version: u32,
    key_len: u64,
    insn_count: u64,
    checksum: u64,
    static_insns: u32,
    halted: bool,
    name: String,
    payload_off: usize,
}

fn payload_offset(name_len: usize) -> usize {
    (HEADER_BASE + name_len).div_ceil(RECORD_BYTES) * RECORD_BYTES
}

/// Serialize one trace, from its logical records, into its complete
/// (format-v2) file image.
fn encode_file(name: &str, key_len: u64, trace: &Trace) -> Vec<u8> {
    let payload_off = payload_offset(name.len());
    let mut out = vec![0u8; payload_off];
    out.reserve(trace.len() * (1 + RECORD_BYTES / 2)); // typical ≈ 17 B/insn
    out[0..8].copy_from_slice(MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    out[16..24].copy_from_slice(&key_len.to_le_bytes());
    out[24..32].copy_from_slice(&(trace.len() as u64).to_le_bytes());
    // checksum written below, once the payload exists
    out[40..44].copy_from_slice(&(trace.static_insns as u32).to_le_bytes());
    out[44] = trace.halted as u8;
    out[48..50].copy_from_slice(&(name.len() as u16).to_le_bytes());
    out[HEADER_BASE..HEADER_BASE + name.len()].copy_from_slice(name.as_bytes());
    let mut lanes = Lanes::new();
    for d in trace.iter() {
        let words = logical_words(&d);
        lanes.fold_words(words);
        encode_v2_record(words, &mut out);
    }
    let sum = lanes.finish();
    out[32..40].copy_from_slice(&sum.to_le_bytes());
    out
}

fn io_err(e: std::io::Error) -> TraceDbError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceDbError::Truncated
    } else {
        TraceDbError::Io(e.to_string())
    }
}

/// Read and check the header, leaving `r` at the start of the payload. The
/// magic and both versions are checked on the fixed 64 bytes before the
/// name region is read, so a file that is not a trace at all is
/// [`TraceDbError::BadMagic`] whatever its bytes 48..50 claim.
fn read_header(r: &mut impl Read) -> Result<Header, TraceDbError> {
    let mut fixed = [0u8; HEADER_BASE];
    r.read_exact(&mut fixed).map_err(io_err)?;
    if &fixed[0..8] != MAGIC {
        return Err(TraceDbError::BadMagic);
    }
    let u32_at = |o: usize| u32::from_le_bytes(fixed[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(fixed[o..o + 8].try_into().unwrap());
    let format_version = u32_at(8);
    if !READABLE_FORMATS.contains(&format_version) {
        return Err(TraceDbError::WrongFormatVersion(format_version));
    }
    let trace_version = u32_at(12);
    if trace_version != TRACE_VERSION {
        return Err(TraceDbError::WrongTraceVersion(trace_version));
    }
    let name_len = u16::from_le_bytes(fixed[48..50].try_into().unwrap()) as usize;
    let payload_off = payload_offset(name_len);
    let mut name_region = vec![0u8; payload_off - HEADER_BASE];
    r.read_exact(&mut name_region).map_err(io_err)?;
    name_region.truncate(name_len);
    let name = String::from_utf8(name_region).map_err(|_| TraceDbError::KeyMismatch)?;
    Ok(Header {
        format_version,
        trace_version,
        key_len: u64_at(16),
        insn_count: u64_at(24),
        checksum: u64_at(32),
        static_insns: u32_at(40),
        halted: fixed[44] != 0,
        name,
        payload_off,
    })
}

/// Most pcs the decoder's dense table covers, whatever a header claims.
const DENSE_PCS: u64 = 1 << 16;

/// How a decode builds its trace's static table: one [`StaticInsn`] per
/// distinct (pc, instruction word) pair. A pc below the header's static
/// count (and [`DENSE_PCS`]) looks up the first word seen there in a
/// pc-indexed table; a sparse pc, or a second word at a dense pc, goes
/// through a hash map. Either way, equal pairs share one static id and
/// different pairs never do.
struct Interner {
    dense: Vec<Option<(u64, u32)>>,
    sparse: HashMap<(u32, u64), u32>,
}

impl Interner {
    fn new(static_insns: u32, insn_count: u64) -> Interner {
        let n = (static_insns as u64).min(insn_count).min(DENSE_PCS) as usize;
        Interner {
            dense: vec![None; n],
            sparse: HashMap::new(),
        }
    }

    /// The static id of `(pc, word)` in `statics`. A new pair's
    /// instruction comes from `insn`; `None` from it (or a table past
    /// `u32` ids) is `None`.
    #[inline]
    fn intern(
        &mut self,
        statics: &mut Vec<StaticInsn>,
        pc: u32,
        word: u64,
        insn: impl FnOnce() -> Option<Insn>,
    ) -> Option<u32> {
        match self.dense.get(pc as usize) {
            Some(&Some((w, sid))) if w == word => return Some(sid),
            Some(None) => {}
            _ => {
                if let Some(&sid) = self.sparse.get(&(pc, word)) {
                    return Some(sid);
                }
            }
        }
        let sid = u32::try_from(statics.len()).ok()?;
        statics.push(StaticInsn { insn: insn()?, pc });
        match self.dense.get_mut(pc as usize) {
            Some(slot @ None) => *slot = Some((word, sid)),
            _ => {
                self.sparse.insert((pc, word), sid);
            }
        }
        Some(sid)
    }
}

/// Decode one record of either layout from the front of `b`: the logical
/// words plus the encoded length.
#[inline]
fn decode_any_record(b: &[u8], v1: bool, idx: usize) -> Result<([u64; 4], usize), TraceDbError> {
    if !v1 {
        return decode_v2_record(b, idx);
    }
    let r = b.get(..RECORD_BYTES).ok_or(TraceDbError::Truncated)?;
    let w = |o: usize| u64::from_le_bytes(r[o..o + 8].try_into().unwrap());
    Ok(([w(0), w(8), w(16), w(24)], RECORD_BYTES))
}

/// Payload window of [`decode`]: small enough to live in mid-level cache.
const STREAM_CHUNK: usize = 256 * 1024;

/// The trace-file decoder: header, key cross-check against `expect` (when
/// reading by key), payload size, every record, checksum. `file_len` is the
/// byte length of the whole image `r` yields.
///
/// Trace files are several MB — far bigger than any cache level — so the
/// payload flows through a bounded thread-local scratch window instead of
/// a file-sized buffer: the only file-sized memory a load touches is the
/// records of the trace it returns. Checksum and decode share one pass;
/// decoding ahead of verification is safe because every field is
/// range-checked and the result is discarded unless the sums match. A
/// file that shrinks mid-read surfaces as [`TraceDbError::Truncated`] like
/// any other short file.
fn decode(
    mut r: impl Read,
    file_len: u64,
    expect: Option<(&str, u64)>,
) -> Result<(Header, Trace), TraceDbError> {
    let h = read_header(&mut r)?;
    if expect.is_some_and(|(name, len)| h.name != name || h.key_len != len) {
        return Err(TraceDbError::KeyMismatch);
    }
    // v1 records are exactly 32 bytes; v2 records are at least one byte,
    // which bounds a hostile header's instruction count by the payload
    // size before any allocation happens.
    let v1 = h.format_version == 1;
    let payload_len = file_len
        .checked_sub(h.payload_off as u64)
        .ok_or(TraceDbError::Truncated)?;
    let sized = if v1 {
        h.insn_count.checked_mul(RECORD_BYTES as u64) == Some(payload_len)
    } else {
        payload_len >= h.insn_count
    };
    if !sized {
        return Err(TraceDbError::Truncated);
    }

    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    let mut lanes = Lanes::new();
    let mut interner = Interner::new(h.static_insns, h.insn_count);
    let statics = Vec::with_capacity(interner.dense.len());
    let mut trace = Trace::new(statics, h.halted, h.static_insns as usize);
    trace.insns.reserve_exact(h.insn_count as usize);
    SCRATCH.with(|buf| {
        let scratch = &mut *buf.borrow_mut();
        scratch.resize(STREAM_CHUNK, 0);
        // Top the window up whenever fewer than the largest record remain
        // in it, so the next record is always contiguous.
        let mut remaining = payload_len as usize;
        let (mut pos, mut valid) = (0usize, 0usize);
        for i in 0..h.insn_count as usize {
            if valid - pos < V2_MAX_RECORD && remaining > 0 {
                scratch.copy_within(pos..valid, 0);
                valid -= pos;
                pos = 0;
                let take = (STREAM_CHUNK - valid).min(remaining);
                r.read_exact(&mut scratch[valid..valid + take])
                    .map_err(io_err)?;
                valid += take;
                remaining -= take;
            }
            let (words, used) = decode_any_record(&scratch[pos..valid], v1, i)?;
            pos += used;
            lanes.fold_words(words);
            let sid = interner
                .intern(&mut trace.statics, words[1] as u32, words[0], || {
                    rcmc_isa::decode(words[0]).ok()
                })
                .ok_or(TraceDbError::BadRecord(i))?;
            trace
                .push(TraceRec {
                    sid,
                    next_pc: (words[1] >> 32) as u32,
                    mem_addr: words[2],
                })
                .map_err(|_| TraceDbError::BadRecord(i))?;
        }
        if pos != valid || remaining > 0 {
            return Err(TraceDbError::Truncated);
        }
        Ok(())
    })?;
    if lanes.finish() != h.checksum {
        return Err(TraceDbError::ChecksumMismatch);
    }
    Ok((h, trace))
}

/// Decode a complete in-memory file image (the codec tests' entry point).
#[cfg(test)]
fn decode_file(bytes: &[u8], expect: Option<(&str, u64)>) -> Result<Trace, TraceDbError> {
    decode(bytes, bytes.len() as u64, expect).map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmc_isa::{Opcode, Reg};

    fn sample_trace() -> Trace {
        let r = |x| Some(Reg::int(x));
        let f = |x| Some(Reg::fp(x));
        let statics = vec![
            StaticInsn {
                insn: Insn::new(Opcode::Movi, r(1), None, None, -7),
                pc: 0,
            },
            StaticInsn {
                insn: Insn::new(Opcode::Fld, f(2), r(1), None, 16),
                pc: 1,
            },
            StaticInsn {
                insn: Insn::new(Opcode::Bne, None, r(1), r(0), -2),
                pc: 2,
            },
        ];
        let mut t = Trace::new(statics, true, 4);
        for (sid, next_pc, mem_addr) in [(0, 1, 0), (1, 2, 0xdead_beef_cafe), (2, 1, 0)] {
            t.push(TraceRec {
                sid,
                next_pc,
                mem_addr,
            })
            .unwrap();
        }
        t
    }

    fn temp_db(tag: &str) -> TraceDb {
        let dir = std::env::temp_dir().join(format!("rcmc-tdb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceDb::at(dir)
    }

    /// Reference v1 encoder (the pre-compression layout), kept so the
    /// fallthrough decode path is tested against real v1 images.
    fn encode_file_v1(name: &str, key_len: u64, trace: &Trace) -> Vec<u8> {
        let payload_off = payload_offset(name.len());
        let mut out = vec![0u8; payload_off + trace.len() * RECORD_BYTES];
        out[0..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&1u32.to_le_bytes());
        out[12..16].copy_from_slice(&TRACE_VERSION.to_le_bytes());
        out[16..24].copy_from_slice(&key_len.to_le_bytes());
        out[24..32].copy_from_slice(&(trace.len() as u64).to_le_bytes());
        out[40..44].copy_from_slice(&(trace.static_insns as u32).to_le_bytes());
        out[44] = trace.halted as u8;
        out[48..50].copy_from_slice(&(name.len() as u16).to_le_bytes());
        out[HEADER_BASE..HEADER_BASE + name.len()].copy_from_slice(name.as_bytes());
        let mut lanes = Lanes::new();
        for (i, d) in trace.iter().enumerate() {
            let r = &mut out[payload_off + i * RECORD_BYTES..payload_off + (i + 1) * RECORD_BYTES];
            let words = logical_words(&d);
            lanes.fold_words(words);
            for (w, word) in words.into_iter().enumerate() {
                r[w * 8..(w + 1) * 8].copy_from_slice(&word.to_le_bytes());
            }
        }
        out[32..40].copy_from_slice(&lanes.finish().to_le_bytes());
        out
    }

    #[test]
    fn roundtrip_in_memory() {
        let t = sample_trace();
        let bytes = encode_file("x", 99, &t);
        let back = decode_file(&bytes, Some(("x", 99))).unwrap();
        assert_eq!(back, t);
        assert!(back.halted);
        assert_eq!(back.static_insns, 4);
        assert_eq!(back.statics(), t.statics());
    }

    #[test]
    fn v1_files_fall_through_and_decode_identically() {
        let t = sample_trace();
        let v1 = encode_file_v1("x", 99, &t);
        let v2 = encode_file("x", 99, &t);
        // Same content, same checksum (it covers the logical words), two
        // layouts — and the warm loader must accept both.
        assert_eq!(v1[32..40], v2[32..40], "checksum is layout-independent");
        let from_v1 = decode_file(&v1, Some(("x", 99))).unwrap();
        let from_v2 = decode_file(&v2, Some(("x", 99))).unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(from_v1, t);
        // The on-disk streaming path falls through too.
        let db = temp_db("v1fall");
        std::fs::create_dir_all(db.dir()).unwrap();
        std::fs::write(db.dir().join("x.trc"), &v1).unwrap();
        assert_eq!(*db.load("x", 99).unwrap(), t);
        let _ = std::fs::remove_dir_all(db.dir());
    }

    #[test]
    fn zero_runs_compress() {
        let t = sample_trace();
        let v1 = encode_file_v1("x", 99, &t);
        let v2 = encode_file("x", 99, &t);
        assert!(
            v2.len() < v1.len(),
            "v2 ({}) must be smaller than v1 ({})",
            v2.len(),
            v1.len()
        );
        // The sample has one memory instruction out of three: records cost
        // 1 + 16 (non-mem) or 1 + 24 (mem) bytes instead of a flat 32.
        let payload = v2.len() - payload_offset(1);
        assert_eq!(payload, (1 + 16) * 2 + (1 + 24));
    }

    #[test]
    fn v2_reserved_control_bits_are_bad_records() {
        let t = sample_trace();
        let mut bytes = encode_file("x", 99, &t);
        let off = payload_offset(1);
        bytes[off] |= 0x80; // reserved bit in the first record's control byte
        assert_eq!(
            decode_file(&bytes, Some(("x", 99))).unwrap_err(),
            TraceDbError::BadRecord(0)
        );
        // Trailing garbage is a truncation-class mismatch, not a silent pass.
        let mut extra = encode_file("x", 99, &t);
        extra.push(0x00);
        assert_eq!(
            decode_file(&extra, Some(("x", 99))).unwrap_err(),
            TraceDbError::Truncated
        );
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let db = temp_db("rt");
        let t = sample_trace();
        assert!(db.save("bench-a", 1000, &t));
        let got = db.load("bench-a", 1000).expect("stored trace must load");
        assert_eq!(*got, t);
        assert_eq!(
            db.load_full("bench-a", 1001).unwrap_err(),
            TraceDbError::KeyMismatch,
            "the header's length is checked"
        );
        let _ = std::fs::remove_dir_all(db.dir());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let t = sample_trace();
        let bytes = encode_file("x", 99, &t);
        assert_eq!(
            decode_file(&bytes, Some(("y", 99))).unwrap_err(),
            TraceDbError::KeyMismatch
        );
        assert_eq!(
            decode_file(&bytes, Some(("x", 98))).unwrap_err(),
            TraceDbError::KeyMismatch
        );
    }

    #[test]
    fn invalid_names_rejected() {
        for bad in ["", ".", "../x", "a/b", "a b", &"x".repeat(129)] {
            assert!(!TraceDb::valid_name(bad), "{bad:?} must be invalid");
        }
        for good in ["swim", "my_trace-1.2", "B9"] {
            assert!(TraceDb::valid_name(good), "{good:?} must be valid");
        }
    }

    #[test]
    fn list_and_remove() {
        let db = temp_db("list");
        let t = sample_trace();
        assert!(db.save("aaa", 10, &t));
        assert!(db.save("aaa", 20, &t));
        assert!(db.save("bbb", 10, &t));
        let metas = db.list();
        assert_eq!(
            metas
                .iter()
                .map(|m| (m.name.as_str(), m.len))
                .collect::<Vec<_>>(),
            vec![("aaa", 20), ("bbb", 10)],
            "one file per name: the last save of `aaa` replaced the first"
        );
        assert_eq!(metas[0].insns, 3);
        assert_eq!(db.open("aaa").unwrap().map(|t| t.len), Some(20));
        assert!(db.remove("aaa"));
        assert!(!db.remove("aaa"));
        assert_eq!(db.list().len(), 1);
        let _ = std::fs::remove_dir_all(db.dir());
    }

    #[test]
    fn import_validates_and_renames() {
        let db = temp_db("imp");
        let t = sample_trace();
        let bytes = encode_file("orig", 42, &t);
        let meta = db.import(&bytes, Some("renamed"), |_| false).unwrap();
        assert_eq!(
            (meta.name.as_str(), meta.len, meta.insns),
            ("renamed", 42, 3)
        );
        assert_eq!(db.list(), vec![meta]);
        assert_eq!(*db.load("renamed", 42).unwrap(), t);
        // A corrupted file must be rejected outright.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            db.import(&bad, None, |_| false).unwrap_err(),
            TraceDbError::ChecksumMismatch
        );
        let _ = std::fs::remove_dir_all(db.dir());
    }

    #[test]
    fn import_refuses_reserved_names_and_writes_nothing() {
        let db = temp_db("reserved");
        let t = sample_trace();
        let bytes = encode_file("kept", 42, &t);
        let reserved = |n: &str| n == "kept" || n == "taken";
        for rename in [None, Some("taken")] {
            let want = rename.unwrap_or("kept").to_string();
            assert_eq!(
                db.import(&bytes, rename, reserved).unwrap_err(),
                TraceDbError::ReservedName(want)
            );
        }
        assert!(db.list().is_empty(), "a refused import writes nothing");
        let meta = db.import(&bytes, Some("free"), reserved).unwrap();
        assert_eq!((meta.name.as_str(), meta.len), ("free", 42));
        let _ = std::fs::remove_dir_all(db.dir());
    }
}
