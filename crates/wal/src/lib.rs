//! Append-only segmented write-ahead log for the OCEP serving stack.
//!
//! The log sits *behind* the `AdmissionGuard`: every delivery handed to the
//! monitor set (and every Flush/Checkpoint marker) is appended as a
//! hash-chained record before it mutates in-memory state, so a crashed
//! `ocep serve` can rebuild bit-identical matcher state by replaying the log
//! from the last log-anchored checkpoint.
//!
//! The crate is deliberately payload-agnostic: records carry opaque bytes
//! plus a one-byte type tag, and the serving layer owns the payload codecs
//! (`docs/DURABILITY.md` has the full grammar). On disk a log is a directory
//! of segments:
//!
//! ```text
//! wal-00000000000000000000.seg
//! wal-00000000000000004096.seg        # base_lsn = first record's LSN
//! ```
//!
//! Each segment starts with a 32-byte header and is followed by records:
//!
//! ```text
//! header  := "OWAL" version:u32 generation:u64 base_lsn:u64 prev_hash:u64
//! record  := len:u32 type:u8 lsn:u64 payload:[u8; len] hash:u64
//! hash    := fnv1a64(prev_hash_le ++ type ++ lsn_le ++ payload)
//! ```
//!
//! All integers are little-endian. The hash chain threads through segment
//! boundaries (a segment header records the running hash at its start), so a
//! bit flip, a truncated write, or a swapped segment is detected at a precise
//! byte offset. Recovery truncates a torn tail in the *last* segment (the
//! only place a crash can legally tear) and refuses — with an offset-diagnosed
//! error, never a panic — everything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Magic bytes opening every segment file.
pub const MAGIC: &[u8; 4] = b"OWAL";
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Byte length of a segment header.
pub const HEADER_LEN: u64 = 32;
/// Fixed per-record overhead: len(4) + type(1) + lsn(8) + hash(8).
pub const RECORD_OVERHEAD: u64 = 21;
/// Upper bound on a record payload — larger lengths are treated as
/// corruption, which keeps a flipped length byte from allocating wildly.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Record type: an admitted delivery (payload: monitor-set event bytes).
pub const REC_DELIVER: u8 = 1;
/// Record type: a guard flush boundary.
pub const REC_FLUSH: u8 = 2;
/// Record type: a log-anchored checkpoint (payload: OCKS bytes + verdicts).
pub const REC_CHECKPOINT: u8 = 3;
/// Record type: a history-GC watermark (payload: admitted clock snapshot).
/// Only older versions write it; recovery and `ocep replay` skip it.
pub const REC_WATERMARK: u8 = 4;
/// Record type: a dynamic pattern registration (payload: monitor name +
/// pattern source, each length-prefixed).
pub const REC_REGISTER: u8 = 5;
/// Record type: a dynamic pattern removal (payload: monitor name).
pub const REC_UNREGISTER: u8 = 6;

/// The FNV-1a 64-bit offset basis: the state [`fnv1a64`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a 64-bit state `h` (start from
/// [`FNV_OFFSET`]; feed the result back in to hash a sequence of parts).
#[must_use]
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Computes the chained hash of one record given the running chain value.
#[must_use]
pub fn record_hash(prev_hash: u64, rtype: u8, lsn: u64, payload: &[u8]) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &prev_hash.to_le_bytes());
    h = fnv1a64(h, &[rtype]);
    h = fnv1a64(h, &lsn.to_le_bytes());
    fnv1a64(h, payload)
}

/// When (and how often) appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Never fsync on append (OS page cache only); fastest, loses the tail
    /// on power failure but never on a process crash.
    None,
    /// Group commit: every `batch_every` appends a background thread
    /// fsyncs the segment (the ingest path never blocks on the journal);
    /// flush/checkpoint boundaries still fsync synchronously. The
    /// recommended default — bounded power-failure loss, zero-stall
    /// ingest.
    Batch,
    /// fsync after every single append.
    Strict,
}

impl Durability {
    /// Parses a `--durability` CLI value.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Durability::None),
            "batch" => Some(Durability::Batch),
            "strict" => Some(Durability::Strict),
            _ => None,
        }
    }

    /// The CLI name of this mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Batch => "batch",
            Durability::Strict => "strict",
        }
    }
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync policy for appends.
    pub durability: Durability,
    /// Rotate to a new segment once the current one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Group-commit width for [`Durability::Batch`].
    pub batch_every: u32,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            durability: Durability::Batch,
            segment_bytes: 8 << 20,
            batch_every: 1024,
        }
    }
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type (`REC_*`).
    pub rtype: u8,
    /// Log sequence number (dense, starting at 0).
    pub lsn: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// A torn tail found (and, under [`ScanMode::Repair`], truncated) in the
/// last segment during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment file name the tear was found in.
    pub segment: String,
    /// Byte offset of the first bad record within that segment.
    pub offset: u64,
    /// Human-readable description of the fault.
    pub detail: String,
}

impl fmt::Display for TornTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "torn tail in {} at byte {}: {}",
            self.segment, self.offset, self.detail
        )
    }
}

/// The result of scanning a log directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in LSN order.
    pub records: Vec<Record>,
    /// The LSN the next append will receive.
    pub next_lsn: u64,
    /// Highest generation seen (each `Wal::open` starts generation+1).
    pub generation: u64,
    /// Running hash-chain value after the last intact record.
    pub prev_hash: u64,
    /// The torn tail, if one was found (tolerated or repaired).
    pub torn: Option<TornTail>,
    /// Number of segment files scanned.
    pub segments: usize,
}

/// Errors from the log.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error, tagged with the path it happened on.
    Io(String, std::io::Error),
    /// The log is corrupt at a precise location. Torn tails in the last
    /// segment only count as corruption under [`ScanMode::Strict`];
    /// anywhere else they always do.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// Byte offset of the fault within the segment.
        offset: u64,
        /// Human-readable description of the fault.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(path, e) => write!(f, "wal io error on {path}: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(f, "wal corrupt: {segment} at byte {offset}: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

/// How a scan treats a torn tail in the final segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Any fault anywhere is an error (conformance checking).
    Strict,
    /// Truncate a last-segment torn tail on disk, then continue (serving
    /// recovery — the only mode that mutates the directory).
    Repair,
    /// Tolerate a last-segment torn tail without touching the file
    /// (read-only historical replay).
    Tolerate,
}

fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io(path.display().to_string(), e)
}

fn segment_name(base_lsn: u64) -> String {
    format!("wal-{base_lsn:020}.seg")
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        else {
            continue; // not ours (editor droppings, tmp files)
        };
        let base: u64 = num.parse().map_err(|_| WalError::Corrupt {
            segment: name.clone(),
            offset: 0,
            detail: "unparsable base LSN in segment file name".to_owned(),
        })?;
        segs.push((base, entry.path()));
    }
    segs.sort_by_key(|&(base, _)| base);
    Ok(segs)
}

/// Scans (and under [`ScanMode::Repair`], repairs) a log directory.
///
/// Faults inside any segment but the last — and structural faults anywhere
/// (bad magic, bad version, regressed generation, header/name mismatch,
/// broken cross-segment chain) — are hard [`WalError::Corrupt`] errors in
/// every mode, diagnosed with the segment name and byte offset.
pub fn scan_dir(dir: &Path, mode: ScanMode) -> Result<Recovery, WalError> {
    let segs = list_segments(dir)?;
    let mut rec = Recovery {
        prev_hash: FNV_OFFSET,
        ..Recovery::default()
    };
    rec.segments = segs.len();
    let last_idx = segs.len().saturating_sub(1);
    for (idx, (name_base, path)) in segs.iter().enumerate() {
        let seg = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let corrupt = |offset: u64, detail: String| WalError::Corrupt {
            segment: seg.clone(),
            offset,
            detail,
        };
        let mut data = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut data))
            .map_err(|e| io_err(path, e))?;
        if data.len() < HEADER_LEN as usize {
            return Err(corrupt(
                data.len() as u64,
                format!("segment shorter than its {HEADER_LEN}-byte header"),
            ));
        }
        if &data[0..4] != MAGIC {
            return Err(corrupt(0, "bad magic (expected \"OWAL\")".to_owned()));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(corrupt(
                4,
                format!("unsupported version {version} (expected {VERSION})"),
            ));
        }
        let generation = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let base_lsn = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let header_prev = u64::from_le_bytes(data[24..32].try_into().unwrap());
        if base_lsn != *name_base {
            return Err(corrupt(
                16,
                format!("header base LSN {base_lsn} does not match file name ({name_base})"),
            ));
        }
        if idx == 0 {
            // Genesis: seed the expected chain from the first header.
            rec.next_lsn = base_lsn;
            rec.prev_hash = header_prev;
            if base_lsn == 0 && header_prev != FNV_OFFSET {
                return Err(corrupt(
                    24,
                    "genesis segment has non-initial chain hash".to_owned(),
                ));
            }
        } else {
            if base_lsn != rec.next_lsn {
                return Err(corrupt(
                    16,
                    format!(
                        "segment base LSN {base_lsn} != expected next LSN {}",
                        rec.next_lsn
                    ),
                ));
            }
            if header_prev != rec.prev_hash {
                return Err(corrupt(
                    24,
                    "segment chain hash does not continue the previous segment".to_owned(),
                ));
            }
            if generation < rec.generation {
                return Err(corrupt(
                    8,
                    format!(
                        "stale generation {generation} (previous segment had {})",
                        rec.generation
                    ),
                ));
            }
        }
        rec.generation = rec.generation.max(generation);

        let mut off = HEADER_LEN as usize;
        let mut tear: Option<(u64, String)> = None;
        while off < data.len() {
            let at = off as u64;
            if data.len() - off < 4 {
                tear = Some((at, "truncated record length".to_owned()));
                break;
            }
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
            if len > MAX_PAYLOAD {
                tear = Some((at, format!("oversized record length {len}")));
                break;
            }
            let total = RECORD_OVERHEAD as usize + len as usize;
            if data.len() - off < total {
                tear = Some((
                    at,
                    format!("truncated record ({} of {total} bytes)", data.len() - off),
                ));
                break;
            }
            let rtype = data[off + 4];
            if rtype == 0 || rtype > REC_UNREGISTER {
                tear = Some((at, format!("invalid record type {rtype}")));
                break;
            }
            let lsn = u64::from_le_bytes(data[off + 5..off + 13].try_into().unwrap());
            if lsn != rec.next_lsn {
                tear = Some((
                    at,
                    format!("LSN {lsn} out of sequence (expected {})", rec.next_lsn),
                ));
                break;
            }
            let payload = &data[off + 13..off + 13 + len as usize];
            let stored = u64::from_le_bytes(
                data[off + 13 + len as usize..off + total]
                    .try_into()
                    .unwrap(),
            );
            let want = record_hash(rec.prev_hash, rtype, lsn, payload);
            if stored != want {
                tear = Some((at, "hash chain mismatch".to_owned()));
                break;
            }
            rec.records.push(Record {
                rtype,
                lsn,
                payload: payload.to_vec(),
            });
            rec.prev_hash = want;
            rec.next_lsn += 1;
            off += total;
        }
        if let Some((offset, detail)) = tear {
            if idx != last_idx || mode == ScanMode::Strict {
                return Err(corrupt(offset, detail));
            }
            if mode == ScanMode::Repair {
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err(path, e))?;
                f.set_len(offset).map_err(|e| io_err(path, e))?;
                f.sync_data().map_err(|e| io_err(path, e))?;
            }
            rec.torn = Some(TornTail {
                segment: seg,
                offset,
                detail,
            });
        }
    }
    Ok(rec)
}

/// Strict conformance scan: any fault, including a torn tail, is an error.
pub fn verify(dir: &Path) -> Result<Recovery, WalError> {
    scan_dir(dir, ScanMode::Strict)
}

/// Read-only tolerant scan for historical replay: a last-segment torn tail
/// is reported in [`Recovery::torn`] but the file is left untouched.
pub fn scan(dir: &Path) -> Result<Recovery, WalError> {
    scan_dir(dir, ScanMode::Tolerate)
}

/// Pending-buffer size that forces a kernel write even without an
/// explicit [`Wal::flush_os`] — bounds userspace loss windows and keeps
/// a single giant batch from growing the buffer unboundedly.
const FLUSH_BYTES: usize = 64 << 10;

/// Background group-commit syncer for [`Durability::Batch`]: the append
/// path hands it a duplicated file handle every `batch_every` records
/// and keeps going; the fsync happens off-thread so a journal commit
/// never stalls ingest. Requests queued behind a burst coalesce to the
/// newest handle — safe because segment rotation and explicit
/// [`Wal::sync`] both fsync synchronously, so a dropped older request
/// is always covered by a stronger barrier.
#[derive(Debug)]
struct GroupCommit {
    tx: Option<mpsc::Sender<File>>,
    failed: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl GroupCommit {
    fn spawn() -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel::<File>();
        let failed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&failed);
        let handle = thread::Builder::new()
            .name("ocep-wal-sync".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let mut file = first;
                    while let Ok(newer) = rx.try_recv() {
                        file = newer;
                    }
                    if file.sync_data().is_err() {
                        flag.store(true, Ordering::Relaxed);
                    }
                }
            })?;
        Ok(GroupCommit {
            tx: Some(tx),
            failed,
            handle: Some(handle),
        })
    }

    fn request(&self, file: File) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(file);
        }
    }

    fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// An open, appendable log.
///
/// Appends are buffered in userspace and reach the kernel at group
/// boundaries: an explicit [`Wal::flush_os`], a fsync point, segment
/// rotation, `FLUSH_BYTES` of pending records, or drop. The serving
/// layer flushes before any acknowledgement leaves the process, so an
/// acked write is always kernel-visible (survives SIGKILL); fsync
/// cadence on top of that is the [`Durability`] mode's business.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    seg_path: PathBuf,
    seg_bytes: u64,
    next_lsn: u64,
    prev_hash: u64,
    generation: u64,
    /// Encoded records not yet handed to the kernel.
    pending: Vec<u8>,
    unsynced: u32,
    /// Lazily-spawned background syncer ([`Durability::Batch`] only).
    group: Option<GroupCommit>,
}

impl Wal {
    /// Opens (creating if needed) the log at `dir`, repairing any torn tail,
    /// and starts a fresh segment under a bumped generation. Returns the
    /// recovered records alongside the writable log.
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, Recovery), WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let recovery = scan_dir(dir, ScanMode::Repair)?;
        let generation = recovery.generation + 1;
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            file: File::open(dir).map_err(|e| io_err(dir, e))?, // placeholder, replaced below
            seg_path: PathBuf::new(),
            seg_bytes: 0,
            next_lsn: recovery.next_lsn,
            prev_hash: recovery.prev_hash,
            generation,
            pending: Vec::new(),
            unsynced: 0,
            group: None,
        };
        wal.start_segment()?;
        Ok((wal, recovery))
    }

    /// The LSN the next append will receive.
    #[must_use]
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The generation this writer stamps into new segments.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn start_segment(&mut self) -> Result<(), WalError> {
        let name = segment_name(self.next_lsn);
        let path = self.dir.join(&name);
        if path.exists() {
            // A previous incarnation wrote a segment with this base and then
            // recovery truncated it to records we already replayed — or to
            // nothing. Either way appending to it would fork the chain, so
            // refuse only if it still holds records; an empty/header-only
            // relic is safe to replace.
            let len = fs::metadata(&path).map_err(|e| io_err(&path, e))?.len();
            if len > HEADER_LEN {
                return Err(WalError::Corrupt {
                    segment: name,
                    offset: len,
                    detail: "segment with this base LSN already exists".to_owned(),
                });
            }
        }
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&self.generation.to_le_bytes());
        header.extend_from_slice(&self.next_lsn.to_le_bytes());
        header.extend_from_slice(&self.prev_hash.to_le_bytes());
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.write_all(&header).map_err(|e| io_err(&path, e))?;
        file.sync_data().map_err(|e| io_err(&path, e))?;
        // Make the new directory entry itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_data();
        }
        self.file = file;
        self.seg_path = path;
        self.seg_bytes = HEADER_LEN;
        Ok(())
    }

    /// Appends one record, returning its LSN. May rotate segments first.
    pub fn append(&mut self, rtype: u8, payload: &[u8]) -> Result<u64, WalError> {
        assert!(
            (REC_DELIVER..=REC_UNREGISTER).contains(&rtype),
            "invalid record type {rtype}"
        );
        assert!(
            payload.len() as u64 <= u64::from(MAX_PAYLOAD),
            "payload too large"
        );
        let total = RECORD_OVERHEAD + payload.len() as u64;
        if self.seg_bytes > HEADER_LEN && self.seg_bytes + total > self.opts.segment_bytes {
            self.sync_file()?;
            self.start_segment()?;
        }
        let lsn = self.next_lsn;
        let hash = record_hash(self.prev_hash, rtype, lsn, payload);
        self.pending.reserve(total as usize);
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.push(rtype);
        self.pending.extend_from_slice(&lsn.to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending.extend_from_slice(&hash.to_le_bytes());
        self.seg_bytes += total;
        self.next_lsn += 1;
        self.prev_hash = hash;
        self.unsynced += 1;
        match self.opts.durability {
            Durability::Strict => self.sync_file()?,
            Durability::Batch if self.unsynced >= self.opts.batch_every => {
                self.group_sync()?;
            }
            _ => {}
        }
        if self.pending.len() >= FLUSH_BYTES {
            self.flush_os()?;
        }
        Ok(lsn)
    }

    /// Batch-mode group commit: flush to the kernel, then hand a
    /// duplicated handle to the background syncer and keep appending.
    /// A previously failed background fsync surfaces here as an error.
    fn group_sync(&mut self) -> Result<(), WalError> {
        self.flush_os()?;
        if self.group.is_none() {
            self.group = Some(GroupCommit::spawn().map_err(|e| io_err(&self.seg_path, e))?);
        }
        let group = self.group.as_ref().expect("just spawned");
        if group.failed() {
            return Err(io_err(
                &self.seg_path,
                std::io::Error::other("background group-commit fsync failed"),
            ));
        }
        let dup = self
            .file
            .try_clone()
            .map_err(|e| io_err(&self.seg_path, e))?;
        group.request(dup);
        self.unsynced = 0;
        Ok(())
    }

    /// Hands all buffered records to the kernel without fsyncing: after
    /// this returns the appends survive a process kill (SIGKILL), though
    /// not a power failure. Call before acknowledging anything whose
    /// durability an observer may rely on; fsync cadence stays with the
    /// [`Durability`] mode.
    pub fn flush_os(&mut self) -> Result<(), WalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.pending)
            .map_err(|e| io_err(&self.seg_path, e))?;
        self.pending.clear();
        Ok(())
    }

    /// Forces everything appended so far to stable storage (under
    /// `--durability none` the userspace buffer is still flushed to the
    /// kernel; only the fsync is skipped).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.opts.durability == Durability::None {
            self.flush_os()?;
            self.unsynced = 0;
            return Ok(());
        }
        self.sync_file()
    }

    fn sync_file(&mut self) -> Result<(), WalError> {
        self.flush_os()?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.seg_path, e))?;
        self.unsynced = 0;
        if self.group.as_ref().is_some_and(GroupCommit::failed) {
            return Err(io_err(
                &self.seg_path,
                std::io::Error::other("background group-commit fsync failed"),
            ));
        }
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.unsynced > 0 && self.opts.durability != Durability::None {
            let _ = self.sync_file();
        } else {
            let _ = self.flush_os();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ocep-wal-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            durability: Durability::None,
            segment_bytes,
            batch_every: 8,
        }
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let (mut wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
            assert_eq!(rec.records.len(), 0);
            assert_eq!(wal.append(REC_DELIVER, b"alpha").unwrap(), 0);
            assert_eq!(wal.append(REC_FLUSH, b"").unwrap(), 1);
            assert_eq!(wal.append(REC_DELIVER, b"beta").unwrap(), 2);
            wal.sync().unwrap();
        }
        let (mut wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0].payload, b"alpha");
        assert_eq!(rec.records[1].rtype, REC_FLUSH);
        assert_eq!(rec.records[2].payload, b"beta");
        assert!(rec.torn.is_none());
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(wal.generation(), 2);
        assert_eq!(wal.append(REC_DELIVER, b"gamma").unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_chains_across_segments() {
        let dir = temp_dir("rotate");
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..20u8 {
                wal.append(REC_DELIVER, &[i; 10]).unwrap();
            }
        }
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() > 1,
            "expected rotation, got {} segments",
            segs.len()
        );
        let rec = verify(&dir).unwrap();
        assert_eq!(rec.records.len(), 20);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_repair() {
        let dir = temp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(REC_DELIVER, b"keep-me").unwrap();
            wal.append(REC_DELIVER, b"to-be-torn").unwrap();
        }
        // Tear the last record by chopping off its trailing hash.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        // Strict mode refuses with the tear's offset.
        let err = verify(&dir).unwrap_err();
        match err {
            WalError::Corrupt { offset, .. } => {
                assert_eq!(offset, HEADER_LEN + RECORD_OVERHEAD + 7);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        // Tolerate mode reports the tear without touching the file.
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert!(rec.torn.is_some());
        assert_eq!(fs::metadata(&path).unwrap().len(), len - 3);
        // Repair mode truncates and the log accepts new appends.
        let (mut wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.records.len(), 1);
        let torn = rec.torn.unwrap();
        assert_eq!(torn.offset, HEADER_LEN + RECORD_OVERHEAD + 7);
        assert_eq!(wal.next_lsn(), 1);
        wal.append(REC_DELIVER, b"after-repair").unwrap();
        drop(wal);
        let rec = verify(&dir).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1].payload, b"after-repair");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_middle_segment_is_always_fatal() {
        let dir = temp_dir("flip");
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..20u8 {
                wal.append(REC_DELIVER, &[i; 10]).unwrap();
            }
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 2);
        let (_, path) = segs[1].clone();
        let mut data = fs::read(&path).unwrap();
        let flip_at = HEADER_LEN as usize + 15; // inside the first record's payload
        data[flip_at] ^= 0x40;
        fs::write(&path, &data).unwrap();
        for mode in [ScanMode::Strict, ScanMode::Repair, ScanMode::Tolerate] {
            let err = scan_dir(&dir, mode).unwrap_err();
            match err {
                WalError::Corrupt { offset, detail, .. } => {
                    assert_eq!(offset, HEADER_LEN);
                    assert!(detail.contains("hash chain"), "detail: {detail}");
                }
                other => panic!("expected Corrupt, got {other}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_fill_tail_is_a_torn_tail() {
        let dir = temp_dir("zeros");
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(REC_DELIVER, b"real").unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let good_len = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0u8; 64]).unwrap();
        drop(f);
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        let torn = rec.torn.unwrap();
        assert_eq!(torn.offset, good_len);
        assert!(
            torn.detail.contains("invalid record type"),
            "{}",
            torn.detail
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_is_monotonic_and_stale_generation_rejected() {
        let dir = temp_dir("gen");
        for _ in 0..3 {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(REC_DELIVER, b"x").unwrap();
        }
        let rec = verify(&dir).unwrap();
        assert_eq!(rec.generation, 3);
        // Rewrite a later segment's generation below its predecessor's.
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 2);
        let (_, path) = segs.last().unwrap().clone();
        let mut data = fs::read(&path).unwrap();
        data[8..16].copy_from_slice(&0u64.to_le_bytes());
        // Keep the header hash chain intact: only generation changes.
        fs::write(&path, &data).unwrap();
        let err = verify(&dir).unwrap_err();
        match err {
            WalError::Corrupt { offset, detail, .. } => {
                assert_eq!(offset, 8);
                assert!(detail.contains("stale generation"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_modes_all_roundtrip() {
        for durability in [Durability::None, Durability::Batch, Durability::Strict] {
            let dir = temp_dir(durability.name());
            {
                let (mut wal, _) = Wal::open(
                    &dir,
                    WalOptions {
                        durability,
                        segment_bytes: 1 << 20,
                        batch_every: 4,
                    },
                )
                .unwrap();
                for i in 0..10u8 {
                    wal.append(REC_DELIVER, &[i]).unwrap();
                }
                wal.sync().unwrap();
            }
            let rec = verify(&dir).unwrap();
            assert_eq!(rec.records.len(), 10);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn bad_magic_is_diagnosed_at_offset_zero() {
        let dir = temp_dir("magic");
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(REC_DELIVER, b"x").unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        data[0] = b'X';
        fs::write(&path, &data).unwrap();
        let err = scan(&dir).unwrap_err();
        match err {
            WalError::Corrupt { offset, detail, .. } => {
                assert_eq!(offset, 0);
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
