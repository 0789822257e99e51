//! Serve's one result tier: finished grid cells keyed by content and by
//! the model that computed them, resident in memory and, when rooted at
//! a directory, durable on disk. A repeat of an answered cell costs no
//! simulation and its rendered report JSON is reused byte for byte,
//! across a crash and restart (`kill -9` included) too.
//!
//! **Keys** ([`cell_key`]): the cell's workload, translation config,
//! scenario and options (their `Debug` forms round-trip every field),
//! the fault-plan signature, the grid position under an active plan,
//! and the [`MODEL_FINGERPRINT`]. Equal keys are the same deterministic
//! computation by the same model, so a hit is exact by construction.
//!
//! **Memory.** One [`flatwalk_sync::SwapMap`] maps a key to its
//! resident entry, LRU-bounded by [`RESIDENT_BYTES`]. Lookups are
//! lock-free: a snapshot probe plus one relaxed recency store. Admission
//! and eviction serialize on one write mutex (approximate LRU: a hit
//! racing the eviction scan may lose its entry, which comes back on its
//! next miss). Failed cells are never stored.
//!
//! **Disk** ([`ResultStore::open`]). Every put is also written to
//! `objects/<hh>/<content_hash(key)>.entry`: to `tmp/`, `fsync`, atomic
//! `rename`, then a directory sync, so a crash leaves no entry or a
//! whole one. The path follows from the key, so a resident miss reads
//! the entry there, verifies it and re-admits it. An entry
//! (`flatwalk-store-v1`) is a JSON header line with byte lengths and an
//! FNV-1a checksum, then the full key (checked on read, so a hash
//! collision cannot alias two computations) and the report. The startup
//! scan verifies every entry without keeping its report: it deletes
//! entries of another model fingerprint (or none) as stale, moves
//! anything that fails verification to `quarantine/` for inspection,
//! and sweeps `tmp/`. Concurrent writers of one key render identical
//! bytes, so the second rename is harmless.
//!
//! Observability: spans `store.recover` / `store.read` / `store.write`;
//! counters `store.recovered`, `store.quarantined`, `store.stale`,
//! `store.hits`, `store.misses`, `store.writes`, `store.write_errors`.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flatwalk_obs::{metrics, span, Json};
use flatwalk_sim::runner::Cell;
use flatwalk_sync::SwapMap;

use crate::fnv::fnv1a64;

/// On-disk entry format identifier (first header field of every entry).
pub const SCHEMA: &str = "flatwalk-store-v1";

/// Resident byte budget (key + report text): 64 MiB. Past it the
/// least-recently-used entries leave memory; a rooted store keeps them
/// on disk.
pub const RESIDENT_BYTES: u64 = 64 << 20;

/// FNV-1a fold of the path and bytes of every `crates/*/src/**/*.rs`
/// except this crate's, computed by `build.rs`: a result stored by a
/// build of another model can never hit.
pub const MODEL_FINGERPRINT: u64 = include!(concat!(env!("OUT_DIR"), "/model_fingerprint.rs"));

/// A finished, storable cell execution.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// Rendered `SimReport::to_json()` bytes (shared, never re-built).
    pub report_json: Arc<str>,
    /// Nanoseconds the original execution spent building.
    pub setup_nanos: u64,
    /// Nanoseconds the original execution spent simulating.
    pub run_nanos: u64,
    /// Failed attempts before the original execution succeeded.
    pub retries: u32,
}

/// The content key of one cell under the active fault plan, tied to
/// the model this binary was built from.
///
/// `index`/`total` are folded in only when a fault plan is active
/// (signature ≠ 0): poison faults select their victim by grid
/// position, so position becomes part of the computation's identity.
/// Fault-free cells stay position-independent — the same cell content
/// hits the same entry from any grid, any index. The model fingerprint
/// is a suffix, so trace records keep their 80-character key prefix.
pub fn cell_key(cell: &Cell, plan_signature: u64, index: usize, total: usize) -> String {
    let mut key = format!(
        "{:?}|{:?}|{:?}|{:?}|{:#018x}",
        cell.workload, cell.config, cell.scenario, cell.opts, plan_signature
    );
    // Rival cells run a different computation under the same
    // workload/config/options: fold the kind (pure data — the runner fn
    // is determined by it) into the key.
    if let Some((kind, _)) = cell.rival {
        key.push_str(&format!("|rival:{kind:?}"));
    }
    if plan_signature != 0 {
        key.push_str(&format!("|{index}/{total}"));
    }
    key + &model_tag(MODEL_FINGERPRINT)
}

/// The key suffix naming the model that computed a result.
fn model_tag(fingerprint: u64) -> String {
    format!("|model:{fingerprint:016x}")
}

/// The 128-bit content address of a cell key, as 32 lowercase hex
/// digits (two independently seeded FNV-1a folds). Used as the entry
/// file name; the embedded full key disambiguates any residual
/// collision.
pub fn content_hash(key: &str) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(key.as_bytes(), 0),
        fnv1a64(key.as_bytes(), 0x9E37_79B9_7F4A_7C15)
    )
}

/// The FNV-1a checksum an entry header carries over key + report.
fn checksum(key: &[u8], report: &[u8]) -> String {
    format!("{:016x}", fnv1a64(&[key, report].concat(), 0))
}

/// Renders one durable entry: header line, raw key, raw report.
fn render_entry(key: &str, value: &CachedCell) -> Vec<u8> {
    let report = value.report_json.as_bytes();
    let mut header = Json::obj();
    header
        .push("schema", SCHEMA)
        .push("checksum", checksum(key.as_bytes(), report))
        .push("key_len", key.len() as u64)
        .push("report_len", value.report_json.len() as u64)
        .push("setup_nanos", value.setup_nanos)
        .push("run_nanos", value.run_nanos)
        .push("retries", u64::from(value.retries));
    let header = header.to_string();
    [header.as_bytes(), key.as_bytes(), report, b""].join(&b'\n')
}

/// Parses and verifies one entry file's bytes back into its key and
/// cached value.
///
/// # Errors
///
/// A human-readable description of the first defect found (unreadable
/// header, schema/length mismatch, checksum failure).
fn parse_entry(bytes: &[u8]) -> Result<(String, CachedCell), String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("no header line")?;
    let header = std::str::from_utf8(&bytes[..header_end]).map_err(|_| "header not UTF-8")?;
    let header = flatwalk_obs::json::parse(header).map_err(|e| format!("bad header: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        header
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("header missing {name:?}"))
    };
    match header.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("unknown schema {other:?}")),
    }
    let key_len = field("key_len")? as usize;
    let report_len = field("report_len")? as usize;
    let expected_len = header_end + 1 + key_len + 1 + report_len + 1;
    if bytes.len() != expected_len {
        return Err(format!(
            "length mismatch: {} bytes on disk, header describes {expected_len}",
            bytes.len()
        ));
    }
    let key = &bytes[header_end + 1..header_end + 1 + key_len];
    let report = &bytes[header_end + 2 + key_len..header_end + 2 + key_len + report_len];
    let actual = checksum(key, report);
    match header.get("checksum") {
        Some(Json::Str(expected)) if *expected == actual => {}
        other => return Err(format!("checksum mismatch: {other:?} vs {actual}")),
    }
    let key = std::str::from_utf8(key)
        .map_err(|_| "key not UTF-8")?
        .into();
    let report = std::str::from_utf8(report)
        .map_err(|_| "report not UTF-8")?
        .into();
    Ok((
        key,
        CachedCell {
            report_json: report,
            setup_nanos: field("setup_nanos")?,
            run_nanos: field("run_nanos")?,
            retries: field("retries")? as u32,
        },
    ))
}

/// Bumps one disk counter and its process-global metric.
fn count(counter: &AtomicU64, metric: &str) {
    counter.fetch_add(1, Ordering::Relaxed);
    metrics::add_global(metric, 1);
}

/// Where a hit was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The resident map.
    Memory,
    /// A verified entry read back from disk, now resident again.
    Disk,
}

/// One resident entry: immutable value, atomically refreshed recency.
#[derive(Debug)]
struct Resident {
    value: CachedCell,
    cost: u64,
    /// Use tick for LRU ordering, refreshed by a relaxed store on a hit.
    last_used: AtomicU64,
}

/// Serve's result tier. See the module docs.
#[derive(Debug)]
pub struct ResultStore {
    resident: SwapMap<String, Arc<Resident>>,
    tick: AtomicU64,
    bytes: AtomicU64,
    evicted: AtomicU64,
    /// Serializes admission + eviction; never taken by lookups.
    write: Mutex<()>,
    budget_bytes: u64,
    disk: Option<Disk>,
}

impl ResultStore {
    /// A memory-only store: results live for this process only.
    pub fn memory() -> ResultStore {
        ResultStore::new(None, RESIDENT_BYTES)
    }

    /// Opens (creating if needed) the store rooted at `root` for the
    /// model with `fingerprint`, running the recovery scan.
    ///
    /// # Errors
    ///
    /// Directory creation/readdir failures on the root itself; per-entry
    /// defects never fail the open.
    pub fn open(root: &Path, fingerprint: u64) -> io::Result<ResultStore> {
        Ok(ResultStore::new(
            Some(Disk::open(root, fingerprint)?),
            RESIDENT_BYTES,
        ))
    }

    fn new(disk: Option<Disk>, budget_bytes: u64) -> ResultStore {
        ResultStore {
            resident: SwapMap::new(),
            tick: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            write: Mutex::new(()),
            budget_bytes,
            disk,
        }
    }

    /// The disk half, when the store is rooted at a directory.
    pub fn disk(&self) -> Option<&Disk> {
        self.disk.as_ref()
    }

    /// Looks `key` up in memory, then on disk. A corrupt entry is
    /// quarantined and reported as a miss; the caller re-executes and
    /// its [`put`](ResultStore::put) heals the store.
    pub fn get(&self, key: &str) -> Option<(CachedCell, Source)> {
        if let Some(value) = self.get_resident(key) {
            return Some((value, Source::Memory));
        }
        let value = self.disk.as_ref()?.read(key)?;
        self.admit(key, value.clone());
        Some((value, Source::Disk))
    }

    /// Looks `key` up in memory only, refreshing its recency on a hit.
    pub(crate) fn get_resident(&self, key: &str) -> Option<CachedCell> {
        // SwapMap keys by `String`; borrow-form lookup would need the
        // unstable raw-entry API.
        let entry = self.resident.get(&key.to_string())?;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// Stores a finished cell in memory and, when rooted, on disk. Disk
    /// failures are counted and logged, never propagated: serve keeps
    /// answering from memory on a full or read-only disk.
    pub fn put(&self, key: &str, value: &CachedCell) {
        self.admit(key, value.clone());
        if let Some(disk) = &self.disk {
            disk.write(key, value);
        }
    }

    /// Inserts (or replaces) `key` in memory, then evicts the coldest
    /// entries until the budget holds. A value larger than the whole
    /// budget is admitted alone: serving it from memory still beats
    /// re-reading or re-simulating it.
    fn admit(&self, key: &str, value: CachedCell) {
        let _write = self.write.lock().unwrap_or_else(|e| e.into_inner()); // lock-ok: write path
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // Key + report text dominate; the constant keeps empty entries
        // from being free.
        let cost = (key.len() + value.report_json.len() + 64) as u64;
        let entry = Arc::new(Resident {
            value,
            cost,
            last_used: AtomicU64::new(tick),
        });
        if let Some(old) = self.resident.get(&key.to_string()) {
            self.bytes.fetch_sub(old.cost, Ordering::Relaxed);
        }
        self.resident.insert(key.to_string(), entry);
        self.bytes.fetch_add(cost, Ordering::Relaxed);
        while self.bytes.load(Ordering::Relaxed) > self.budget_bytes && self.resident.len() > 1 {
            // Coldest entry across the current snapshots (exact while
            // the write lock serializes mutation; concurrent hits can
            // only make a victim look *colder* than it just became).
            let victim = self.resident.fold(None::<(String, u64)>, |acc, snap| {
                snap.iter().fold(acc, |acc, (k, e)| {
                    let used = e.last_used.load(Ordering::Relaxed);
                    match &acc {
                        Some((_, best)) if *best <= used => acc,
                        _ => Some((k.clone(), used)),
                    }
                })
            });
            let Some((victim, _)) = victim else { break };
            if let Some(old) = self.resident.get(&victim) {
                self.resident.remove(&victim);
                self.bytes.fetch_sub(old.cost, Ordering::Relaxed);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted from memory so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// The disk half of a rooted [`ResultStore`] and its counters.
#[derive(Debug, Default)]
pub struct Disk {
    root: PathBuf,
    /// Unique suffixes for tmp and quarantine file names.
    seq: AtomicU64,
    /// Entries on disk: recovered, plus written, less quarantined on read.
    entries: AtomicU64,
    recovered: AtomicU64,
    quarantined: AtomicU64,
    /// Entries of another model deleted by the recovery scan.
    stale: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl Disk {
    fn open(root: &Path, fingerprint: u64) -> io::Result<Disk> {
        let _span = span::enter("store.recover");
        for dir in ["objects", "tmp", "quarantine"] {
            fs::create_dir_all(root.join(dir))?;
        }
        let disk = Disk {
            root: root.to_path_buf(),
            ..Disk::default()
        };
        // A tmp file is an interrupted write that was never renamed in.
        for leftover in fs::read_dir(root.join("tmp"))?.flatten() {
            let _ = fs::remove_file(leftover.path());
        }
        let tag = model_tag(fingerprint);
        for shard in fs::read_dir(root.join("objects"))?.flatten() {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for path in entries.flatten().map(|e| e.path()) {
                let parsed = fs::read(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|bytes| parse_entry(&bytes));
                match parsed {
                    // Another model's result: never servable, and no
                    // damage worth keeping for inspection.
                    Ok((key, _)) if !key.ends_with(&tag) => {
                        let _ = fs::remove_file(&path);
                        count(&disk.stale, "store.stale");
                    }
                    // An entry off its key's content address was
                    // tampered with or misplaced.
                    Ok((key, _)) if path != disk.entry_path(&key) => {
                        disk.quarantine(&path, "entry misfiled")
                    }
                    Ok(_) => {
                        disk.entries.fetch_add(1, Ordering::Relaxed);
                        count(&disk.recovered, "store.recovered");
                    }
                    Err(why) => disk.quarantine(&path, &why),
                }
            }
        }
        Ok(disk)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let hash = content_hash(key);
        self.root
            .join("objects")
            .join(&hash[..2])
            .join(format!("{hash}.entry"))
    }

    /// Moves a failed entry into `quarantine/` (never deletes it) and
    /// counts it. If even the move fails the entry stays in place.
    fn quarantine(&self, path: &Path, why: &str) {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let dest = self.root.join("quarantine").join(format!("{name}.{seq}"));
        let moved = match fs::rename(path, &dest) {
            Ok(()) => format!(" -> {}", dest.display()),
            Err(e) => format!(" (left in place: {e})"),
        };
        count(&self.quarantined, "store.quarantined");
        eprintln!(
            "flatwalk-serve: store quarantined {} ({why}){moved}",
            path.display()
        );
    }

    /// Reads and verifies `key`'s entry; absent and corrupt entries
    /// are misses, and a corrupt one is quarantined.
    fn read(&self, key: &str) -> Option<CachedCell> {
        let _span = span::enter("store.read");
        let path = self.entry_path(key);
        let verified = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| parse_entry(&bytes))
            .and_then(|(stored, value)| {
                (stored == key)
                    .then_some(value)
                    .ok_or_else(|| "key mismatch (content-hash collision?)".to_string())
            });
        match verified {
            Ok(value) => {
                count(&self.hits, "store.hits");
                Some(value)
            }
            Err(why) => {
                if path.exists() {
                    self.quarantine(&path, &why);
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                }
                count(&self.misses, "store.misses");
                None
            }
        }
    }

    fn write(&self, key: &str, value: &CachedCell) {
        let _span = span::enter("store.write");
        if let Err(e) = self.write_inner(key, value) {
            count(&self.write_errors, "store.write_errors");
            let hash = content_hash(key);
            eprintln!("flatwalk-serve: store write for key hash {hash} failed: {e}");
        }
    }

    fn write_inner(&self, key: &str, value: &CachedCell) -> io::Result<()> {
        let path = self.entry_path(key);
        let shard = path.parent().expect("entries sit in a shard");
        fs::create_dir_all(shard)?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp_name = format!("{}.{}.{seq}", content_hash(key), std::process::id());
        let tmp_path = self.root.join("tmp").join(tmp_name);
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&render_entry(key, value))?;
        tmp.sync_all()?;
        drop(tmp);
        if let Err(e) = fs::rename(&tmp_path, &path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        // Sync the shard so the rename survives power loss (best-effort:
        // some filesystems refuse directory fsync; the rename is atomic).
        let _ = File::open(shard).and_then(|dir| dir.sync_all());
        self.entries.fetch_add(1, Ordering::Relaxed);
        count(&self.writes, "store.writes");
        Ok(())
    }

    /// The `metrics` reply's `store` object.
    pub(crate) fn to_json(&self) -> Json {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let mut o = Json::obj();
        o.push("entries", load(&self.entries))
            .push("recovered", load(&self.recovered))
            .push("quarantined", load(&self.quarantined))
            .push("stale", load(&self.stale))
            .push("hits", load(&self.hits))
            .push("misses", load(&self.misses))
            .push("writes", load(&self.writes))
            .push("write_errors", load(&self.write_errors));
        o
    }

    /// Entries of this model verified by the recovery scan.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Entries moved to `quarantine/` by this process.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Entries of another model deleted by the recovery scan.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint the rooted tests store under.
    const FP: u64 = 0xA;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flatwalk-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell(report: &str) -> CachedCell {
        CachedCell {
            report_json: Arc::from(report),
            setup_nanos: 11,
            run_nanos: 22,
            retries: 1,
        }
    }

    /// A key computed by the model with fingerprint `fp`.
    fn key_of(fp: u64, name: &str) -> String {
        format!("{name}{}", model_tag(fp))
    }

    fn key(name: &str) -> String {
        key_of(FP, name)
    }

    fn open(dir: &Path) -> ResultStore {
        ResultStore::open(dir, FP).unwrap()
    }

    fn memory(budget: u64) -> ResultStore {
        ResultStore::new(None, budget)
    }

    fn disk(store: &ResultStore) -> &Disk {
        store.disk().expect("rooted store")
    }

    fn n(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Files (not directories) anywhere under `dir`.
    fn files_under(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| {
                if e.path().is_dir() {
                    files_under(&e.path())
                } else {
                    1
                }
            })
            .sum()
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let store = ResultStore::memory();
        assert!(store.get("k").is_none());
        store.put("k", &cell("{\"a\":1}"));
        let (hit, source) = store.get("k").unwrap();
        assert_eq!(&*hit.report_json, "{\"a\":1}");
        assert_eq!(source, Source::Memory);
        assert_eq!(store.len(), 1);
        assert!(store.disk().is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Budget fits two entries (~1/4 KB each with overhead), not
        // three.
        let payload = "x".repeat(200);
        let budget = 2 * (1 + payload.len() + 64) as u64;
        let cache = memory(budget);
        cache.put("a", &cell(&payload));
        cache.put("b", &cell(&payload));
        assert!(cache.get("a").is_some(), "refresh a; b is now coldest");
        cache.put("c", &cell(&payload));
        assert!(cache.get("b").is_none(), "b evicted");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
        assert_eq!(cache.evicted(), 1);
    }

    #[test]
    fn oversized_value_is_admitted_alone() {
        let cache = memory(16);
        cache.put("big", &cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "a single entry may exceed the budget");
        cache.put("big2", &cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "but two may not");
        assert!(cache.get("big2").is_some(), "newest survives");
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let cache = memory(1 << 20);
        cache.put("k", &cell(&"z".repeat(100)));
        let before = cache.bytes();
        cache.put("k", &cell(&"z".repeat(10)));
        assert!(cache.bytes() < before, "smaller replacement shrinks usage");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_fold_in_position_only_under_faults() {
        use flatwalk_bench::Mode;
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let c = &grid.cells[0];
        assert_eq!(cell_key(c, 0, 0, 9), cell_key(c, 0, 5, 9));
        assert_ne!(cell_key(c, 0xabc, 0, 9), cell_key(c, 0xabc, 5, 9));
        assert_ne!(cell_key(c, 0, 0, 9), cell_key(c, 0xabc, 0, 9));
        assert_ne!(
            cell_key(&grid.cells[1], 0, 0, 9),
            cell_key(c, 0, 0, 9),
            "different cell content, different key"
        );
    }

    #[test]
    fn rival_kind_folds_into_keys() {
        use flatwalk_bench::Mode;
        use flatwalk_sim::RivalKind;
        fn dummy(
            _cell: &Cell,
            _kind: RivalKind,
        ) -> Result<flatwalk_sim::SimReport, flatwalk_sim::SimError> {
            unreachable!("key test never runs the cell")
        }
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let native = grid.cells[0].clone();
        let mut victima = native.clone();
        victima.rival = Some((RivalKind::Victima, dummy));
        let mut mitosis = native.clone();
        mitosis.rival = Some((RivalKind::Mitosis { replicate: true }, dummy));
        let mut numa_base = native.clone();
        numa_base.rival = Some((RivalKind::Mitosis { replicate: false }, dummy));
        let native_key = cell_key(&native, 0, 0, 9);
        let victima_key = cell_key(&victima, 0, 0, 9);
        let mitosis_key = cell_key(&mitosis, 0, 0, 9);
        assert_ne!(native_key, victima_key);
        assert_ne!(victima_key, mitosis_key);
        assert_ne!(mitosis_key, cell_key(&numa_base, 0, 0, 9));
        assert!(
            !native_key.contains("rival"),
            "native keys stay byte-identical to pre-rival keys"
        );
    }

    #[test]
    fn keys_end_with_the_model_fingerprint() {
        use flatwalk_bench::Mode;
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let k = cell_key(&grid.cells[0], 0xabc, 3, 9);
        assert!(k.ends_with(&model_tag(MODEL_FINGERPRINT)), "{k}");
        assert!(
            k.len() > 80 + model_tag(0).len(),
            "trace prefix is cell content"
        );
    }

    /// Stress loop: readers hammer lock-free `get` while puts churn
    /// generations and evictions; every hit must return an intact
    /// payload for its key.
    #[test]
    fn concurrent_reads_survive_insert_and_eviction_churn() {
        let payload = "p".repeat(100);
        let budget = 8 * (2 + payload.len() + 64) as u64;
        let cache = Arc::new(memory(budget));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..16u64 {
                            if let Some((hit, _)) = cache.get(&format!("k{k}")) {
                                assert!(hit.report_json.starts_with(&format!("{k}:")));
                            }
                        }
                    }
                })
            })
            .collect();
        for round in 0..200u64 {
            let k = round % 16;
            cache.put(&format!("k{k}"), &cell(&format!("{k}:{payload}")));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(cache.evicted() > 0, "budget forces evictions during churn");
    }

    #[test]
    fn roundtrip_within_one_lifetime() {
        let dir = tempdir("roundtrip");
        let store = open(&dir);
        assert!(store.get(&key("k1")).is_none());
        store.put(&key("k1"), &cell("{\"r\":1}"));
        let (hit, source) = store.get(&key("k1")).unwrap();
        assert_eq!(&*hit.report_json, "{\"r\":1}");
        assert_eq!((hit.setup_nanos, hit.run_nanos, hit.retries), (11, 22, 1));
        assert_eq!(source, Source::Memory, "a put is resident");
        let d = disk(&store);
        assert_eq!(
            (n(&d.writes), n(&d.hits), n(&d.misses), n(&d.entries)),
            (1, 0, 1, 1)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_entries_byte_identically() {
        let dir = tempdir("reopen");
        let report = "{\"cells\":[1,2,3],\"f\":0.25}";
        {
            let store = open(&dir);
            store.put(&key("cell-key|a"), &cell(report));
            store.put(&key("cell-key|b"), &cell("{\"other\":true}"));
        }
        let store = open(&dir);
        assert_eq!(disk(&store).recovered(), 2);
        assert_eq!(n(&disk(&store).entries), 2);
        assert_eq!(disk(&store).quarantined(), 0);
        let (hit, source) = store.get(&key("cell-key|a")).unwrap();
        assert_eq!(&*hit.report_json, report);
        assert_eq!(source, Source::Disk, "recovery does not preload reports");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_of_another_model_are_deleted_as_stale() {
        let dir = tempdir("stale");
        // Two entries of model A, plus one whose key carries no
        // fingerprint at all (as written before keys carried one).
        let keys = [
            key_of(0xA, "x"),
            key_of(0xA, "y"),
            "legacy|untagged".to_string(),
        ];
        {
            let store = ResultStore::open(&dir, 0xA).unwrap();
            for k in &keys {
                store.put(k, &cell("{\"old\":1}"));
            }
        }
        let store = ResultStore::open(&dir, 0xB).unwrap();
        let d = disk(&store);
        assert_eq!((d.recovered(), d.quarantined()), (0, 0));
        assert_eq!(d.stale(), keys.len() as u64);
        for k in &keys {
            assert!(store.get(k).is_none(), "stale {k} must miss");
        }
        assert_eq!(n(&d.misses), keys.len() as u64);
        assert_eq!(files_under(&dir.join("objects")), 0);
        assert_eq!(
            files_under(&dir.join("quarantine")),
            0,
            "no quarantine noise"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_entries_come_back_from_disk() {
        let dir = tempdir("evict-reload");
        let report = "{\"reload\":\"me\"}";
        // Budget fits one entry, so admitting b evicts a from memory.
        let budget = (key("a").len() + report.len() + 64) as u64;
        let store = ResultStore::new(Some(Disk::open(&dir, FP).unwrap()), budget);
        store.put(&key("a"), &cell(report));
        store.put(&key("b"), &cell(report));
        assert_eq!(store.evicted(), 1);
        assert!(store.get_resident(&key("a")).is_none(), "a left memory");
        let (hit, source) = store.get(&key("a")).unwrap();
        assert_eq!(&*hit.report_json, report, "byte-identical from disk");
        assert_eq!(source, Source::Disk);
        assert_eq!(n(&disk(&store).hits), 1);
        assert!(store.get_resident(&key("a")).is_some(), "resident again");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The path of `key`'s entry under the store root.
    fn entry_path(root: &Path, key: &str) -> PathBuf {
        let hash = content_hash(key);
        root.join("objects")
            .join(&hash[..2])
            .join(format!("{hash}.entry"))
    }

    #[test]
    fn corrupt_and_truncated_entries_are_quarantined_on_open() {
        let dir = tempdir("corrupt");
        {
            let store = open(&dir);
            store.put(&key("good"), &cell("{\"g\":1}"));
            store.put(&key("flipped"), &cell("{\"f\":2}"));
            store.put(&key("truncated"), &cell("{\"t\":3}"));
        }
        // Flip one report byte (checksum must catch it) and truncate
        // another entry (length check must catch it).
        let flipped = entry_path(&dir, &key("flipped"));
        let mut bytes = fs::read(&flipped).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x20;
        fs::write(&flipped, &bytes).unwrap();
        let truncated = entry_path(&dir, &key("truncated"));
        let bytes = fs::read(&truncated).unwrap();
        fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();

        let store = open(&dir);
        assert_eq!(
            disk(&store).recovered(),
            1,
            "only the intact entry survives"
        );
        assert_eq!(disk(&store).quarantined(), 2);
        assert!(store.get(&key("good")).is_some());
        assert!(store.get(&key("flipped")).is_none());
        assert!(store.get(&key("truncated")).is_none());
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            2,
            "quarantined entries are preserved for inspection, not deleted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_after_open_is_caught_on_read() {
        let dir = tempdir("read-verify");
        open(&dir).put(&key("k"), &cell("{\"x\":9}"));
        // A second store on the same directory holds the entry on disk
        // only, so the corruption below meets the disk read path.
        let store = open(&dir);
        let path = entry_path(&dir, &key("k"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(
            store.get(&key("k")).is_none(),
            "read path verifies the checksum"
        );
        assert_eq!(disk(&store).quarantined(), 1);
        assert!(!path.exists(), "corrupt entry moved out of objects/");
        // A healing re-put serves again.
        store.put(&key("k"), &cell("{\"x\":9}"));
        assert_eq!(&*store.get(&key("k")).unwrap().0.report_json, "{\"x\":9}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = tempdir("tmp-sweep");
        {
            let _ = open(&dir);
        }
        fs::write(dir.join("tmp").join("orphan.123.0"), b"partial write").unwrap();
        let store = open(&dir);
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
        assert_eq!(disk(&store).recovered(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_is_stable_and_key_sensitive() {
        assert_eq!(content_hash("a"), content_hash("a"));
        assert_ne!(content_hash("a"), content_hash("b"));
        assert_eq!(content_hash("a").len(), 32);
        assert!(content_hash("a").chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn entry_format_rejects_schema_drift() {
        let bytes = render_entry("k", &cell("{}"));
        assert!(parse_entry(&bytes).is_ok());
        let drifted = String::from_utf8(bytes).unwrap().replace(SCHEMA, "v0");
        assert!(parse_entry(drifted.as_bytes()).is_err());
        assert!(parse_entry(b"garbage, no header").is_err());
        assert!(parse_entry(b"").is_err());
    }
}
