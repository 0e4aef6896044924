//! The persistent campaign result cache.
//!
//! Characterization time is the limiting cost of margin studies — the
//! paper's massive campaign ran for months. Since every characterization
//! point in this reproduction is a pure function of its coordinates
//! (chip, rail, frequencies, enhancements, seed, iteration count,
//! benchmark, core, voltage — each probe runs on a pristine board), its
//! classified outcome can be persisted and replayed: repeated and
//! incremental campaigns skip already-characterized points entirely.
//!
//! The cache keeps its records per chip: one shard of two [`BTreeMap`]s
//! (step probes and golden captures) for each chip, behind an [`Arc`], so
//! a copy of the cache shares every shard it does not change. It is
//! persisted as JSONL with one record per line in key order, so the byte
//! stream is deterministic for a given content. Serialization
//! is hand-rolled — a small writer plus the shared [`margins_trace::json`]
//! recursive-descent reader — so the on-disk format is fully controlled
//! by this module, floats round-trip exactly (shortest representation),
//! and a corrupted or truncated file is rejected with a typed
//! [`CacheError`], never a panic.

use crate::config::{CampaignConfig, PARKED_FREQUENCY};
use crate::effect::EffectSet;
use crate::search::{ItemPrior, SearchPriors};
use margins_sim::{CoreId, Enhancements};
use margins_trace::json::{self, Fields};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifies one step probe: every coordinate its outcome depends on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StepKey {
    /// Chip identity (corner + serial), e.g. `"TTT#0"`.
    pub chip: String,
    /// Swept rail label (`"pmd"` or `"soc"`).
    pub rail: String,
    /// Target-core PMD clock, MHz.
    pub target_mhz: u32,
    /// Parked-PMD clock, MHz.
    pub parked_mhz: u32,
    /// Enhancement flags: bit 0 extended ECC, bit 1 residue checks, bit 2
    /// adaptive clocking.
    pub enhancements: u8,
    /// Campaign seed.
    pub seed: u64,
    /// Iterations per step — a 2-iteration probe is not a prefix of a
    /// 10-iteration probe (the crash-stop and verdict logic differ), so
    /// the count is part of the key.
    pub iterations: u32,
    /// Benchmark name.
    pub program: String,
    /// Dataset label.
    pub dataset: String,
    /// Target core index.
    pub core: u8,
    /// Swept-rail voltage of the probe, millivolts.
    pub mv: u32,
}

/// Identifies one golden capture (nominal conditions — no swept voltage,
/// no iteration count).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GoldenKey {
    /// Chip identity (corner + serial).
    pub chip: String,
    /// Target-core PMD clock, MHz.
    pub target_mhz: u32,
    /// Parked-PMD clock, MHz.
    pub parked_mhz: u32,
    /// Enhancement flags: bit 0 extended ECC, bit 1 residue checks, bit 2
    /// adaptive clocking.
    pub enhancements: u8,
    /// Campaign seed.
    pub seed: u64,
    /// Benchmark name.
    pub program: String,
    /// Dataset label.
    pub dataset: String,
    /// Target core index.
    pub core: u8,
}

/// One cached iteration of a step probe. Coordinates already present in
/// the [`StepKey`] (program, core, voltages, frequency) are not repeated;
/// the runner reconstructs the full `ClassifiedRun` from key + entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// Observed Table 3 effects.
    pub effects: EffectSet,
    /// Corrected-error reports.
    pub corrected_errors: u64,
    /// Uncorrected-error reports.
    pub uncorrected_errors: u64,
    /// Modelled runtime, seconds.
    pub runtime_s: f64,
    /// Modelled energy, joules.
    pub energy_j: f64,
}

/// Everything one step probe produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepEntry {
    /// Per-iteration outcomes, in iteration order.
    pub runs: Vec<CachedRun>,
    /// Watchdog power cycles the probe triggered (including the trailing
    /// recovery of a hang in its last iteration).
    pub power_cycles: u32,
}

impl StepEntry {
    /// Whether any iteration manifested an abnormal effect.
    #[must_use]
    pub(crate) fn any_abnormal(&self) -> bool {
        self.runs.iter().any(|r| !r.effects.is_normal())
    }

    /// Whether any iteration crashed the whole system.
    #[must_use]
    pub(crate) fn any_system_crash(&self) -> bool {
        self.runs.iter().any(|r| r.effects.is_system_crash())
    }

    /// Whether every iteration crashed the whole system.
    #[must_use]
    pub(crate) fn all_system_crash(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.effects.is_system_crash())
    }
}

/// One cached golden capture.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenEntry {
    /// Golden output digest value.
    pub digest: u64,
    /// Modelled nominal runtime, seconds.
    pub runtime_s: f64,
}

/// Typed error loading or parsing a cache file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error message.
        message: String,
    },
    /// A line of the file is not a valid cache record (corruption,
    /// truncation, or an unknown record kind).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => write!(f, "cache file {path}: {message}"),
            CacheError::Corrupt { line, message } => {
                write!(f, "corrupt cache record on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Packs the enhancement flags into the stable bit layout used by cache
/// keys (bit 0 = extended ECC, bit 1 = residue checks, bit 2 = adaptive
/// clocking).
#[must_use]
pub(crate) fn encode_enhancements(e: Enhancements) -> u8 {
    u8::from(e.extended_ecc) | u8::from(e.residue_checks) << 1 | u8::from(e.adaptive_clocking) << 2
}

/// One chip's records. [`StepKey`] and [`GoldenKey`] both order by chip
/// first, so walking the shards in chip order walks each record kind in
/// key order.
#[derive(Debug, Clone, Default, PartialEq)]
struct ChipRecords {
    steps: BTreeMap<StepKey, StepEntry>,
    goldens: BTreeMap<GoldenKey, GoldenEntry>,
}

/// The persistent, byte-deterministic campaign result cache.
///
/// Records are sharded by chip and each shard is copy-on-write: cloning
/// the cache copies one pointer per chip, and an insert deep-copies only
/// the shard it lands in, and only while another clone still shares it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignCache {
    /// A shard exists only once it holds a record.
    chips: BTreeMap<Arc<str>, Arc<ChipRecords>>,
}

impl CampaignCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        CampaignCache::default()
    }

    /// Total records (step probes + golden captures).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips
            .values()
            .map(|shard| shard.steps.len() + shard.goldens.len())
            .sum()
    }

    /// Whether the cache holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Looks up a step probe.
    #[must_use]
    pub fn step(&self, key: &StepKey) -> Option<&StepEntry> {
        self.chips.get(key.chip.as_str())?.steps.get(key)
    }

    /// Inserts (or replaces) a step probe.
    pub fn insert_step(&mut self, key: StepKey, entry: StepEntry) {
        // One lookup on a hit; the chip name is copied only on a miss.
        if let Some(shard) = self.chips.get_mut(key.chip.as_str()) {
            Arc::make_mut(shard).steps.insert(key, entry);
        } else {
            let chip = Arc::from(key.chip.as_str());
            let mut shard = ChipRecords::default();
            shard.steps.insert(key, entry);
            self.chips.insert(chip, Arc::new(shard));
        }
    }

    /// Looks up a golden capture.
    #[must_use]
    pub(crate) fn golden(&self, key: &GoldenKey) -> Option<&GoldenEntry> {
        self.chips.get(key.chip.as_str())?.goldens.get(key)
    }

    /// Inserts (or replaces) a golden capture.
    pub fn insert_golden(&mut self, key: GoldenKey, entry: GoldenEntry) {
        if let Some(shard) = self.chips.get_mut(key.chip.as_str()) {
            Arc::make_mut(shard).goldens.insert(key, entry);
        } else {
            let chip = Arc::from(key.chip.as_str());
            let mut shard = ChipRecords::default();
            shard.goldens.insert(key, entry);
            self.chips.insert(chip, Arc::new(shard));
        }
    }

    /// All step probes, in key order.
    pub fn steps(&self) -> impl Iterator<Item = (&StepKey, &StepEntry)> {
        self.chips.values().flat_map(|shard| shard.steps.iter())
    }

    /// All golden captures, in key order.
    fn goldens(&self) -> impl Iterator<Item = (&GoldenKey, &GoldenEntry)> {
        self.chips.values().flat_map(|shard| shard.goldens.iter())
    }

    /// Derives [`SearchPriors`] for `config` on `chip` from every cached
    /// probe of the same machine setup, *ignoring seed and iteration
    /// count*: a pilot campaign with a different seed contributes priors
    /// (its boundaries transfer) without contributing cache hits (its run
    /// outcomes do not).
    ///
    /// The prior for each (program, dataset, core) is the highest cached
    /// voltage at which the item misbehaved / crashed — under the
    /// monotonicity the region model assumes, that is the boundary.
    #[must_use]
    pub(crate) fn derive_priors(&self, chip: &str, config: &CampaignConfig) -> SearchPriors {
        let rail = config.rail.label();
        let enh = encode_enhancements(config.enhancements);
        let mut priors = SearchPriors::new();
        let Some(shard) = self.chips.get(chip) else {
            return priors;
        };
        let mut best: BTreeMap<(String, String, u8), ItemPrior> = BTreeMap::new();
        for (key, entry) in &shard.steps {
            if key.rail != rail
                || key.target_mhz != config.target_frequency.get()
                || key.parked_mhz != PARKED_FREQUENCY.get()
                || key.enhancements != enh
            {
                continue;
            }
            let slot = best
                .entry((key.program.clone(), key.dataset.clone(), key.core))
                .or_default();
            if entry.any_abnormal() && slot.vmin_mv.is_none_or(|mv| key.mv > mv) {
                slot.vmin_mv = Some(key.mv);
            }
            if entry.any_system_crash() && slot.crash_mv.is_none_or(|mv| key.mv > mv) {
                slot.crash_mv = Some(key.mv);
            }
        }
        for ((program, dataset, core), prior) in best {
            // Cache files are untrusted input: an out-of-range core id is
            // dropped rather than allowed to panic CoreId's constructor.
            if (core as usize) >= margins_sim::topology::NUM_CORES {
                continue;
            }
            if prior.vmin_mv.is_some() || prior.crash_mv.is_some() {
                priors.insert(&program, &dataset, CoreId::new(core), prior);
            }
        }
        priors
    }

    /// Serializes the cache as JSONL, golden records first, each section
    /// in key order — byte-deterministic for a given content.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, entry) in self.goldens() {
            out.push_str("{\"kind\":\"golden\"");
            push_str_field(&mut out, "chip", &key.chip);
            push_raw_field(&mut out, "target_mhz", &key.target_mhz.to_string());
            push_raw_field(&mut out, "parked_mhz", &key.parked_mhz.to_string());
            push_raw_field(&mut out, "enh", &key.enhancements.to_string());
            push_raw_field(&mut out, "seed", &key.seed.to_string());
            push_str_field(&mut out, "program", &key.program);
            push_str_field(&mut out, "dataset", &key.dataset);
            push_raw_field(&mut out, "core", &key.core.to_string());
            push_str_field(&mut out, "digest", &format!("{:016x}", entry.digest));
            push_raw_field(&mut out, "runtime_s", &json::fmt_f64(entry.runtime_s));
            out.push_str("}\n");
        }
        for (key, entry) in self.steps() {
            out.push_str("{\"kind\":\"step\"");
            push_str_field(&mut out, "chip", &key.chip);
            push_str_field(&mut out, "rail", &key.rail);
            push_raw_field(&mut out, "target_mhz", &key.target_mhz.to_string());
            push_raw_field(&mut out, "parked_mhz", &key.parked_mhz.to_string());
            push_raw_field(&mut out, "enh", &key.enhancements.to_string());
            push_raw_field(&mut out, "seed", &key.seed.to_string());
            push_raw_field(&mut out, "iterations", &key.iterations.to_string());
            push_str_field(&mut out, "program", &key.program);
            push_str_field(&mut out, "dataset", &key.dataset);
            push_raw_field(&mut out, "core", &key.core.to_string());
            push_raw_field(&mut out, "mv", &key.mv.to_string());
            push_raw_field(&mut out, "power_cycles", &entry.power_cycles.to_string());
            out.push_str(",\"runs\":[");
            for (i, run) in entry.runs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"effects\":");
                json::escape_into(&mut out, &run.effects.to_string());
                push_raw_field(&mut out, "ce", &run.corrected_errors.to_string());
                push_raw_field(&mut out, "ue", &run.uncorrected_errors.to_string());
                push_raw_field(&mut out, "runtime_s", &json::fmt_f64(run.runtime_s));
                push_raw_field(&mut out, "energy_j", &json::fmt_f64(run.energy_j));
                out.push('}');
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parses a cache back from its JSONL form.
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] on the first malformed line — a truncated
    /// trailing line, a non-JSON line, an unknown record kind, or a
    /// record missing a field all reject the file.
    pub fn from_jsonl(input: &str) -> Result<CampaignCache, CacheError> {
        let mut cache = CampaignCache::new();
        for (idx, line) in input.lines().enumerate() {
            cache
                .insert_line(line)
                .map_err(|message| CacheError::Corrupt {
                    line: idx + 1,
                    message,
                })?;
        }
        Ok(cache)
    }

    /// Decodes one line of the JSONL form and inserts its record. Fields
    /// no record kind reads are ignored.
    fn insert_line(&mut self, line: &str) -> Result<(), String> {
        if line.trim().is_empty() {
            return Err("blank line (the writer never emits one)".into());
        }
        let value = json::parse(line)?;
        let mut obj = Fields::of(&value).ok_or("expected a JSON object")?;
        match obj.get("kind")? {
            "golden" => {
                let key = GoldenKey {
                    chip: obj.get("chip")?,
                    target_mhz: obj.get("target_mhz")?,
                    parked_mhz: obj.get("parked_mhz")?,
                    enhancements: obj.get("enh")?,
                    seed: obj.get("seed")?,
                    program: obj.get("program")?,
                    dataset: obj.get("dataset")?,
                    core: obj.get("core")?,
                };
                let digest = u64::from_str_radix(obj.get("digest")?, 16)
                    .map_err(|e| format!("digest: {e}"))?;
                let entry = GoldenEntry {
                    digest,
                    runtime_s: obj.get("runtime_s")?,
                };
                self.insert_golden(key, entry);
            }
            "step" => {
                let key = StepKey {
                    chip: obj.get("chip")?,
                    rail: obj.get("rail")?,
                    target_mhz: obj.get("target_mhz")?,
                    parked_mhz: obj.get("parked_mhz")?,
                    enhancements: obj.get("enh")?,
                    seed: obj.get("seed")?,
                    iterations: obj.get("iterations")?,
                    program: obj.get("program")?,
                    dataset: obj.get("dataset")?,
                    core: obj.get("core")?,
                    mv: obj.get("mv")?,
                };
                let items: &[json::Value] = obj.get("runs")?;
                let mut runs = Vec::with_capacity(items.len());
                for item in items {
                    let mut run = Fields::of(item).ok_or("a run is not a JSON object")?;
                    let effects: &str = run.get("effects")?;
                    runs.push(CachedRun {
                        effects: effects.parse().map_err(|e| format!("effects: {e}"))?,
                        corrected_errors: run.get("ce")?,
                        uncorrected_errors: run.get("ue")?,
                        runtime_s: run.get("runtime_s")?,
                        energy_j: run.get("energy_j")?,
                    });
                }
                let entry = StepEntry {
                    runs,
                    power_cycles: obj.get("power_cycles")?,
                };
                self.insert_step(key, entry);
            }
            kind => return Err(format!("unknown record kind '{kind}'")),
        }
        Ok(())
    }

    /// Loads a cache file. A missing file is an empty cache (the first
    /// campaign of an incremental series starts cold); any other read
    /// failure or malformed content is an error.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the file exists but cannot be read,
    /// [`CacheError::Corrupt`] when a line does not parse.
    pub fn load(path: impl AsRef<Path>) -> Result<CampaignCache, CacheError> {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Ok(text) => CampaignCache::from_jsonl(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CampaignCache::new()),
            Err(e) => Err(CacheError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            }),
        }
    }

    /// Persists the cache, replacing `path` whole
    /// ([`margins_trace::write_atomic`]): a kill mid-save leaves the
    /// previous file intact, never a torn one that a later load rejects.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CacheError> {
        let path = path.as_ref();
        margins_trace::write_atomic(path, self.to_jsonl()).map_err(|e| CacheError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Compacts a cache file in place: parses it (later duplicates of a
    /// [`StepKey`]/[`GoldenKey`] supersede earlier ones, exactly as
    /// [`CampaignCache::from_jsonl`] resolves them on every load) and
    /// rewrites it in canonical serialized form — goldens first, key
    /// order, no superseded lines. Idempotent: compacting an
    /// already-compact file leaves it byte-identical and untouched on
    /// disk. The rewrite replaces the file whole, as [`CampaignCache::save`]
    /// does.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the file is missing or unreadable (unlike
    /// [`CampaignCache::load`], a missing file is an error here — there is
    /// nothing to compact), [`CacheError::Corrupt`] when a line does not
    /// parse.
    pub fn compact_file(path: impl AsRef<Path>) -> Result<CompactionStats, CacheError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| CacheError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let cache = CampaignCache::from_jsonl(&text)?;
        let compacted = cache.to_jsonl();
        let stats = CompactionStats {
            lines_before: text.lines().count(),
            lines_after: compacted.lines().count(),
            rewritten: compacted != text,
        };
        if stats.rewritten {
            margins_trace::write_atomic(path, compacted).map_err(|e| CacheError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
        Ok(stats)
    }
}

/// What [`CampaignCache::compact_file`] did to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Lines in the file before compaction.
    pub lines_before: usize,
    /// Lines after compaction (records surviving deduplication).
    pub lines_after: usize,
    /// Whether the file was rewritten (false when already canonical).
    pub rewritten: bool,
}

impl CompactionStats {
    /// Superseded lines dropped by the compaction.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.lines_before.saturating_sub(self.lines_after)
    }
}

/// Fresh results appended to a [`SharedCampaignCache`] since its last
/// publish, in append order.
#[derive(Debug, Default)]
struct CacheLog {
    goldens: Vec<(GoldenKey, GoldenEntry)>,
    steps: Vec<(StepKey, StepEntry)>,
}

impl CacheLog {
    fn is_empty(&self) -> bool {
        self.goldens.is_empty() && self.steps.is_empty()
    }
}

/// A concurrently shareable [`CampaignCache`]: several campaigns may look
/// up and contribute results against one store at the same time.
///
/// # Concurrency model
///
/// The store is a published immutable snapshot (`Arc<CampaignCache>`)
/// plus an append log of fresh results:
///
/// * **Reads never block on writes.** Taking a snapshot clones the
///   `Arc` — campaigns then probe their snapshot lock-free for their
///   entire run. A campaign's lookups are fixed at its start, so its
///   results are independent of what sibling campaigns publish mid-run
///   (the same schedule-independence the single-campaign path
///   guarantees).
/// * **Writes append.** Golden captures and
///   [`SharedCampaignCache::append_step`] push onto the log;
///   [`SharedCampaignCache::publish`] folds the log into a new snapshot.
///   The new snapshot shares every chip shard the log does not touch
///   with the old one, so a publish costs the touched chips plus one
///   pointer per chip, however long the cache has grown.
///   Appends from concurrent campaigns interleave arbitrarily, but the
///   fold lands in [`BTreeMap`]s — identical coordinates produce
///   identical entries (probes are pure functions of their keys), so the
///   published cache, and therefore the saved JSONL, is byte-deterministic
///   regardless of completion order.
///
/// Serialization ([`SharedCampaignCache::to_jsonl`] /
/// [`SharedCampaignCache::save`]) publishes pending appends first and then
/// emits the snapshot's canonical JSONL — byte-identical to what a plain
/// [`CampaignCache`] holding the same records writes.
#[derive(Debug, Default)]
pub struct SharedCampaignCache {
    snapshot: Mutex<Arc<CampaignCache>>,
    log: Mutex<CacheLog>,
}

impl SharedCampaignCache {
    /// An empty shared cache.
    #[must_use]
    pub fn new() -> Self {
        SharedCampaignCache::default()
    }

    /// Loads a shared cache from a file ([`CampaignCache::load`]
    /// semantics: a missing file is an empty cache).
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the file exists but cannot be read,
    /// [`CacheError::Corrupt`] when a line does not parse.
    pub fn load(path: impl AsRef<Path>) -> Result<SharedCampaignCache, CacheError> {
        Ok(CampaignCache::load(path)?.into())
    }

    /// The current published snapshot. A cheap `Arc` clone: the lock is
    /// held only for the clone, never while a reader probes the cache,
    /// so lookups never block on concurrent appends or publishes.
    #[must_use]
    pub(crate) fn snapshot(&self) -> Arc<CampaignCache> {
        lock(&self.snapshot).clone()
    }

    /// Appends a fresh golden capture to the log (visible to snapshots
    /// after the next [`SharedCampaignCache::publish`]).
    pub(crate) fn append_golden(&self, key: GoldenKey, entry: GoldenEntry) {
        lock(&self.log).goldens.push((key, entry));
    }

    /// Appends a fresh step probe to the log (visible to snapshots after
    /// the next [`SharedCampaignCache::publish`]).
    pub fn append_step(&self, key: StepKey, entry: StepEntry) {
        lock(&self.log).steps.push((key, entry));
    }

    /// Folds every logged append into a new published snapshot. A no-op
    /// when the log is empty. Readers holding older snapshots are
    /// unaffected; snapshots taken afterwards see the fold.
    pub fn publish(&self) {
        // Lock order everywhere in this type: log, then snapshot.
        let mut log = lock(&self.log);
        if log.is_empty() {
            return;
        }
        let mut snapshot = lock(&self.snapshot);
        // Copy-on-write twice over: the snapshot is copied only while a
        // reader holds it, and then only as one pointer per chip; each
        // touched shard is deep-copied once, on its first insert.
        let next = Arc::make_mut(&mut snapshot);
        for (key, entry) in log.goldens.drain(..) {
            next.insert_golden(key, entry);
        }
        for (key, entry) in log.steps.drain(..) {
            next.insert_step(key, entry);
        }
    }

    /// Total records in the published view (pending appends are published
    /// first).
    #[must_use]
    #[expect(
        clippy::len_without_is_empty,
        reason = "callers read the record count; none asks for emptiness"
    )]
    pub fn len(&self) -> usize {
        self.publish();
        lock(&self.snapshot).len()
    }

    /// Publishes pending appends and serializes the store as canonical
    /// JSONL — byte-identical to [`CampaignCache::to_jsonl`] on the same
    /// records.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.publish();
        lock(&self.snapshot).to_jsonl()
    }

    /// Publishes pending appends and persists the store, overwriting
    /// `path`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CacheError> {
        self.publish();
        lock(&self.snapshot).save(path)
    }
}

/// Locks `mutex`, recovering the guard if a holder panicked. Every critical
/// section above leaves its value consistent (a push, whole-record inserts
/// into the snapshot, or a read), so one panicking campaign must not fail
/// every later job sharing the cache.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl From<CampaignCache> for SharedCampaignCache {
    fn from(cache: CampaignCache) -> SharedCampaignCache {
        SharedCampaignCache {
            snapshot: Mutex::new(Arc::new(cache)),
            log: Mutex::new(CacheLog::default()),
        }
    }
}

/// Appends `,"name":"escaped value"` to `out`.
fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    json::escape_into(out, value);
}

/// Appends `,"name":raw` to `out` (for already-serialized numbers).
fn push_raw_field(out: &mut String, name: &str, raw: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    out.push_str(raw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;

    fn step_key(mv: u32) -> StepKey {
        StepKey {
            chip: "TTT#0".into(),
            rail: "pmd".into(),
            target_mhz: 2400,
            parked_mhz: 300,
            enhancements: 0,
            seed: 0xC0FF_EE00,
            iterations: 2,
            program: "bwaves".into(),
            dataset: "ref".into(),
            core: 0,
            mv,
        }
    }

    fn golden_key(chip: &str, core: u8) -> GoldenKey {
        GoldenKey {
            chip: chip.into(),
            target_mhz: 2400,
            parked_mhz: 300,
            enhancements: 0,
            seed: 0xC0FF_EE00,
            program: "bwaves".into(),
            dataset: "ref".into(),
            core,
        }
    }

    fn entry(effects: &[EffectSet]) -> StepEntry {
        StepEntry {
            runs: effects
                .iter()
                .map(|e| CachedRun {
                    effects: *e,
                    corrected_errors: 1,
                    uncorrected_errors: 0,
                    runtime_s: 0.062_5,
                    energy_j: 1.25e-2,
                })
                .collect(),
            power_cycles: 1,
        }
    }

    fn sample() -> CampaignCache {
        let mut cache = CampaignCache::new();
        cache.insert_step(step_key(900), entry(&[EffectSet::new(), EffectSet::new()]));
        cache.insert_step(
            step_key(880),
            entry(&[
                EffectSet::of(Effect::Sc),
                [Effect::Sdc, Effect::Ce].into_iter().collect(),
            ]),
        );
        cache.insert_golden(
            golden_key("TTT#0", 0),
            GoldenEntry {
                digest: 0xDEAD_BEEF_0123_4567,
                runtime_s: 0.5,
            },
        );
        cache
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let cache = sample();
        let text = cache.to_jsonl();
        let reloaded = CampaignCache::from_jsonl(&text).expect("own output parses");
        assert_eq!(reloaded, cache);
        // And the serialization is byte-deterministic.
        assert_eq!(reloaded.to_jsonl(), text);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut cache = CampaignCache::new();
        let mut key = step_key(5);
        key.seed = u64::MAX; // would lose precision through f64
        key.program = "we\"ird\\name\n".into();
        cache.insert_step(
            key.clone(),
            StepEntry {
                runs: vec![CachedRun {
                    effects: EffectSet::of(Effect::Ue),
                    corrected_errors: u64::MAX,
                    uncorrected_errors: 7,
                    runtime_s: 1.234_567_890_123_456_7e-12,
                    energy_j: f64::MIN_POSITIVE,
                }],
                power_cycles: 0,
            },
        );
        let reloaded = CampaignCache::from_jsonl(&cache.to_jsonl()).expect("parses");
        assert_eq!(reloaded, cache);
        assert!(reloaded.step(&key).is_some());
    }

    #[test]
    fn truncated_and_corrupt_files_are_typed_errors() {
        let text = sample().to_jsonl();
        // Truncate mid-line: the trailing fragment must be rejected.
        let cut = text.len() - 10;
        let err = CampaignCache::from_jsonl(&text[..cut]).expect_err("truncated");
        assert!(matches!(err, CacheError::Corrupt { .. }), "{err}");

        for garbage in [
            "not json at all\n",
            "{\"kind\":\"mystery\"}\n",
            "{\"kind\":\"step\"}\n",                // missing fields
            "{\"kind\":\"golden\",\"chip\":3}\n",   // wrong type
            "[1,2,3]\n",                            // not an object
            "\n",                                   // blank line
            "{\"kind\":\"step\",\"seed\":1e309}\n", // unparseable number field
            // Non-finite float: it would be saved as `null`.
            "{\"kind\":\"golden\",\"chip\":\"TTT#0\",\"target_mhz\":2400,\"parked_mhz\":300,\"enh\":0,\"seed\":1,\"program\":\"bwaves\",\"dataset\":\"ref\",\"core\":0,\"digest\":\"00ff\",\"runtime_s\":1e999}\n",
        ] {
            let err = CampaignCache::from_jsonl(garbage).expect_err(garbage);
            assert!(matches!(err, CacheError::Corrupt { .. }), "{garbage:?}");
            assert!(err.to_string().contains("line 1"), "{err}");
        }
    }

    #[test]
    fn load_of_missing_file_is_an_empty_cache() {
        let cache =
            CampaignCache::load("/nonexistent/dir/never-here.jsonl").expect("missing file is cold");
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("margins-cache-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("roundtrip.jsonl");
        let cache = sample();
        cache.save(&path).expect("save");
        let reloaded = CampaignCache::load(&path).expect("load");
        assert_eq!(reloaded, cache);
        std::fs::remove_file(&path).ok();
    }

    /// A directory of this process's own, emptied.
    fn private_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("margins-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_and_compaction_replace_the_file_and_leave_no_temporary() {
        let dir = private_dir("cache-atomic");
        let path = dir.join("cache.jsonl");
        std::fs::write(&path, "stale\n").expect("seed file");
        let cache = sample();
        cache.save(&path).expect("save");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            cache.to_jsonl()
        );
        assert_eq!(listing(&dir), ["cache.jsonl"]);

        let doubled = cache.to_jsonl().repeat(2);
        std::fs::write(&path, &doubled).expect("duplicate lines");
        let stats = CampaignCache::compact_file(&path).expect("compacts");
        assert!(stats.rewritten);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            cache.to_jsonl()
        );
        assert_eq!(listing(&dir), ["cache.jsonl"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn priors_derive_from_matching_entries_only() {
        let mut cache = sample(); // abnormal at 880 (SC), normal at 900
        let mut other_rail = step_key(910);
        other_rail.rail = "soc".into();
        cache.insert_step(other_rail, entry(&[EffectSet::of(Effect::Sc)]));
        let mut other_seed = step_key(895);
        other_seed.seed = 1; // different seed still contributes priors
        cache.insert_step(other_seed, entry(&[EffectSet::of(Effect::Sdc)]));

        let config = CampaignConfig::builder()
            .benchmarks(["bwaves"])
            .build()
            .expect("valid config");
        let priors = cache.derive_priors("TTT#0", &config);
        let prior = priors
            .get("bwaves", "ref", CoreId::new(0))
            .expect("prior derived");
        // Highest abnormal voltage across seeds: the 895 SDC entry.
        assert_eq!(prior.vmin_mv, Some(895));
        // Highest crash voltage on the pmd rail: 880 (the soc entry at 910
        // belongs to a different machine setup).
        assert_eq!(prior.crash_mv, Some(880));
        // A chip with no shard has no priors.
        assert_eq!(cache.derive_priors("TFF#1", &config), SearchPriors::new());

        // Other chips' records, some above TTT#0's boundaries and one on
        // a name that shares TTT#0's prefix, stay in their own shards.
        for (chip, mv, effects) in [
            ("TTT#00", 930, EffectSet::of(Effect::Sc)),
            ("TTT#10", 905, EffectSet::of(Effect::Sdc)),
            ("TTT#10", 885, EffectSet::of(Effect::Sc)),
            ("TSS#1", 925, EffectSet::of(Effect::Sc)),
        ] {
            let mut key = step_key(mv);
            key.chip = chip.into();
            cache.insert_step(key, entry(&[effects]));
        }
        let prior_of = |chip: &str| {
            cache
                .derive_priors(chip, &config)
                .get("bwaves", "ref", CoreId::new(0))
        };
        let own = prior_of("TTT#0").expect("prior derived");
        assert_eq!((own.vmin_mv, own.crash_mv), (Some(895), Some(880)));
        let ten = prior_of("TTT#10").expect("prior derived");
        assert_eq!((ten.vmin_mv, ten.crash_mv), (Some(905), Some(885)));
        let tss = prior_of("TSS#1").expect("prior derived");
        assert_eq!((tss.vmin_mv, tss.crash_mv), (Some(925), Some(925)));
        let zero = prior_of("TTT#00").expect("prior derived");
        assert_eq!((zero.vmin_mv, zero.crash_mv), (Some(930), Some(930)));
        assert_eq!(cache.derive_priors("TTT#1", &config), SearchPriors::new());
    }

    #[test]
    fn enhancement_bits_are_stable() {
        assert_eq!(encode_enhancements(Enhancements::stock()), 0);
        assert_eq!(encode_enhancements(Enhancements::all()), 0b111);
        let ecc = Enhancements {
            extended_ecc: true,
            ..Enhancements::stock()
        };
        assert_eq!(encode_enhancements(ecc), 0b001);
    }

    #[test]
    fn compaction_drops_superseded_lines_and_is_idempotent() {
        // Hand-build a log with duplicates: the same step key appears
        // three times (two stale, one live), the same golden twice, plus
        // lines deliberately out of canonical order (step before golden).
        let live = sample();
        let mut stale = CampaignCache::new();
        stale.insert_step(step_key(900), entry(&[EffectSet::of(Effect::Sc)]));
        let stale_step_line = stale
            .to_jsonl()
            .lines()
            .next()
            .expect("one line")
            .to_owned();
        let mut log = String::new();
        log.push_str(&stale_step_line);
        log.push('\n');
        log.push_str(&stale_step_line);
        log.push('\n');
        log.push_str(&live.to_jsonl());

        let dir = std::env::temp_dir().join("margins-cache-compact-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("dup.jsonl");
        std::fs::write(&path, &log).expect("write log");

        let stats = CampaignCache::compact_file(&path).expect("compacts");
        assert_eq!(stats.lines_before, 5);
        assert_eq!(stats.lines_after, 3);
        assert_eq!(stats.dropped(), 2);
        assert!(stats.rewritten);

        // The rewrite resolves duplicates exactly like a load would:
        // the surviving content equals the live cache's canonical form.
        let compacted = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(compacted, live.to_jsonl());

        // Second run: byte-identical, nothing rewritten.
        let again = CampaignCache::compact_file(&path).expect("idempotent");
        assert_eq!(again.lines_before, 3);
        assert_eq!(again.lines_after, 3);
        assert_eq!(again.dropped(), 0);
        assert!(!again.rewritten);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            compacted
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_a_missing_or_corrupt_file_is_a_typed_error() {
        let err = CampaignCache::compact_file("/nonexistent/never.jsonl").expect_err("missing");
        assert!(matches!(err, CacheError::Io { .. }), "{err}");

        let dir = std::env::temp_dir().join("margins-cache-compact-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.jsonl");
        std::fs::write(&path, "not json\n").expect("write");
        let err = CampaignCache::compact_file(&path).expect_err("corrupt");
        assert!(matches!(err, CacheError::Corrupt { line: 1, .. }), "{err}");
        // A corrupt file is left untouched.
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "not json\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_cache_snapshots_are_fixed_while_appends_publish() {
        let shared = SharedCampaignCache::from(sample());
        let before = shared.snapshot();
        assert_eq!(before.len(), 3);

        // Appends are invisible until published…
        let mut key = step_key(870);
        key.core = 1;
        shared.append_step(key.clone(), entry(&[EffectSet::new()]));
        assert!(shared.snapshot().step(&key).is_none());

        // …and invisible to snapshots taken before the publish even after.
        shared.publish();
        assert!(before.step(&key).is_none());
        assert!(shared.snapshot().step(&key).is_some());
        assert_eq!(shared.len(), 4);
    }

    #[test]
    fn shared_cache_serializes_like_the_equivalent_owned_cache() {
        // Two "campaigns" append the same records in different orders;
        // the published store serializes identically either way, and
        // identically to a plain cache holding the same records.
        let mut owned = sample();
        let mut extra = step_key(865);
        extra.program = "namd".into();
        owned.insert_step(extra.clone(), entry(&[EffectSet::new()]));

        let ab = SharedCampaignCache::from(sample());
        ab.append_step(extra.clone(), entry(&[EffectSet::new()]));
        let ba = SharedCampaignCache::new();
        ba.append_step(extra, entry(&[EffectSet::new()]));
        for (k, e) in sample().steps() {
            ba.append_step(k.clone(), e.clone());
        }
        ba.append_golden(
            golden_key("TTT#0", 0),
            GoldenEntry {
                digest: 0xDEAD_BEEF_0123_4567,
                runtime_s: 0.5,
            },
        );

        assert_eq!(ab.to_jsonl(), owned.to_jsonl());
        assert_eq!(ba.to_jsonl(), owned.to_jsonl());
    }

    #[test]
    fn shared_cache_handles_concurrent_appenders() {
        let shared = SharedCampaignCache::new();
        std::thread::scope(|scope| {
            for core in 0..4u8 {
                let shared = &shared;
                scope.spawn(move || {
                    for mv in [900, 890, 880] {
                        let mut key = step_key(mv);
                        key.core = core;
                        shared.append_step(key, entry(&[EffectSet::new()]));
                    }
                    shared.publish();
                });
            }
        });
        assert_eq!(shared.len(), 12);
        // Key-ordered serialization makes the result append-order-free.
        let mut owned = CampaignCache::new();
        for core in 0..4u8 {
            for mv in [880, 890, 900] {
                let mut key = step_key(mv);
                key.core = core;
                owned.insert_step(key, entry(&[EffectSet::new()]));
            }
        }
        assert_eq!(shared.to_jsonl(), owned.to_jsonl());
    }

    #[test]
    fn shared_cache_survives_a_panicking_lock_holder() {
        let shared = SharedCampaignCache::from(sample());
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _log = shared.log.lock();
                let _snapshot = shared.snapshot.lock();
                panic!("a campaign dies mid-publish");
            });
            assert!(holder.join().is_err());
        });
        assert!(shared.log.is_poisoned() && shared.snapshot.is_poisoned());

        // Later jobs still append, publish and read.
        let mut key = step_key(870);
        key.core = 1;
        shared.append_step(key.clone(), entry(&[EffectSet::new()]));
        shared.publish();
        assert!(shared.snapshot().step(&key).is_some());
        assert_eq!(shared.len(), 4);
    }

    /// Chip names whose string order differs from their numeric order.
    const CHIPS: [&str; 9] = [
        "TTT#2", "TTT#10", "TTT#1", "TSS#1", "TSS#10", "TFF#100", "TFF#9", "TTT#9", "TSS#2",
    ];

    #[test]
    fn publish_shares_every_shard_it_does_not_touch() {
        let mut seeded = CampaignCache::new();
        for chip in CHIPS {
            let mut key = step_key(900);
            key.chip = chip.into();
            seeded.insert_step(key, entry(&[EffectSet::new()]));
            seeded.insert_golden(
                golden_key(chip, 0),
                GoldenEntry {
                    digest: 1,
                    runtime_s: 0.5,
                },
            );
        }
        let shared = SharedCampaignCache::from(seeded.clone());
        let before = shared.snapshot();

        // One chip's fresh results: a new step and a replaced golden.
        let mut fresh = step_key(880);
        fresh.chip = "TTT#10".into();
        shared.append_step(fresh.clone(), entry(&[EffectSet::of(Effect::Sc)]));
        shared.append_golden(
            golden_key("TTT#10", 0),
            GoldenEntry {
                digest: 2,
                runtime_s: 0.25,
            },
        );
        shared.publish();
        let after = shared.snapshot();

        assert!(!Arc::ptr_eq(&before, &after), "a held snapshot is copied");
        for (chip, shard) in &before.chips {
            let shared_shard = Arc::ptr_eq(shard, &after.chips[chip]);
            assert_eq!(shared_shard, &**chip != "TTT#10", "{chip}");
        }
        // The old snapshot still answers as before.
        assert_eq!(*before, seeded);
        assert!(before.step(&fresh).is_none());
        assert_eq!(
            before.golden(&golden_key("TTT#10", 0)).map(|g| g.digest),
            Some(1)
        );
        assert_eq!(
            after.golden(&golden_key("TTT#10", 0)).map(|g| g.digest),
            Some(2)
        );
        assert!(after.step(&fresh).is_some());
        assert_eq!(after.len(), before.len() + 1);
    }

    #[test]
    fn shuffled_inserts_serialize_in_canonical_key_order() {
        enum Record {
            Step(StepKey, StepEntry),
            Golden(GoldenKey, GoldenEntry),
        }
        let runs = [
            EffectSet::new(),
            EffectSet::of(Effect::Sc),
            EffectSet::of(Effect::Ce),
        ];
        for seed in 0..16u64 {
            let mut rng = margins_rng::Rng::seed_from_u64(seed);
            let mut records = Vec::new();
            for chip in CHIPS {
                for core in [0u8, 4] {
                    let golden = GoldenEntry {
                        digest: rng.next_u64(),
                        runtime_s: 0.5,
                    };
                    records.push(Record::Golden(golden_key(chip, core), golden));
                    for mv in [900, 895, 890] {
                        let mut key = step_key(mv);
                        key.chip = chip.into();
                        key.core = core;
                        let effects = runs[rng.below(3) as usize];
                        records.push(Record::Step(key, entry(&[effects])));
                    }
                }
            }
            rng.shuffle(&mut records);

            // The same shuffled order through the owned cache and the
            // shared one, publishing at random points.
            let mut cache = CampaignCache::new();
            let shared = SharedCampaignCache::new();
            for record in &records {
                match record {
                    Record::Step(k, e) => {
                        cache.insert_step(k.clone(), e.clone());
                        shared.append_step(k.clone(), e.clone());
                    }
                    Record::Golden(k, e) => {
                        cache.insert_golden(k.clone(), e.clone());
                        shared.append_golden(k.clone(), e.clone());
                    }
                }
                if rng.below(8) == 0 {
                    shared.publish();
                }
            }

            // Expected: each golden's line in ascending key order, then
            // each step's line in ascending key order.
            let mut goldens: Vec<(&GoldenKey, String)> = Vec::new();
            let mut steps: Vec<(&StepKey, String)> = Vec::new();
            for record in &records {
                let mut one = CampaignCache::new();
                match record {
                    Record::Step(k, e) => {
                        one.insert_step(k.clone(), e.clone());
                        steps.push((k, one.to_jsonl()));
                    }
                    Record::Golden(k, e) => {
                        one.insert_golden(k.clone(), e.clone());
                        goldens.push((k, one.to_jsonl()));
                    }
                }
            }
            goldens.sort();
            steps.sort();
            let expected: String = goldens
                .iter()
                .map(|(_, line)| line.as_str())
                .chain(steps.iter().map(|(_, line)| line.as_str()))
                .collect();

            let text = cache.to_jsonl();
            assert_eq!(text, expected, "seed {seed}");
            assert_eq!(shared.to_jsonl(), expected, "seed {seed}");
            assert_eq!(cache.len(), records.len(), "seed {seed}");
            let reloaded = CampaignCache::from_jsonl(&text).expect("own output parses");
            assert_eq!(reloaded, cache, "seed {seed}");
        }
    }

    #[test]
    fn step_entry_verdict_helpers() {
        let normal = entry(&[EffectSet::new()]);
        assert!(!normal.any_abnormal() && !normal.any_system_crash());
        let mixed = entry(&[EffectSet::new(), EffectSet::of(Effect::Sc)]);
        assert!(mixed.any_abnormal() && mixed.any_system_crash());
        assert!(!mixed.all_system_crash());
        let all = entry(&[EffectSet::of(Effect::Sc), EffectSet::of(Effect::Sc)]);
        assert!(all.all_system_crash());
        assert!(!StepEntry::default().all_system_crash());
    }
}
