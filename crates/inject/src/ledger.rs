//! Crash-safe streaming experiment ledger.
//!
//! A campaign ledger is an append-only JSONL file: the first line is a
//! [`LedgerHeader`] binding the file to a specific kernel configuration,
//! classifier, fault space, and campaign plan; every following line is
//! one completed [`Experiment`]. Records are appended and flushed one
//! chunk at a time, so a campaign killed at any point leaves a ledger
//! whose intact prefix is an exact record of the work already done.
//!
//! Recovery ([`read_ledger`]) tolerates exactly the damage a crash can
//! cause: a truncated or garbled *final* line (a torn write). Garbage
//! followed by further valid records means the file was corrupted by
//! something other than a crash mid-append and is rejected outright.

use crate::experiment::Experiment;
use crate::outcome::Classifier;
use ftb_kernels::KernelConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format tag written into every ledger header.
///
/// `v2` records hangs as stopped at the classifier's hang budget: a
/// `Crash(Hang)` record has `output_err = +∞`, and a run whose first
/// non-finite value came after the budget is a `Hang`, not a
/// `NonFinite`. A `v1` ledger holds the old records, so resuming it is
/// refused rather than mixing the two.
pub const LEDGER_FORMAT: &str = "ftb-ledger-v2";

/// Everything a ledger (or adaptive checkpoint) must agree on before a
/// resume is allowed to skip already-completed work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignBinding {
    /// Kernel configuration the campaign runs against.
    pub kernel: KernelConfig,
    /// Outcome classifier in use.
    pub classifier: Classifier,
    /// Number of injection sites in the golden run.
    pub n_sites: usize,
    /// Bits per site.
    pub bits: u8,
    /// Human-readable plan description, e.g. `"exhaustive"` or
    /// `"monte-carlo n=1000 seed=42"`. Part of the binding: resuming an
    /// exhaustive ledger under a Monte-Carlo plan must fail.
    pub plan: String,
    /// Bit-prune identity, present iff the campaign skips statically
    /// certified bits (`--bit-prune`). Part of the binding: a pruned
    /// ledger must not resume under different masks (the plans would
    /// silently disagree pair-for-pair). `None` on unpruned campaigns
    /// and defaulted on read, so pre-existing ledgers keep matching.
    #[serde(default)]
    pub bit_prune: Option<BitPruneBinding>,
    /// Snapshot-store identity, present iff the campaign resumes
    /// experiments from golden-run snapshots (the execution policy,
    /// [`crate::Injector::with_execution_policy`], does so for every
    /// snapshot-capable kernel). Part of the binding: resumed execution
    /// is only byte-identical when every session serves experiments
    /// from the *same* capture, so a snapshot-run ledger must not resume
    /// under a different store (or none at all). `None` on from-scratch
    /// campaigns and defaulted on read.
    #[serde(default)]
    pub snapshot: Option<SnapshotBinding>,
    /// Batched-execution identity, present iff the campaign runs
    /// lane-batched sweeps (the execution policy does so for every
    /// batch-capable kernel). Part of the binding: the
    /// lane grouping determines nothing about the *records* (they are
    /// bit-identical to scalar), but a resumed session must replay the
    /// same work schedule, and mixing lane configurations across
    /// sessions would silently change the perf characteristics a ledger
    /// documents. `None` on scalar campaigns and defaulted on read.
    #[serde(default)]
    pub batch: Option<BatchBinding>,
}

/// Identity of a campaign's lane-batched execution configuration: the
/// lane width plus a digest binding it to the snapshot store the lanes
/// are grouped by.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchBinding {
    /// Configured lane width (≥ 2 — scalar campaigns carry no binding).
    pub lanes: u64,
    /// FNV-1a over a domain tag, the lane width, and the snapshot-store
    /// digest ([`crate::Injector::batch_binding`]).
    pub digest: u64,
}

/// Identity of the snapshot store a campaign serves experiments from:
/// the retained boundary count plus a content digest that also binds the
/// golden run the store was captured against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotBinding {
    /// Number of retained boundary snapshots.
    pub snapshots: u64,
    /// `SnapshotStore::digest`: FNV-1a over pooled array bits, boundary
    /// coordinates, and the golden output bits.
    pub digest: u64,
}

/// Identity of the certified-bit masks a pruned campaign was planned
/// under: enough to detect any mask drift without embedding the full
/// per-site mask vector in every ledger header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitPruneBinding {
    /// Total number of certified (skipped) `(site, bit)` cells.
    pub certified: u64,
    /// Order-sensitive digest of the per-site certified masks
    /// (`BitMasks::digest` in `ftb-core`).
    pub digest: u64,
}

impl CampaignBinding {
    /// The first part of the binding on which `self` and `other`
    /// differ — one of `kernel`, `classifier`, `sites/bits`, `plan`,
    /// `bit-prune`, `snapshot` or `batch` — or `None` when they agree.
    pub fn mismatch(&self, other: &CampaignBinding) -> Option<&'static str> {
        [
            ("kernel", self.kernel != other.kernel),
            ("classifier", self.classifier != other.classifier),
            (
                "sites/bits",
                (self.n_sites, self.bits) != (other.n_sites, other.bits),
            ),
            ("plan", self.plan != other.plan),
            ("bit-prune", self.bit_prune != other.bit_prune),
            ("snapshot", self.snapshot != other.snapshot),
            ("batch", self.batch != other.batch),
        ]
        .into_iter()
        .find_map(|(field, differs)| differs.then_some(field))
    }
}

/// First line of every ledger file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerHeader {
    /// Format tag ([`LEDGER_FORMAT`]).
    pub format: String,
    /// Campaign identity this ledger belongs to.
    pub binding: CampaignBinding,
}

impl LedgerHeader {
    /// Header for a binding, stamped with the current format tag.
    pub fn new(binding: CampaignBinding) -> Self {
        Self::with_format(LEDGER_FORMAT, binding)
    }

    /// Header with an explicit format tag (sectioned ledgers carry their
    /// own tag — see [`crate::sections`]).
    pub fn with_format(format: &str, binding: CampaignBinding) -> Self {
        LedgerHeader {
            format: format.to_string(),
            binding,
        }
    }
}

/// Ledger I/O failure.
#[derive(Debug)]
pub enum LedgerError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural damage beyond what a crash can explain (bad header,
    /// garbage followed by valid records, wrong format tag).
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The ledger belongs to a different campaign configuration.
    BindingMismatch {
        /// What the existing ledger was recorded under.
        found: Box<CampaignBinding>,
        /// The first binding field that differs
        /// ([`CampaignBinding::mismatch`]).
        field: &'static str,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::Format { line, msg } => {
                write!(f, "ledger format error at line {line}: {msg}")
            }
            LedgerError::BindingMismatch { found, field } => write!(
                f,
                "ledger belongs to a different campaign: its {field} binding differs \
                 (recorded plan: {:?})",
                found.plan
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

/// What [`read_ledger`] recovered from disk.
#[derive(Debug)]
pub struct LedgerRecovery {
    /// The parsed header line.
    pub header: LedgerHeader,
    /// All intact experiment records, in ledger (= execution) order.
    pub experiments: Vec<Experiment>,
    /// Byte length of the intact prefix; resuming truncates the file to
    /// this length before appending.
    pub valid_len: u64,
    /// Whether a truncated/garbled trailing line was dropped.
    pub dropped_trailing: bool,
}

/// Read and validate a ledger, tolerating a torn final line.
pub fn read_ledger(path: &Path) -> Result<LedgerRecovery, LedgerError> {
    let (header, experiments, valid_len, dropped_trailing) = read_records(path, LEDGER_FORMAT)?;
    Ok(LedgerRecovery {
        header,
        experiments,
        valid_len,
        dropped_trailing,
    })
}

/// Generic JSONL-ledger recovery: parse the header (checking its format
/// tag), then every record line of type `T`, tolerating exactly a torn
/// *final* line. Shared by the experiment ledger ([`read_ledger`]) and
/// the sectioned campaign ledger ([`crate::sections::read_section_ledger`]),
/// so the two formats cannot drift in crash-recovery behaviour.
pub(crate) fn read_records<T: serde::de::DeserializeOwned>(
    path: &Path,
    expected_format: &str,
) -> Result<(LedgerHeader, Vec<T>, u64, bool), LedgerError> {
    let data = std::fs::read(path)?;
    let mut lines: Vec<(usize, &[u8])> = Vec::new(); // (start offset, bytes)
    let mut start = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, &data[start..i]));
            start = i + 1;
        }
    }
    if start < data.len() {
        lines.push((start, &data[start..]));
    }

    let (_, header_bytes) = *lines.first().ok_or(LedgerError::Format {
        line: 1,
        msg: "empty ledger file".into(),
    })?;
    let header: LedgerHeader =
        serde_json::from_slice(header_bytes).map_err(|e| LedgerError::Format {
            line: 1,
            msg: format!("unreadable header: {e}"),
        })?;
    if header.format != expected_format {
        return Err(LedgerError::Format {
            line: 1,
            msg: format!(
                "unsupported format tag {:?} (expected {expected_format:?})",
                header.format
            ),
        });
    }

    let mut records = Vec::new();
    let mut valid_len = lines
        .get(1)
        .map_or(data.len() as u64, |&(off, _)| off as u64);
    let mut dropped_trailing = false;
    for (idx, &(off, bytes)) in lines.iter().enumerate().skip(1) {
        if bytes.is_empty() {
            // A blank line can only be the torn remnant of a write that
            // got exactly the newline out; anything after it is damage.
            if idx + 1 != lines.len() {
                return Err(LedgerError::Format {
                    line: idx + 1,
                    msg: "blank line in the middle of the record stream".into(),
                });
            }
            valid_len = off as u64;
            break;
        }
        match serde_json::from_slice::<T>(bytes) {
            Ok(e) => {
                records.push(e);
                let end = off + bytes.len();
                // include the newline if one followed
                valid_len = if data.get(end) == Some(&b'\n') {
                    (end + 1) as u64
                } else {
                    end as u64
                };
            }
            Err(parse_err) => {
                if idx + 1 == lines.len() {
                    // torn final write — drop it, keep the intact prefix
                    valid_len = off as u64;
                    dropped_trailing = true;
                } else {
                    return Err(LedgerError::Format {
                        line: idx + 1,
                        msg: format!(
                            "unreadable record followed by later records \
                             (not a torn tail): {parse_err}"
                        ),
                    });
                }
            }
        }
    }

    Ok((header, records, valid_len, dropped_trailing))
}

/// Append-only ledger writer. Each [`append_chunk`](Self::append_chunk)
/// issues a single write followed by a flush, so a crash can tear at
/// most the final line.
#[derive(Debug)]
pub struct LedgerWriter {
    file: File,
    path: PathBuf,
}

impl LedgerWriter {
    /// Create (or truncate) a ledger at `path` and write its header.
    pub fn create(path: &Path, header: &LedgerHeader) -> Result<Self, LedgerError> {
        let mut file = File::create(path)?;
        let mut line = serde_json::to_string(header).map_err(|e| LedgerError::Format {
            line: 1,
            msg: format!("unserializable header: {e}"),
        })?;
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(LedgerWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Reopen an existing ledger for appending, first truncating it to
    /// the intact prefix reported by [`read_ledger`].
    pub fn resume(path: &Path, valid_len: u64) -> Result<Self, LedgerError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LedgerWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append one chunk of completed experiments: one JSON line per
    /// record, one write, one flush.
    pub fn append_chunk(&mut self, experiments: &[Experiment]) -> Result<(), LedgerError> {
        self.append_records(experiments)
    }

    /// Append arbitrary serialisable records (the sectioned ledger's
    /// record type differs from [`Experiment`]): one JSON line per
    /// record, one write, one flush.
    pub fn append_records<T: Serialize>(&mut self, records: &[T]) -> Result<(), LedgerError> {
        let mut buf = String::new();
        for e in records {
            buf.push_str(
                &serde_json::to_string(e).map_err(|err| LedgerError::Format {
                    line: 0,
                    msg: format!("unserializable record: {err}"),
                })?,
            );
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use ftb_kernels::{KernelConfig, MatvecConfig};

    fn binding(plan: &str) -> CampaignBinding {
        CampaignBinding {
            kernel: KernelConfig::Matvec(MatvecConfig {
                n: 4,
                ..MatvecConfig::small()
            }),
            classifier: Classifier::new(1e-6),
            n_sites: 20,
            bits: 64,
            plan: plan.to_string(),
            bit_prune: None,
            snapshot: None,
            batch: None,
        }
    }

    fn exp(site: usize, bit: u8) -> Experiment {
        Experiment {
            site,
            bit,
            injected_err: 1.5,
            output_err: 0.25,
            outcome: Outcome::Sdc,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ftb-ledger-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_header_and_records() {
        let path = tmp("roundtrip.jsonl");
        let header = LedgerHeader::new(binding("exhaustive"));
        let mut w = LedgerWriter::create(&path, &header).unwrap();
        w.append_chunk(&[exp(0, 1), exp(0, 2)]).unwrap();
        w.append_chunk(&[exp(1, 0)]).unwrap();
        drop(w);

        let rec = read_ledger(&path).unwrap();
        assert_eq!(rec.header.binding.mismatch(&header.binding), None);
        assert_eq!(rec.experiments.len(), 3);
        assert_eq!(rec.experiments[2].key(), (1, 0));
        assert!(!rec.dropped_trailing);
        assert_eq!(rec.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn truncated_trailing_line_is_dropped() {
        let path = tmp("torn.jsonl");
        let header = LedgerHeader::new(binding("exhaustive"));
        let mut w = LedgerWriter::create(&path, &header).unwrap();
        w.append_chunk(&[exp(0, 1), exp(0, 2)]).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();

        // simulate a torn write: half a JSON record, no newline
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"site\":7,\"bit\":").unwrap();
        drop(f);

        let rec = read_ledger(&path).unwrap();
        assert!(rec.dropped_trailing);
        assert_eq!(rec.experiments.len(), 2);
        assert_eq!(rec.valid_len, intact);

        // resuming truncates the torn tail away
        let mut w = LedgerWriter::resume(&path, rec.valid_len).unwrap();
        w.append_chunk(&[exp(0, 3)]).unwrap();
        drop(w);
        let rec = read_ledger(&path).unwrap();
        assert!(!rec.dropped_trailing);
        assert_eq!(rec.experiments.len(), 3);
        assert_eq!(rec.experiments[2].key(), (0, 3));
    }

    #[test]
    fn garbled_trailing_line_is_dropped() {
        let path = tmp("garbled.jsonl");
        let header = LedgerHeader::new(binding("exhaustive"));
        let mut w = LedgerWriter::create(&path, &header).unwrap();
        w.append_chunk(&[exp(0, 1)]).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();

        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"site\": 3, \"bit\": \"not-a-bit\"}\n")
            .unwrap();
        drop(f);

        let rec = read_ledger(&path).unwrap();
        assert!(rec.dropped_trailing);
        assert_eq!(rec.experiments.len(), 1);
        assert_eq!(rec.valid_len, intact);
    }

    #[test]
    fn garbage_followed_by_valid_records_is_rejected() {
        let path = tmp("midfile.jsonl");
        let header = LedgerHeader::new(binding("exhaustive"));
        let mut w = LedgerWriter::create(&path, &header).unwrap();
        w.append_chunk(&[exp(0, 1)]).unwrap();
        drop(w);

        let good = serde_json::to_string(&exp(0, 2)).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(format!("NOT JSON\n{good}\n").as_bytes())
            .unwrap();
        drop(f);

        match read_ledger(&path) {
            Err(LedgerError::Format { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected mid-file Format error, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_headerless_files_are_format_errors() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            read_ledger(&path),
            Err(LedgerError::Format { line: 1, .. })
        ));

        std::fs::write(&path, b"{\"half\": ").unwrap();
        assert!(matches!(
            read_ledger(&path),
            Err(LedgerError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        let path = tmp("tag.jsonl");
        let mut header = LedgerHeader::new(binding("exhaustive"));
        header.format = "ftb-ledger-v0".into();
        LedgerWriter::create(&path, &header).unwrap();
        assert!(matches!(
            read_ledger(&path),
            Err(LedgerError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn v1_ledger_is_refused() {
        let path = tmp("v1.jsonl");
        let mut header = LedgerHeader::new(binding("exhaustive"));
        header.format = "ftb-ledger-v1".into();
        let mut w = LedgerWriter::create(&path, &header).unwrap();
        w.append_chunk(&[exp(0, 1)]).unwrap();
        drop(w);
        match read_ledger(&path) {
            Err(LedgerError::Format { line: 1, msg }) => {
                assert!(msg.contains("\"ftb-ledger-v1\""), "{msg}")
            }
            other => panic!("expected a format refusal, got {other:?}"),
        }
    }

    #[test]
    fn binding_match_is_sensitive_to_plan_and_config() {
        let a = binding("exhaustive");
        assert_eq!(a.mismatch(&binding("exhaustive")), None);
        assert!(a.mismatch(&binding("monte-carlo n=10 seed=1")).is_some());
        let mut c = binding("exhaustive");
        c.n_sites = 21;
        assert!(a.mismatch(&c).is_some());
    }

    #[test]
    fn mismatch_names_the_differing_field() {
        let a = binding("exhaustive");
        assert_eq!(a.mismatch(&a.clone()), None);
        assert_eq!(
            a.mismatch(&binding("monte-carlo n=10 seed=1")),
            Some("plan")
        );
        let mut c = binding("exhaustive");
        c.bits = 32;
        assert_eq!(a.mismatch(&c), Some("sites/bits"));
        // a ledger written from scratch, resumed under snapshot-resumed
        // execution of the same plan: only the snapshot binding differs
        let mut snap = binding("exhaustive");
        snap.snapshot = Some(SnapshotBinding {
            snapshots: 128,
            digest: 7,
        });
        assert_eq!(a.mismatch(&snap), Some("snapshot"));
        let e = LedgerError::BindingMismatch {
            found: Box::new(a),
            field: "snapshot",
        };
        assert_eq!(
            e.to_string(),
            "ledger belongs to a different campaign: its snapshot binding differs \
             (recorded plan: \"exhaustive\")"
        );
    }

    #[test]
    fn header_only_ledger_recovers_empty() {
        let path = tmp("header-only.jsonl");
        let header = LedgerHeader::new(binding("exhaustive"));
        LedgerWriter::create(&path, &header).unwrap();
        let rec = read_ledger(&path).unwrap();
        assert!(rec.experiments.is_empty());
        assert!(!rec.dropped_trailing);
        assert_eq!(rec.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    /// A valid ledger of `k` records, with the byte length of its header
    /// line and the end offset of each record's JSON (newline excluded).
    fn valid_ledger(k: usize) -> (Vec<u8>, usize, Vec<usize>, Vec<Experiment>) {
        let header = serde_json::to_string(&LedgerHeader::new(binding("exhaustive"))).unwrap();
        let mut bytes = format!("{header}\n").into_bytes();
        let (mut ends, mut exps) = (Vec::new(), Vec::new());
        for i in 0..k {
            let e = Experiment {
                output_err: i as f64 * 0.125,
                ..exp(i, (i * 7 % 64) as u8)
            };
            bytes.extend_from_slice(serde_json::to_string(&e).unwrap().as_bytes());
            ends.push(bytes.len());
            bytes.push(b'\n');
            exps.push(e);
        }
        (bytes, header.len(), ends, exps)
    }

    /// Read `bytes` as a ledger. Whatever the damage, the reader must
    /// either refuse or recover a prefix that is itself an intact ledger
    /// (re-reading exactly that prefix yields the same records, with no
    /// torn tail to drop).
    fn recover(name: &str, bytes: &[u8]) -> Option<Vec<Experiment>> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let rec = read_ledger(&path).ok()?;
        assert!(rec.valid_len as usize <= bytes.len());
        std::fs::write(&path, &bytes[..rec.valid_len as usize]).unwrap();
        let again = read_ledger(&path).expect("the recovered prefix reads back");
        assert!(!again.dropped_trailing);
        assert_eq!(again.experiments, rec.experiments);
        assert_eq!(again.valid_len, rec.valid_len);
        Some(rec.experiments)
    }

    mod damaged {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = recover("prop-arbitrary.jsonl", &bytes);
            }

            #[test]
            fn arbitrary_records_after_a_valid_header_never_panic(
                tail in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let (mut bytes, _, _, _) = valid_ledger(0);
                bytes.extend_from_slice(&tail);
                let _ = recover("prop-tail.jsonl", &bytes);
            }

            #[test]
            fn truncation_recovers_the_complete_records(k in 0usize..6, frac in 0.0f64..1.0) {
                let (bytes, header_len, ends, exps) = valid_ledger(k);
                let cut = (frac * (bytes.len() + 1) as f64) as usize;
                let got = recover("prop-truncated.jsonl", &bytes[..cut]);
                if cut < header_len {
                    prop_assert!(got.is_none(), "a torn header is refused");
                } else {
                    let complete = ends.iter().filter(|&&e| e <= cut).count();
                    prop_assert_eq!(got.as_deref(), Some(&exps[..complete]));
                }
            }

            #[test]
            fn bit_flips_refuse_or_keep_the_undamaged_prefix(
                k in 1usize..6,
                at in 0.0f64..1.0,
                bit in 0u8..8,
            ) {
                let (mut bytes, header_len, ends, exps) = valid_ledger(k);
                let pos = (at * bytes.len() as f64) as usize;
                bytes[pos] ^= 1 << bit;
                if let Some(got) = recover("prop-flipped.jsonl", &bytes) {
                    // a header that still parses is caught later, by the
                    // binding check; its records are untouched
                    let before = if pos <= header_len {
                        k
                    } else {
                        ends.iter().filter(|&&e| e < pos).count()
                    };
                    // records wholly before the flipped byte survive
                    prop_assert!(got.len() >= before && got.len() <= k);
                    prop_assert_eq!(&got[..before], &exps[..before]);
                }
            }
        }
    }
}
