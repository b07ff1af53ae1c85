//! Incremental re-analysis: decide which sections a prior campaign
//! ledger still covers.
//!
//! Each ledger record carries the content signature its campaign was run
//! under ([`ftb_trace::SectionMap::signature`]: the section's extent,
//! its static-instruction stream, and the kernel's
//! [`code_version`](ftb_kernels::Kernel::code_version) stamp for the
//! range). A record is **reusable** iff a current section has the same
//! index, extent and signature; everything else — edited code, a changed
//! segmentation, a section the ledger never finished — is **dirty** and
//! must re-run. Matching is purely structural, so stale caches can only
//! cost re-runs, never wrong reuse (assuming `code_version` honours its
//! contract).

use ftb_inject::{LedgerError, SectionRecord};

/// The reuse/re-run split for one incremental pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalPlan {
    /// Prior records adopted verbatim, keyed by current section index.
    pub reused: Vec<(usize, SectionRecord)>,
    /// Current section indices that must (re-)run, ascending.
    pub dirty: Vec<usize>,
}

impl IncrementalPlan {
    /// A plan that re-runs everything (no usable prior ledger).
    pub fn all_dirty(n_sections: usize) -> Self {
        IncrementalPlan {
            reused: Vec::new(),
            dirty: (0..n_sections).collect(),
        }
    }
}

/// Split the current sections into reusable and dirty against a prior
/// ledger's records. `current` gives, per current section index, the
/// `(lo, hi, signature)` triple it would campaign under today.
///
/// # Errors
/// [`LedgerError::Format`] if a matching record's dense per-site vectors
/// (`local_max`, `min_sdc`, `site_amp`) are not `hi − lo` long: the
/// composition indexes them per site, so such a record is damage, not a
/// stale cache.
pub fn plan_incremental(
    prior: &[SectionRecord],
    current: &[(usize, usize, u64)],
) -> Result<IncrementalPlan, LedgerError> {
    let mut reused = Vec::new();
    let mut dirty = Vec::new();
    for (t, &(lo, hi, sig)) in current.iter().enumerate() {
        let hit = prior.iter().position(|r| {
            r.summary.index == t && r.summary.lo == lo && r.summary.hi == hi && r.signature == sig
        });
        let Some(i) = hit else {
            dirty.push(t);
            continue;
        };
        let s = &prior[i].summary;
        for (name, len) in [
            ("local_max", s.local_max.len()),
            ("min_sdc", s.min_sdc.len()),
            ("site_amp", s.site_amp.len()),
        ] {
            if len != hi - lo {
                return Err(LedgerError::Format {
                    // line 1 is the header
                    line: i + 2,
                    msg: format!(
                        "section {t} record has {len} {name} entries for {} sites",
                        hi - lo
                    ),
                });
            }
        }
        reused.push((t, prior[i].clone()));
    }
    Ok(IncrementalPlan { reused, dirty })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_inject::{SectionRecord, SectionSummary};

    fn record(index: usize, lo: usize, hi: usize, signature: u64) -> SectionRecord {
        SectionRecord {
            signature,
            summary: SectionSummary {
                index,
                lo,
                hi,
                n_experiments: 1,
                local_max: vec![0.0; hi - lo],
                min_sdc: vec![f64::INFINITY; hi - lo],
                site_amp: vec![0.0; hi - lo],
                amp_in: 0.0,
                cap_in: 0.0,
                min_sdc_in: f64::INFINITY,
                slot_amp: vec![],
                static_amp: vec![],
            },
        }
    }

    #[test]
    fn matching_signatures_reuse_everything() {
        let prior = vec![record(0, 0, 4, 11), record(1, 4, 8, 22)];
        let plan = plan_incremental(&prior, &[(0, 4, 11), (4, 8, 22)]).unwrap();
        assert!(plan.dirty.is_empty());
        assert_eq!(plan.reused.len(), 2);
    }

    #[test]
    fn signature_mismatch_dirties_exactly_that_section() {
        let prior = vec![record(0, 0, 4, 11), record(1, 4, 8, 22)];
        let plan = plan_incremental(&prior, &[(0, 4, 11), (4, 8, 99)]).unwrap();
        assert_eq!(plan.dirty, vec![1]);
        assert_eq!(plan.reused.len(), 1);
        assert_eq!(plan.reused[0].0, 0);
    }

    #[test]
    fn extent_mismatch_is_stale_even_with_equal_signature() {
        let prior = vec![record(0, 0, 4, 11)];
        let plan = plan_incremental(&prior, &[(0, 5, 11)]).unwrap();
        assert_eq!(plan.dirty, vec![0]);
    }

    #[test]
    fn missing_records_are_dirty() {
        // ledger died after section 0: section 1 never persisted
        let prior = vec![record(0, 0, 4, 11)];
        let plan = plan_incremental(&prior, &[(0, 4, 11), (4, 8, 22)]).unwrap();
        assert_eq!(plan.dirty, vec![1]);
    }

    #[test]
    fn truncated_dense_vector_in_a_matching_record_is_refused() {
        let mut short = record(1, 4, 8, 22);
        short.summary.site_amp.pop();
        let prior = vec![record(0, 0, 4, 11), short];
        let e = plan_incremental(&prior, &[(0, 4, 11), (4, 8, 22)]).unwrap_err();
        let LedgerError::Format { line, msg } = e else {
            panic!("expected a format error, got {e:?}")
        };
        assert_eq!(line, 3);
        assert!(msg.contains("3 site_amp entries for 4 sites"), "{msg}");
        // a damaged record nothing matches is simply not reused
        assert_eq!(
            plan_incremental(&prior, &[(0, 4, 11)])
                .unwrap()
                .reused
                .len(),
            1
        );
    }

    #[test]
    fn all_dirty_covers_every_section() {
        let plan = IncrementalPlan::all_dirty(3);
        assert_eq!(plan.dirty, vec![0, 1, 2]);
        assert!(plan.reused.is_empty());
    }
}
