//! Output checks against an independent oracle.

use lpo::prelude::{CaseOutcome, CaseReport};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_tv::prelude::{verify_refinement_reference, TvConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A `(source digest, candidate digest)` pair.
pub type Pair = (u64, u64);

/// Re-verifies every distinct Found `(source, candidate)` pair with the
/// retained reference checker, against the case's original source (before
/// the pipeline canonicalized it). `cases` yields `(original source, report)`.
/// Returns the number of distinct pairs checked and the pairs that failed.
pub fn verify_found<'a>(
    cases: impl IntoIterator<Item = (&'a Function, &'a CaseReport)>,
) -> (usize, BTreeSet<Pair>) {
    let mut distinct: BTreeMap<Pair, (&Function, &Function)> = BTreeMap::new();
    for (source, report) in cases {
        if let CaseOutcome::Found { candidate } = &report.outcome {
            distinct
                .entry((hash_function(source).0, hash_function(candidate).0))
                .or_insert((source, candidate));
        }
    }
    let config = TvConfig::default();
    let failed = distinct
        .iter()
        .filter(|(_, (source, candidate))| {
            !verify_refinement_reference(source, candidate, &config).is_correct()
        })
        .map(|(pair, _)| *pair)
        .collect();
    (distinct.len(), failed)
}

/// Whether a report's Found pair is among `failed`.
pub fn is_bad_find(source: &Function, report: &CaseReport, failed: &BTreeSet<Pair>) -> bool {
    match &report.outcome {
        CaseOutcome::Found { candidate } => {
            failed.contains(&(hash_function(source).0, hash_function(candidate).0))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;
    use std::time::Duration;

    fn found(candidate: &str) -> CaseReport {
        CaseReport {
            outcome: CaseOutcome::Found {
                candidate: parse_function(candidate).unwrap(),
            },
            attempts: 1,
            wall_time: Duration::ZERO,
            modeled_time: Duration::ZERO,
            cost_usd: 0.0,
            tier: None,
            store_hits: 0,
        }
    }

    #[test]
    fn wrong_finds_are_caught_and_right_ones_pass() {
        let source =
            parse_function("define i8 @f(i8 %x) {\n %a = add i8 %x, %x\n ret i8 %a\n}").unwrap();
        let right = found("define i8 @f(i8 %x) {\n %a = shl i8 %x, 1\n ret i8 %a\n}");
        let wrong = found("define i8 @f(i8 %x) {\n %a = shl i8 %x, 2\n ret i8 %a\n}");
        let reports = [right.clone(), wrong.clone(), right.clone()];
        let (checked, failed) = verify_found(reports.iter().map(|r| (&source, r)));
        assert_eq!(checked, 2);
        assert_eq!(failed.len(), 1);
        assert!(is_bad_find(&source, &wrong, &failed));
        assert!(!is_bad_find(&source, &right, &failed));
    }
}
