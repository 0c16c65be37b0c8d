// Package estimator implements SVC's query result estimation (paper
// Section 5 and Appendix 12.1): answering aggregate queries over a stale
// materialized view from the pair of corresponding samples produced by
// package clean.
//
// Two estimators are provided, matching the paper:
//
//   - SVC+AQP: a direct estimate s·q(Ŝ′) from the clean sample, with CLT
//     confidence intervals for sum/count/avg (Section 5.2.1), bootstrap
//     intervals for median/percentile (Section 5.2.5), and Cantelli tail
//     bounds for min/max (Appendix 12.1.1).
//   - SVC+CORR: a correction estimate q(S) + (s·q(Ŝ′) − s·q(Ŝ)), which
//     exploits the correlation between the corresponding samples. Its CLT
//     interval comes from the correspondence-subtract operator −̇
//     (Definition 4): a full outer join of the per-row transformed values
//     on the view key with NULLs as zero.
//
// Which estimator is more accurate depends on staleness: CORR wins while
// σ²_S ≤ 2·cov(S, S′) (Section 5.2.2); the Advise helper evaluates that
// break-even empirically from the samples. Outlier-index merging (Section
// 6.3) and predicate-level cleaning of SELECT queries (Appendix 12.1.2)
// build on the same two.
//
// Group-by queries (GroupExact, GroupAQP, GroupCorr, GroupPartialAQP,
// GroupPartialCorr) follow the paper's footnote 1: group v's answer is the
// scalar answer with "group = v" ANDed into the predicate. They compute
// it in one pass over each input (grouped.go) rather than one per group:
// each row gets a dense group id, the predicate is evaluated once, and
// per-group terms accumulate in row order, so every group's answer is
// bit-identical to the scalar estimator run on that group's rows. The
// scalar estimators are the same pass with no group columns.
//
// Concurrency contract: every estimator is a pure function of its inputs
// — it treats the passed relations and sample pairs as immutable and
// allocates its own scratch state — so any number of goroutines may
// estimate concurrently over shared (pinned) relations. Nothing in this
// package mutates a relation.
package estimator
