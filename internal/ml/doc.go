// Package ml implements the machine-learning stack the paper's activity
// inference uses (§6.1, §6.3): CART decision trees, a bagged random forest
// with per-split feature subsampling, and stratified repeated
// cross-validation. Everything is deterministic given a seed and built on
// the standard library only.
//
// Tree induction works on integers. TrainTree maps labels once to int32
// class indices in sorted label order and keeps class counts in slices
// reused across nodes. The split search sorts typed (value, class) pairs
// per candidate feature and sweeps them once, updating each side's sum of
// squared class counts by +2c+1 and −(2c−1) as a row crosses over, so Gini
// impurity comes from exact integers and split choice cannot depend on
// accumulation order. Leaves take the most frequent class, ties going to
// the smallest label. Rows are partitioned in place between children.
//
// Training and cross-validation parallelize across trees and folds
// (ForestConfig.Workers, CVConfig.Workers) without changing a single
// prediction: all bootstrap index sets and per-tree seeds are pre-drawn
// sequentially from the seeded RNG — the exact draw sequence of a
// serial run — and workers grow trees placed by index. Forest.Predict
// and PredictTop are allocation-free and safe for concurrent use.
package ml
