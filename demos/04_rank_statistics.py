"""
Rank-based significance testing over a results table.

Builds a synthetic accuracy table for four algorithms on eight datasets
(one algorithm consistently better, one consistently worse, two in the
middle), then runs the Friedman test with the Iman-Davenport correction
and prints the Nemenyi critical-difference analysis.
"""

import numpy as np

from mvkmf import ResultsTable, friedman, pairwise_significance

rng = np.random.default_rng(42)
n_datasets, algorithms = 8, ("strong", "mid-a", "mid-b", "weak")

base = rng.uniform(0.55, 0.85, size=n_datasets)
scores = np.column_stack([
    np.clip(base + 0.08 + 0.02 * rng.standard_normal(n_datasets), 0, 1),
    np.clip(base + 0.01 * rng.standard_normal(n_datasets), 0, 1),
    np.clip(base + 0.01 * rng.standard_normal(n_datasets), 0, 1),
    np.clip(base - 0.10 + 0.02 * rng.standard_normal(n_datasets), 0, 1),
])
table = ResultsTable(
    scores=scores,
    dataset_names=tuple(f"set{i}" for i in range(n_datasets)),
    algorithm_names=algorithms,
)

summary = friedman(table)
print("mean ranks (1 = best):")
for name, rank in zip(summary.algorithm_names, summary.mean_ranks):
    print(f"  {name:>7}: {rank:.3f}")
print(f"chi2 = {summary.chi2:.4f}")
print(f"F    = {summary.f_stat:.4f}  (df1={summary.df1}, df2={summary.df2})")
print(f"p    = {summary.p_value:.3e}")

# alpha = 0.05 for four algorithms: q = 2.569 (Demsar 2006, Table 5)
print(f"critical difference = {summary.critical_difference:.4f}")

sig = pairwise_significance(summary)
print("pairs with a significant rank gap:")
for i in range(len(algorithms)):
    for j in range(i + 1, len(algorithms)):
        if sig[i, j]:
            gap = abs(summary.mean_ranks[i] - summary.mean_ranks[j])
            print(f"  {algorithms[i]} vs {algorithms[j]} (gap {gap:.3f})")
