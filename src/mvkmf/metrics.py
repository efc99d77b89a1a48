"""External clustering quality measures.

All four scores are computed from the contingency table of two labelings:
each public scorer forms the table and passes it to its private form, and
``evaluate`` forms it once for all four. Label values are opaque: any
hashable integers work, and neither labeling needs to use the same alphabet
as the other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import LengthMismatchError


@dataclass(frozen=True)
class MetricReport:
    acc: float
    nmi: float
    purity: float
    ari: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def contingency_table(labels_true, labels_pred) -> np.ndarray:
    """Counts[i, j] = number of samples with true class i and predicted
    cluster j, rows/columns ordered by sorted unique label value."""
    t = np.asarray(labels_true).ravel()
    p = np.asarray(labels_pred).ravel()
    if t.shape[0] != p.shape[0]:
        raise LengthMismatchError(
            f"labelings disagree in length: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] == 0:
        raise LengthMismatchError("labelings are empty")
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def accuracy(labels_true, labels_pred) -> float:
    """Best-case agreement fraction over one-to-one cluster-to-class maps,
    found by solving the assignment problem on the contingency table, which
    may be rectangular."""
    return _accuracy(contingency_table(labels_true, labels_pred))


def _accuracy(table: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / float(table.sum())


def _entropy(counts: np.ndarray, n: int) -> float:
    pk = counts[counts > 0] / n
    return float(-np.sum(pk * np.log(pk)))


def _partitions_identical(table: np.ndarray) -> bool:
    # identical up to relabeling: one nonzero cell per row and per column
    if table.shape[0] != table.shape[1]:
        return False
    nz = table > 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def nmi(labels_true, labels_pred) -> float:
    """Mutual information normalized by the geometric mean of the two label
    entropies, natural log. Degenerate cases: both entropies zero scores 1.0
    when the partitions agree and 0.0 otherwise; exactly one zero scores 0.0.
    """
    return _nmi(contingency_table(labels_true, labels_pred))


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_true = _entropy(a, n)
    h_pred = _entropy(b, n)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0 if _partitions_identical(table) else 0.0
    if h_true == 0.0 or h_pred == 0.0:
        return 0.0
    i, j = np.nonzero(table)
    pij = table[i, j] / n
    mi = float(np.sum(pij * np.log(table[i, j] * n / (a[i] * b[j]))))
    return max(mi, 0.0) / np.sqrt(h_true * h_pred)


def purity(labels_true, labels_pred) -> float:
    """Fraction of samples whose cluster's majority true class matches their
    own true class."""
    return _purity(contingency_table(labels_true, labels_pred))


def _purity(table: np.ndarray) -> float:
    return float(table.max(axis=0).sum()) / float(table.sum())


def ari(labels_true, labels_pred) -> float:
    """Adjusted Rand index via pair counting on the contingency table.

    When the expected and maximum index coincide (zero denominator) returns
    1.0 for identical partitions and 0.0 otherwise.
    """
    return _ari(contingency_table(labels_true, labels_pred))


def _ari(table: np.ndarray) -> float:
    n = int(table.sum())

    def comb2(x):
        x = x.astype(np.int64)
        return x * (x - 1) // 2

    sum_cells = int(comb2(table).sum())
    sum_a = int(comb2(table.sum(axis=1)).sum())
    sum_b = int(comb2(table.sum(axis=0)).sum())
    total = n * (n - 1) // 2
    # one sample has no pairs: expected and maximum index are both 0
    expected = sum_a * sum_b / total if total else 0.0
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0 if _partitions_identical(table) else 0.0
    return float((sum_cells - expected) / (maximum - expected))


def evaluate(labels_true, labels_pred) -> MetricReport:
    """All four scores, from one contingency table."""
    table = contingency_table(labels_true, labels_pred)
    return MetricReport(acc=_accuracy(table), nmi=_nmi(table),
                        purity=_purity(table), ari=_ari(table))
