"""Rank-based comparison of algorithms across datasets.

Implements the Friedman test with the Iman-Davenport F correction (the p is
exact instead when every row ranks the algorithms the same way) and the
Nemenyi critical difference for pairwise post-hoc comparison, by default at
alpha = 0.05 for the table's number of algorithms. Scores arrive
as a datasets x algorithms table; rows with missing cells are dropped before
ranking and the drop count is reported.

``scipy.stats`` is imported inside :func:`friedman` and :func:`nemenyi_q`,
its only users, not at the top: loading it costs about 0.7 s and 21 MB
(2-vCPU x86-64 host), and every mvkmf process imports this module, while
only ``mvkmf stats`` ranks.
``betainc`` stays at the top, since ``scipy.special`` is loaded anyway by
the ``scipy.linalg`` and ``scipy.spatial`` that every fit imports.
"""

from __future__ import annotations

import csv
import math
from io import StringIO
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc

from .errors import BadParamError, ParseError
from .io import _read


@dataclass(frozen=True)
class ResultsTable:
    scores: np.ndarray          # (n_datasets, n_algorithms), NaN = missing
    dataset_names: tuple[str, ...]
    algorithm_names: tuple[str, ...]

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", s)
        if s.ndim != 2:
            raise ParseError("results table must be two-dimensional")
        if s.shape != (len(self.dataset_names), len(self.algorithm_names)):
            raise ParseError("results table shape disagrees with its names")
        if len(set(self.dataset_names)) != len(self.dataset_names):
            raise ParseError("duplicate dataset names")
        if len(set(self.algorithm_names)) != len(self.algorithm_names):
            raise ParseError("duplicate algorithm names")


@dataclass(frozen=True)
class RankSummary:
    algorithm_names: tuple[str, ...]
    mean_ranks: np.ndarray
    chi2: float
    f_stat: float
    df1: int
    df2: int
    p_value: float
    critical_difference: float
    n_used: int
    n_dropped: int
    degenerate: bool


def read_results_table(path) -> ResultsTable:
    """Parse a results CSV: header row of algorithm names (first cell is the
    dataset column label), one row per dataset, cells are decimal scores or
    '-' for missing."""
    path = Path(path)
    reader = csv.reader(StringIO(_read(path), newline=""))
    rows = [row for row in reader if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path}: empty results table")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise ParseError(f"{path}: header must name at least one algorithm")
    algorithms = tuple(header[1:])
    names = []
    scores = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                             f"got {len(cells)}")
        names.append(cells[0])
        vals = []
        for cell in cells[1:]:
            if cell == "-":
                vals.append(np.nan)
            else:
                try:
                    vals.append(float(cell))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad score {cell!r}") from exc
        scores.append(vals)
    if not names:
        raise ParseError(f"{path}: no dataset rows")
    return ResultsTable(scores=np.array(scores, dtype=np.float64),
                        dataset_names=tuple(names),
                        algorithm_names=algorithms)


def write_results_table(path, table: ResultsTable) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", *table.algorithm_names])
        for name, row in zip(table.dataset_names, table.scores):
            w.writerow([name] + ["-" if math.isnan(v) else repr(float(v))
                                 for v in row])


def f_survival(x: float, df1: int, df2: int) -> float:
    """P(F > x) for the F distribution, through the regularized incomplete
    beta function."""
    if df1 < 1 or df2 < 1:
        raise BadParamError("F degrees of freedom must be positive")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x)))


def nemenyi_q(n_algorithms: int) -> float:
    """The Nemenyi test's q_alpha at alpha = 0.05 for ``n_algorithms``: the
    studentized range quantile with infinite degrees of freedom over sqrt(2),
    which is Demsar's (JMLR 2006) Table 5 (1.960 for 2 algorithms, 2.343
    for 3, ..., 3.164 for 10)."""
    if n_algorithms < 2:
        raise BadParamError("need >= 2 algorithms")
    from scipy.stats import studentized_range
    return float(studentized_range.ppf(0.95, n_algorithms, math.inf)
                 / math.sqrt(2.0))


def nemenyi_cd(n_algorithms: int, n_datasets: int,
               q_alpha: float | None = None) -> float:
    """Critical difference in mean rank below which two algorithms are not
    distinguishable at the chosen level; ``q_alpha=None`` takes
    :func:`nemenyi_q` of ``n_algorithms``."""
    if n_algorithms < 2 or n_datasets < 1:
        raise BadParamError("need >= 2 algorithms and >= 1 dataset")
    if q_alpha is None:
        q_alpha = nemenyi_q(n_algorithms)
    if not (math.isfinite(q_alpha) and q_alpha > 0):
        raise BadParamError(f"q_alpha must be finite and > 0, got {q_alpha}")
    k = n_algorithms
    return q_alpha * math.sqrt(k * (k + 1) / (6.0 * n_datasets))


def smallest_p(n_datasets: int, n_algorithms: int) -> float:
    """The smallest exact Friedman p any table of this size can reach,
    k!^(1 - n): that of n rows that all rank the k algorithms the same
    way, which under the null only the k! tables of n identical rows do."""
    return 1 / math.factorial(n_algorithms) ** (n_datasets - 1)


def friedman(table: ResultsTable, higher_is_better: bool = True,
             q_alpha: float | None = None) -> RankSummary:
    """Friedman test with Iman-Davenport correction over the complete rows
    of ``table``.

    Per-row ranks use average ranking for ties (best score gets rank 1).
    The critical difference is :func:`nemenyi_cd`'s for ``q_alpha``.
    When every row ranks the algorithms the same way (``degenerate``), the
    F statistic is infinite and the p-value is exact: chi2 is then at its
    maximum, so p is :func:`smallest_p`. Otherwise p comes from the F
    approximation.
    """
    scores = table.scores
    complete = ~np.isnan(scores).any(axis=1)
    used = scores[complete]
    n, k = used.shape
    if k < 2:
        raise BadParamError("need at least two algorithms to rank")
    if n < 2:
        raise BadParamError(f"need at least two complete rows, got {n}")
    from scipy.stats import rankdata
    keyed = -used if higher_is_better else used
    ranks = np.apply_along_axis(rankdata, 1, keyed)
    mean_ranks = ranks.mean(axis=0)

    chi2 = (12.0 * n / (k * (k + 1))) * (
        float(np.sum(mean_ranks ** 2)) - k * (k + 1) ** 2 / 4.0)
    df1 = k - 1
    df2 = (k - 1) * (n - 1)
    denom = n * (k - 1) - chi2
    degenerate = denom <= 0.0
    if degenerate:
        f_stat = math.inf
        p_value = smallest_p(n, k)
    else:
        f_stat = (n - 1) * chi2 / denom
        p_value = f_survival(f_stat, df1, df2)
    return RankSummary(
        algorithm_names=table.algorithm_names,
        mean_ranks=mean_ranks,
        chi2=float(chi2),
        f_stat=float(f_stat),
        df1=df1,
        df2=df2,
        p_value=float(p_value),
        critical_difference=nemenyi_cd(k, n, q_alpha),
        n_used=int(n),
        n_dropped=int(scores.shape[0] - n),
        degenerate=bool(degenerate),
    )


def pairwise_significance(summary: RankSummary) -> np.ndarray:
    """Boolean (k, k) matrix: True where two algorithms' mean ranks differ by
    at least the critical difference. Symmetric with a False diagonal."""
    diff = np.abs(summary.mean_ranks[:, None] - summary.mean_ranks[None, :])
    out = diff >= summary.critical_difference
    np.fill_diagonal(out, False)
    return out
