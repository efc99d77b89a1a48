import itertools
import math

import numpy as np
import pytest

from mvkmf.errors import BadParamError, ParseError
from mvkmf.stats import (
    RankSummary,
    ResultsTable,
    f_survival,
    friedman,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
    read_results_table,
    smallest_p,
    write_results_table,
)


def f_tail_by_integration(x0, df1, df2, panels=20000):
    """Midpoint-rule integration of the F density over (x0, inf).

    The substitution x = x0/s maps the infinite tail onto s in (0, 1]:
    P(X > x0) = integral_0^1 f(x0/s) x0 / s^2 ds.
    """
    d1, d2 = float(df1), float(df2)
    log_norm = (math.lgamma((d1 + d2) / 2.0) - math.lgamma(d1 / 2.0)
                - math.lgamma(d2 / 2.0) + (d1 / 2.0) * math.log(d1 / d2))
    s = (np.arange(panels) + 0.5) / panels
    x = x0 / s
    log_f = (log_norm + (d1 / 2.0 - 1.0) * np.log(x)
             - ((d1 + d2) / 2.0) * np.log1p(d1 * x / d2))
    return float(np.sum(np.exp(log_f) * x0 / (s * s)) / panels)


def table_from(scores, prefix="alg"):
    scores = np.asarray(scores, dtype=np.float64)
    return ResultsTable(
        scores=scores,
        dataset_names=tuple(f"d{i}" for i in range(scores.shape[0])),
        algorithm_names=tuple(f"{prefix}{j}" for j in range(scores.shape[1])),
    )


# ---------------------------------------------------------------------------
# critical difference


def test_cd_two_algorithms_unit_q():
    for n in (1, 4, 25):
        assert nemenyi_cd(2, n, 1.0) == pytest.approx(math.sqrt(1.0 / n),
                                                      abs=1e-15)


def test_cd_nine_algorithms_ten_datasets():
    assert nemenyi_cd(9, 10, 1.96) == pytest.approx(2.4004, abs=1e-4)


def test_nemenyi_q_matches_demsar_table_5():
    # Demsar (JMLR 2006), Table 5, alpha = 0.05, k = 2..10
    table = (1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164)
    for k, q in enumerate(table, start=2):
        assert nemenyi_q(k) == pytest.approx(q, abs=1e-3)
        assert nemenyi_cd(k, 10) == nemenyi_cd(k, 10, nemenyi_q(k))
    with pytest.raises(BadParamError):
        nemenyi_q(1)


def test_friedman_default_cd_follows_algorithm_count():
    ranks = np.array([[1, 2, 3], [1, 2, 3], [1, 3, 2]], dtype=np.float64)
    summary = friedman(table_from(-ranks))
    assert summary.critical_difference == pytest.approx(1.91, abs=5e-3)
    assert not pairwise_significance(summary).any()
    # k=2's q marks the first and last algorithms apart
    explicit = friedman(table_from(-ranks), q_alpha=1.96)
    assert explicit.critical_difference == pytest.approx(1.60, abs=5e-3)
    assert pairwise_significance(explicit)[0, 2]


def test_cd_doubling_datasets():
    a = nemenyi_cd(5, 8, 1.96)
    b = nemenyi_cd(5, 16, 1.96)
    assert a / b == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_cd_bad_params():
    with pytest.raises(BadParamError):
        nemenyi_cd(1, 10)
    with pytest.raises(BadParamError):
        nemenyi_cd(3, 0)
    for q_alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(BadParamError, match="q_alpha"):
            nemenyi_cd(3, 10, q_alpha)


# ---------------------------------------------------------------------------
# F survival function


def test_f_survival_edge_cases():
    assert f_survival(0.0, 3, 10) == 1.0
    assert f_survival(-2.0, 3, 10) == 1.0
    assert f_survival(math.inf, 3, 10) == 0.0
    assert math.isnan(f_survival(math.nan, 3, 10))
    with pytest.raises(BadParamError):
        f_survival(1.0, 0, 10)


def test_f_survival_table_anchor():
    assert f_survival(5.4540, 8, 72) == pytest.approx(2.2051e-5, abs=2e-6)


def test_f_survival_median_of_f11():
    # F(1,1) has cdf (2/pi) arctan(sqrt(x)); at x = 1 the tail is exactly 1/2
    assert f_survival(1.0, 1, 1) == pytest.approx(0.5, rel=1e-12)


def test_f_survival_matches_numerical_integration(rng):
    for _ in range(20):
        df1 = int(rng.integers(1, 12))
        df2 = int(rng.integers(3, 80))
        x0 = float(rng.uniform(0.3, 5.0))
        want = f_tail_by_integration(x0, df1, df2)
        assert f_survival(x0, df1, df2) == pytest.approx(want, rel=1e-4)


def test_f_survival_monotone_in_x():
    vals = [f_survival(x, 4, 20) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# friedman


def test_friedman_degrees_of_freedom():
    rng = np.random.default_rng(0)
    summary = friedman(table_from(rng.random((10, 9))))
    assert summary.df1 == 8
    assert summary.df2 == 72


def test_friedman_identical_scores():
    summary = friedman(table_from(np.ones((6, 4))))
    assert summary.chi2 == pytest.approx(0.0, abs=1e-12)
    assert summary.f_stat == pytest.approx(0.0, abs=1e-12)
    assert summary.p_value == pytest.approx(1.0, abs=1e-12)
    assert not summary.degenerate
    assert np.allclose(summary.mean_ranks, 2.5)     # all ties share (1+2+3+4)/4


def test_friedman_mean_ranks_sum():
    rng = np.random.default_rng(3)
    for k in (3, 5, 9):
        summary = friedman(table_from(rng.random((7, k))))
        assert np.sum(summary.mean_ranks) == pytest.approx(
            k * (k + 1) / 2.0, abs=1e-10)
        assert np.all(summary.mean_ranks >= 1.0 - 1e-12)
        assert np.all(summary.mean_ranks <= k + 1e-12)


def test_friedman_rank_direction():
    # algorithm 0 always wins on score; with higher_is_better it must hold
    # mean rank 1, inverted it must hold mean rank k
    scores = np.array([[0.9, 0.5, 0.1], [0.8, 0.2, 0.6], [0.99, 0.4, 0.3]])
    best = friedman(table_from(scores), higher_is_better=True)
    assert best.mean_ranks[0] == 1.0
    worst = friedman(table_from(scores), higher_is_better=False)
    assert worst.mean_ranks[0] == 3.0


def test_friedman_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    scores = rng.random((8, 5))
    a = friedman(table_from(scores))
    b = friedman(table_from(np.exp(3.0 * scores)))
    assert a.chi2 == pytest.approx(b.chi2, rel=1e-12)
    assert a.f_stat == pytest.approx(b.f_stat, rel=1e-12)
    assert a.p_value == pytest.approx(b.p_value, rel=1e-12)
    assert np.allclose(a.mean_ranks, b.mean_ranks)


def test_friedman_drops_incomplete_rows():
    scores = np.array([[0.9, 0.5], [np.nan, 0.4], [0.7, 0.6], [0.2, np.nan]])
    summary = friedman(table_from(scores))
    assert summary.n_used == 2
    assert summary.n_dropped == 2


def test_friedman_degenerate_unanimous_ranking():
    # every dataset orders the algorithms the same way; the Iman-Davenport
    # denominator hits zero, and the exact p is that of the 3! unanimous
    # tables among the (3!)^5 equally likely ones
    scores = np.array([[0.9, 0.6, 0.3]] * 5) + np.arange(5)[:, None]
    summary = friedman(table_from(scores))
    assert summary.degenerate
    assert math.isinf(summary.f_stat)
    assert summary.p_value == 6.0 ** -4
    assert summary.chi2 == pytest.approx(5 * (3 - 1), abs=1e-12)


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 3)])
def test_friedman_unanimous_p_matches_enumeration(n, k):
    # under the null every row is an equally likely permutation of the ranks
    # 1..k; the exact p is the share of the (k!)^n rank tables whose chi2
    # (a function of the column rank sums) reaches the observed maximum
    from fractions import Fraction

    perms = list(itertools.permutations(range(1, k + 1)))
    observed = friedman(table_from([perms[0]] * n), higher_is_better=False)
    hits = 0
    for rows in itertools.product(perms, repeat=n):
        sums = np.sum(rows, axis=0)
        chi2 = 12.0 / (n * k * (k + 1)) * float(np.sum(sums ** 2)) \
            - 3.0 * n * (k + 1)
        hits += chi2 >= observed.chi2 - 1e-9
    exact = Fraction(hits, len(perms) ** n)
    assert exact == Fraction(1, math.factorial(k) ** (n - 1))
    assert observed.p_value == float(exact) == smallest_p(n, k)
    if (n, k) == (2, 3):
        assert observed.p_value == 1 / 6


def test_friedman_needs_enough_data():
    with pytest.raises(BadParamError):
        friedman(table_from(np.ones((1, 3))))
    with pytest.raises(BadParamError):
        friedman(table_from(np.ones((5, 1))))
    scores = np.full((4, 3), np.nan)
    scores[0] = [1.0, 2.0, 3.0]
    with pytest.raises(BadParamError):
        friedman(table_from(scores))      # only one complete row


def test_friedman_statistic_small_worked_example():
    # two datasets, two algorithms, alg0 always better:
    # ranks per row (1,2); mean ranks (1,2); chi2 = (12*2/6)(5 - 4.5) = 2
    summary = friedman(table_from([[0.9, 0.1], [0.8, 0.3]]))
    assert summary.chi2 == pytest.approx(2.0, abs=1e-12)
    assert summary.degenerate          # n(k-1) - chi2 = 2 - 2 = 0


# ---------------------------------------------------------------------------
# pairwise significance


def test_pairwise_all_equal_ranks():
    summary = friedman(table_from(np.ones((6, 4))))
    sig = pairwise_significance(summary)
    assert not sig.any()


def make_summary(mean_ranks, cd):
    return RankSummary(
        algorithm_names=tuple(f"a{i}" for i in range(len(mean_ranks))),
        mean_ranks=np.asarray(mean_ranks, dtype=np.float64),
        chi2=0.0, f_stat=0.0, df1=1, df2=1, p_value=1.0,
        critical_difference=cd, n_used=2, n_dropped=0, degenerate=False,
    )


def test_pairwise_boundary_is_significant():
    sig = pairwise_significance(make_summary([1.0, 1.0 + 0.5], cd=0.5))
    assert sig[0, 1] and sig[1, 0]


def test_pairwise_three_rank_pattern_single_pair():
    # middle rank is within cd of both ends; only the extremes differ enough
    cd = 0.8
    sig = pairwise_significance(
        make_summary([1.0, 1.0 + cd / 2.0, 1.0 + cd], cd=cd))
    want = np.array([[False, False, True],
                     [False, False, False],
                     [True, False, False]])
    assert np.array_equal(sig, want)


def test_pairwise_three_rank_pattern_two_pairs():
    cd = 0.8
    sig = pairwise_significance(
        make_summary([1.0, 1.0 + cd / 2.0, 1.0 + 2.0 * cd], cd=cd))
    want = np.array([[False, False, True],
                     [False, False, True],
                     [True, True, False]])
    assert np.array_equal(sig, want)


def test_pairwise_symmetric_false_diagonal():
    rng = np.random.default_rng(1)
    sig = pairwise_significance(make_summary(rng.uniform(1, 5, size=6),
                                             cd=1.0))
    assert np.array_equal(sig, sig.T)
    assert not sig.diagonal().any()


# ---------------------------------------------------------------------------
# table serialization


def test_results_table_round_trip(tmp_path):
    table = table_from([[0.913, 0.5], [0.1, np.nan]])
    path = tmp_path / "table.csv"
    write_results_table(path, table)
    back = read_results_table(path)
    assert back.dataset_names == table.dataset_names
    assert back.algorithm_names == table.algorithm_names
    assert np.array_equal(np.isnan(back.scores), np.isnan(table.scores))
    mask = ~np.isnan(table.scores)
    assert np.array_equal(back.scores[mask], table.scores[mask])


def test_results_table_missing_dash(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("dataset,a,b\nwine,0.9,-\ncars,0.8,0.7\n")
    table = read_results_table(path)
    assert np.isnan(table.scores[0, 1])
    assert not np.isnan(table.scores[1, 0])


def test_results_table_keeps_quoted_line_breaks(tmp_path):
    # the csv module reads the text with its newlines untranslated, so a
    # quoted cell keeps its own \r\n and \r
    path = tmp_path / "table.csv"
    path.write_bytes(b'dataset,a\r\n"wi\r\nne",0.9\r\n"ca\rrs",0.8\r\n')
    table = read_results_table(path)
    assert table.dataset_names == ("wi\r\nne", "ca\rrs")
    assert table.algorithm_names == ("a",)


def test_results_table_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dataset,a,b\nwine,0.9\n")            # ragged
    with pytest.raises(ParseError):
        read_results_table(path)
    path.write_text("dataset,a,b\nwine,0.9,hello\n")      # non-numeric
    with pytest.raises(ParseError):
        read_results_table(path)
    path.write_text("")                                   # empty
    with pytest.raises(ParseError):
        read_results_table(path)


def test_results_table_validation():
    with pytest.raises(ParseError):
        ResultsTable(scores=np.ones((2, 2)),
                     dataset_names=("a", "a"),
                     algorithm_names=("x", "y"))
    with pytest.raises(ParseError):
        ResultsTable(scores=np.ones((2, 2)),
                     dataset_names=("a", "b"),
                     algorithm_names=("x",))
