import itertools
from math import comb

import numpy as np
import pytest

from mvkmf.errors import LengthMismatchError
from mvkmf.metrics import (
    MetricReport,
    accuracy,
    ari,
    contingency_table,
    evaluate,
    nmi,
    purity,
)


def counts_matrix(true_labels, pred_labels):
    """Plain-numpy contingency counts, independent of the module under test."""
    tu = sorted(set(true_labels))
    pu = sorted(set(pred_labels))
    out = np.zeros((len(tu), len(pu)), dtype=int)
    for t, p in zip(true_labels, pred_labels):
        out[tu.index(t), pu.index(p)] += 1
    return out


def brute_accuracy(true_labels, pred_labels):
    """Max agreement over every injective cluster-to-class assignment."""
    C = counts_matrix(true_labels, pred_labels)
    m = max(C.shape)
    padded = np.zeros((m, m), dtype=int)
    padded[: C.shape[0], : C.shape[1]] = C
    best = max(sum(padded[perm[j], j] for j in range(m))
               for perm in itertools.permutations(range(m)))
    return best / len(true_labels)


def brute_ari(true_labels, pred_labels):
    """Pair-by-pair agreement counting over all C(n,2) sample pairs."""
    n = len(true_labels)
    together_both = together_true = together_pred = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = true_labels[i] == true_labels[j]
            sp = pred_labels[i] == pred_labels[j]
            together_both += st and sp
            together_true += st
            together_pred += sp
    total = comb(n, 2)
    expected = together_true * together_pred / total
    maximum = (together_true + together_pred) / 2.0
    if maximum == expected:
        same = counts_matrix(true_labels, pred_labels)
        diag_like = (same.shape[0] == same.shape[1]
                     and np.all((same > 0).sum(axis=0) == 1)
                     and np.all((same > 0).sum(axis=1) == 1))
        return 1.0 if diag_like else 0.0
    return (together_both - expected) / (maximum - expected)


# ---------------------------------------------------------------------------
# contingency table


def test_contingency_counts():
    table = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    assert np.array_equal(table, [[1, 1], [0, 2]])


def test_contingency_handles_noncontiguous_labels():
    table = contingency_table([5, 5, -3], [10, 2, 2])
    assert table.sum() == 3
    assert table.shape == (2, 2)


def test_contingency_length_mismatch():
    with pytest.raises(LengthMismatchError):
        contingency_table([0, 1], [0, 1, 1])
    with pytest.raises(LengthMismatchError):
        contingency_table([], [])


# ---------------------------------------------------------------------------
# worked examples


def test_accuracy_examples():
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0


def test_nmi_examples():
    assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_nmi_zero_entropy_conventions():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0          # identical trivial
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0          # same single-block partition
    assert nmi([0, 0, 0], [0, 0, 1]) == 0.0          # one entropy zero


def test_purity_examples():
    assert purity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    assert purity([0, 0, 1, 1], [0, 1, 2, 3]) == 1.0     # singletons


def test_ari_examples():
    assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)
    assert ari([0, 1, 2, 0], [2, 0, 1, 2]) == pytest.approx(1.0, abs=1e-12)


def test_ari_zero_denominator_conventions():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0          # identical single block
    assert ari([0, 1, 2], [2, 0, 1]) == 1.0          # identical all-singletons


def test_one_sample_is_an_identical_partition():
    # one sample has no pairs, so the index takes the degenerate rule
    assert ari([0], [0]) == ari([3], [7]) == 1.0
    rep = evaluate([0], [0])
    assert rep.acc == rep.nmi == rep.purity == rep.ari == 1.0


# ---------------------------------------------------------------------------
# oracle agreement


def test_accuracy_matches_brute_force(rng):
    for _ in range(60):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(6, 14))
        t = rng.integers(0, k, size=n).tolist()
        p = rng.integers(0, k, size=n).tolist()
        assert accuracy(t, p) == brute_accuracy(t, p)


def test_accuracy_matches_brute_force_unequal_label_counts(rng):
    for _ in range(30):
        t = rng.integers(0, 5, size=12).tolist()
        p = rng.integers(0, 3, size=12).tolist()
        assert accuracy(t, p) == brute_accuracy(t, p)


def test_ari_matches_pair_counting(rng):
    for _ in range(60):
        n = int(rng.integers(5, 20))
        t = rng.integers(0, 4, size=n).tolist()
        p = rng.integers(0, 4, size=n).tolist()
        assert ari(t, p) == pytest.approx(brute_ari(t, p), abs=1e-12)


# ---------------------------------------------------------------------------
# invariances and bounds


def test_relabel_invariance(rng):
    t = rng.integers(0, 4, size=30).tolist()
    p = rng.integers(0, 4, size=30).tolist()
    remap_t = [(x + 2) % 4 for x in t]
    remap_p = [3 - x for x in p]
    for metric in (accuracy, nmi, purity, ari):
        assert metric(t, p) == pytest.approx(metric(remap_t, remap_p),
                                             abs=1e-12)


def test_bounds_on_random_labelings(rng):
    for _ in range(40):
        n = int(rng.integers(4, 25))
        t = rng.integers(0, 5, size=n).tolist()
        p = rng.integers(0, 5, size=n).tolist()
        assert 0.0 <= accuracy(t, p) <= 1.0
        assert 0.0 <= nmi(t, p) <= 1.0 + 1e-12
        assert 0.0 <= purity(t, p) <= 1.0
        assert -1.0 <= ari(t, p) <= 1.0


def test_purity_at_least_max_class_frequency(rng):
    for _ in range(40):
        n = int(rng.integers(4, 25))
        t = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        floor = np.bincount(t).max() / n
        assert purity(t.tolist(), p.tolist()) >= floor - 1e-12


# ---------------------------------------------------------------------------
# report


def test_evaluate_report():
    rep = evaluate([0, 0, 1, 1], [0, 0, 1, 1])
    assert isinstance(rep, MetricReport)
    assert rep.acc == rep.nmi == rep.purity == rep.ari == 1.0
    d = rep.as_dict()
    assert set(d) == {"acc", "nmi", "purity", "ari"}


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatchError):
        evaluate([0, 1], [0])


def test_evaluate_equals_the_four_scorers(rng):
    # evaluate scores one contingency table; each public scorer forms its own
    for _ in range(40):
        n = int(rng.integers(1, 40))
        t = rng.integers(0, int(rng.integers(1, 6)), size=n)
        p = rng.integers(0, int(rng.integers(1, 6)), size=n) * 7 - 3
        rep = evaluate(t, p)
        assert rep == MetricReport(acc=accuracy(t, p), nmi=nmi(t, p),
                                   purity=purity(t, p), ari=ari(t, p))
