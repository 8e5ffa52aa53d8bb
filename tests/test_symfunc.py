import itertools
import math
from fractions import Fraction

import pytest
from references import linear_ratio_reference

from ycalc.coefficients import marked_row, npbi, npbi_table
from ycalc.partitions import Partition, enumerate_partitions, partitions_upto, z_of
from ycalc.series import comb_int
from ycalc.symfunc import _chi_conjectured, chi_experiment, power_to_monomial

ALPHABET = tuple(Fraction(v) for v in (2, Fraction(1, 3), -1, Fraction(5, 7)))


def _prod(vals):
    out = Fraction(1)
    for v in vals:
        out *= v
    return out


def _elementary_bruteforce(a, k):
    """e_k(a), one product per k-subset of the positions."""
    return sum((_prod(sub) for sub in itertools.combinations(a, k)), Fraction(0))


def _complete_bruteforce(a, k):
    """h_k(a), one product per k-multiset of the positions."""
    return sum((_prod(sub) for sub in itertools.combinations_with_replacement(a, k)), Fraction(0))


def _power_sums(a):
    """X_i = p_i(a), the power sums of an alphabet."""
    return lambda i: sum((v**i for v in a), Fraction(0))


def test_elementary_bruteforce():
    # e_k is the t^k coefficient of prod (1 + v t), 0 beyond the alphabet size
    k_max = len(ALPHABET) + 1
    series = linear_ratio_reference(ALPHABET, (), k_max)
    for k in range(k_max + 1):
        assert series[k] == _elementary_bruteforce(ALPHABET, k)
    assert series[k_max] == 0


def test_complete_bruteforce():
    # h_k is the t^k coefficient of 1 / prod (1 - v t)
    series = linear_ratio_reference((), [-v for v in ALPHABET], 4)
    for k in range(5):
        assert series[k] == _complete_bruteforce(ALPHABET, k)


def test_newton_convert():
    # Newton's averaging formulas over mu |- k: h_k = sum p_mu / z_mu and
    # e_k = sum (-1)^(k - l(mu)) p_mu / z_mu
    p = _power_sums(ALPHABET)
    for k in range(1, 6):
        h = e = Fraction(0)
        for mu in enumerate_partitions(k):
            w = _prod(p(part) for part in mu.parts) / z_of(mu)
            h += w
            e += w if (k - mu.length) % 2 == 0 else -w
        assert h == _complete_bruteforce(ALPHABET, k)
        assert e == _elementary_bruteforce(ALPHABET, k)


def test_p_npk_conventions():
    # marked_row(n) holds n! p_npk(n, p, k) for 0 <= p, k <= n: column
    # k = 0 is 0 except the (0, 0, 0) entry, which is 1
    xk = _power_sums(ALPHABET)
    assert marked_row(0, xk) == ((1,),)
    row = marked_row(3, xk)
    assert [len(line) for line in row] == [4] * 4
    assert all(line[0] == 0 for line in row)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        marked_row(-1, xk)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, n + 1)])
def test_p_nk_single_letter_closed_form(n, k):
    # on a one-letter alphabet {x} the unmarked family (p = 0) collapses
    # to C(n-1, k-1) x^n
    x = Fraction(4, 7)
    assert marked_row(n, _power_sums((x,)))[0][k] == math.factorial(n) * comb_int(n - 1, k - 1) * x**n


def test_p_npk_marking_symmetry():
    xk = _power_sums(ALPHABET)
    for n in range(1, 6):
        row = marked_row(n, xk)
        for p in range(n + 1):
            assert row[p] == row[n - p], (n, p)


def test_marked_row_matches_partition_sum():
    # the one-pass row against the sum over mu |- n of
    # npbi(mu, p, k)/z_mu * X_mu1 X_mu2 ..., entry by entry
    xk = _power_sums(ALPHABET)
    for n in range(8):
        row = marked_row(n, xk)
        for p in range(n + 1):
            for k in range(n + 1):
                want = Fraction(0)
                for mu in enumerate_partitions(n):
                    want += Fraction(npbi_table(mu).get((p, k), 0), z_of(mu)) * _prod(xk(part) for part in mu.parts)
                assert row[p][k] / math.factorial(n) == want, (n, p, k)


def _transition_combination(weights):
    """sum_la w(la) p_la in the monomial basis, as {mu: coefficient}."""
    out = {}
    for la, w in weights.items():
        for mu, count in power_to_monomial(la).items():
            out[mu] = out.get(mu, Fraction(0)) + w * count
    return out


def test_power_to_monomial_hand_rows():
    m = {mu.parts: c for mu, c in power_to_monomial(Partition((2, 1))).items()}
    assert m == {(3,): 1, (2, 1): 1}
    m = {mu.parts: c for mu, c in power_to_monomial(Partition((1, 1, 1))).items()}
    assert m == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}
    assert power_to_monomial(Partition(())) == {Partition(()): 1}


def test_power_to_monomial_recovers_classical_bases():
    # h_n = sum_la p_la/z_la has every m_mu coefficient 1;
    # e_n = sum_la (-1)^(n - l(la)) p_la/z_la is m_(1^n)
    for n in range(1, 7):
        shapes = enumerate_partitions(n)
        h = _transition_combination({la: Fraction(1, z_of(la)) for la in shapes})
        assert h == {mu: 1 for mu in shapes}
        e = _transition_combination(
            {la: Fraction((-1) ** (n - la.length), z_of(la)) for la in shapes}
        )
        assert {mu: c for mu, c in e.items() if c} == {Partition((1,) * n): 1}


def _monomial_bruteforce(a, mu):
    """m_mu(a): one term per distinct exponent vector rearranging mu."""
    if mu.length > len(a):
        return Fraction(0)
    padded = mu.parts + (0,) * (len(a) - mu.length)
    return sum(
        (_prod(v**e for v, e in zip(a, exps)) for exps in set(itertools.permutations(padded))),
        Fraction(0),
    )


def test_power_to_monomial_on_an_alphabet():
    # p_la(a) = sum_mu L[la, mu] m_mu(a), also when mu is longer than a
    a = ALPHABET[:3]
    for n in range(1, 6):
        for la in enumerate_partitions(n):
            row = power_to_monomial(la)
            recon = sum((c * _monomial_bruteforce(a, mu) for mu, c in row.items()), Fraction(0))
            assert recon == _prod(_power_sums(a)(part) for part in la.parts)


def test_monomial_sums_to_complete():
    for n in range(1, 5):
        total = sum(
            (_monomial_bruteforce(ALPHABET, mu) for mu in enumerate_partitions(n)),
            Fraction(0),
        )
        assert total == _complete_bruteforce(ALPHABET, n)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (4, 4)])
def test_p_nk_monomial_support_law(n, k):
    # p_nk(-X) = (-1)^k sum of m_mu over the length-k shapes mu
    coeffs = _transition_combination(
        {
            la: Fraction((-1) ** la.length * npbi(la, 0, k), z_of(la))
            for la in enumerate_partitions(n)
        }
    )
    for mu in enumerate_partitions(n):
        assert coeffs.get(mu, 0) == ((-1) ** k if mu.length == k else 0)


def test_chi_experiment_small():
    report = chi_experiment(3, 3)
    assert not report.support_violations
    assert report.rows and all(r.match is True for r in report.rows)
    # every row records the shape it decorates
    for r in report.rows:
        assert r.mu.length == r.k
        assert r.mu.weight == r.n


def test_every_chi_row_matches_the_product_formula():
    report = chi_experiment(8, 8)
    assert not report.support_violations
    assert len(report.rows) == 482
    assert sum(r.p >= 4 for r in report.rows) > 0
    assert all(r.match is True for r in report.rows)


def test_chi_product_formula_counts_bounded_vectors():
    # [t^p] prod_j (1 + t + ... + t^{mu_j}) is the number of integer
    # vectors c with 0 <= c_j <= mu_j and sum c = p
    p_max = 8
    for mu in partitions_upto(7):
        counts = [0] * (p_max + 1)
        for c in itertools.product(*(range(part + 1) for part in mu.parts)):
            if sum(c) <= p_max:
                counts[sum(c)] += 1
        assert [_chi_conjectured(p, mu) for p in range(p_max + 1)] == counts, mu
