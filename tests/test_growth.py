"""Growth kernels, dimension recurrences, and the seeded sampler."""

import gc
import importlib
import math
import pkgutil
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.growth import (
    _BLOCK,
    _lane_draws,
    _unpack,
    cotransition_from_dimensions,
    cotransition_kernel,
    cotransition_moment_routes,
    dimension,
    plancherel_check,
    sample_growth,
    tableau_counts,
)
import ycalc
from ycalc import growth, moments, partitions
from ycalc.moments import S_ROUTES, SIGMA_ROUTES, _position_weights, corner_binomials, moment_values, pieri_coefficients
from ycalc.partitions import EMPTY, MEMO_SIZE, Partition, partitions_upto
from ycalc.shifted import moment_table
from ycalc.series import InvariantError, comb_int

from references import dimension_reference

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
KERNEL_ALPHAS = ALPHAS + (Fraction(7, 3),)


def _hook_length_count(la: Partition) -> int:
    """f_la by the hook length formula, independent of any recurrence."""
    if not la.weight:
        return 1
    conj = la.conjugate()
    denom = 1
    for i, j in la.cells():
        denom *= (la.part(i) - j) + (conj.part(j) - i) + 1
    q, r = divmod(math.factorial(la.weight), denom)
    assert r == 0
    return q


def test_tableau_counts_match_hook_lengths():
    f = tableau_counts(8)
    for la, count in f.items():
        assert count == _hook_length_count(la), la
    assert f[Partition((4, 2, 1))] == _hook_length_count(Partition((4, 2, 1)))


def test_transition_kernel_shape():
    atoms = dict(pieri_coefficients(Partition((2, 1)), Fraction(2)))
    assert set(atoms) == {1, 2, 3}
    assert atoms[2] > 0
    assert sum(atoms.values()) == 1


def test_cotransition_requires_cells():
    with pytest.raises(ValueError, match="no co-transition from the empty shape"):
        cotransition_kernel(EMPTY, Fraction(1))
    with pytest.raises(ValueError, match="no co-transition from the empty shape"):
        cotransition_from_dimensions(EMPTY, Fraction(1))


def test_corner_kernel_rejects_negative_weight(fresh_memos, monkeypatch):
    # Corner weights -1 and 4 on the two corners of 2,1 still sum to |la|
    # = 3, so only the sign check can catch them.
    row_values = moments._corner_row_values

    def signed(la, a, b):
        return [(-1, 1), (4, 1)] if la.parts == (2, 1) else row_values(la, a, b)

    monkeypatch.setattr(moments, "_corner_row_values", signed)
    la = Partition((2, 1))
    with pytest.raises(InvariantError, match="negative corner weight -1 on row 1 of 2,1"):
        corner_binomials(la, Fraction(1))
    with pytest.raises(InvariantError, match="negative corner weight"):
        cotransition_kernel(la, Fraction(1))


def _as_fractions(atoms):
    """Integer atoms (row, num, den) as (row, Fraction) pairs."""
    return tuple((i, Fraction(n, d)) for i, n, d in atoms)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cotransition_factorizes_through_dimensions(alpha):
    for la in partitions_upto(6):
        if not la.weight:
            continue
        direct = cotransition_kernel(la, alpha)
        via_dim = _as_fractions(cotransition_from_dimensions(la, alpha))
        assert direct == via_dim, la


_SMALL_SHAPES = st.sampled_from(partitions_upto(6))
_RANDOM_ALPHAS = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))


@settings(deadline=None, derandomize=True)
@given(_SMALL_SHAPES, _RANDOM_ALPHAS)
def test_kernel_atoms_are_nonnegative(la, alpha):
    atoms = pieri_coefficients(la, alpha)
    if la.weight:
        atoms += cotransition_kernel(la, alpha)
    assert all(p >= 0 for _, p in atoms)


@settings(deadline=None, derandomize=True)
@given(_SMALL_SHAPES.filter(lambda la: la.weight), _RANDOM_ALPHAS)
def test_dimension_recurrence_gives_the_down_kernel(la, alpha):
    assert _as_fractions(cotransition_from_dimensions(la, alpha)) == cotransition_kernel(la, alpha)


def test_dimension_table_at_alpha_one():
    f = tableau_counts(6)
    for la in partitions_upto(6):
        assert dimension(la, 1) == Fraction(
            f[la] ** 2, math.factorial(la.weight)
        )


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS + (Fraction(13, 11),))
def test_dimension_matches_the_covering_recurrence(alpha):
    # The hook product against the Pieri weights folded bottom-up: two
    # routes that share no code.  Under alpha <-> 1/alpha the product
    # differs from the fold at most shapes once alpha != 1.
    want = dimension_reference(9, alpha)
    assert len(want) == len(partitions_upto(9))
    for la, dim in want.items():
        assert dimension(la, alpha) == dim, la


def test_dimension_of_a_row_and_a_column_is_its_path_product():
    # A row or a column covers one shape only, so its dimension is the
    # product of the Pieri weights along its one path from the empty shape.
    alpha = Fraction(3, 5)
    for la, row_of in ((Partition((600,)), lambda k: 1), (Partition((1,) * 300), lambda k: k + 1)):
        want, shape = Fraction(1), EMPTY
        for k in range(la.weight):
            want *= dict(pieri_coefficients(shape, alpha))[row_of(k)]
            shape = shape.add_cell(row_of(k))
        assert shape == la and dimension(la, alpha) == want, la


def test_dimension_of_deep_and_wide_shapes():
    # A long row and a staircase of 36 cells against the hook length
    # count f_la: at alpha = 1 the hook product is f_la^2 / |la|!.
    for la in (Partition((600,)), Partition(range(8, 0, -1))):
        want = Fraction(_hook_length_count(la) ** 2, math.factorial(la.weight))
        assert dimension(la, 1) == want, la


def test_plancherel_reduction():
    assert plancherel_check(6)


def _contents(la, alpha):
    """The alpha-contents (j-1) - (i-1)/alpha of la's cells, row-major."""
    return tuple(Fraction(j - 1) - Fraction(i - 1) / alpha for i, j in la.cells())


def _new_content(before: Partition, after: Partition, alpha) -> Fraction:
    """The one content of `after` that `before` lacks."""
    (c,) = Counter(_contents(after, alpha)) - Counter(_contents(before, alpha))
    return c


def test_added_and_removed_content():
    # the cell appended in row i has content la_i - (i-1)/alpha
    la = Partition((3, 1))
    alpha = Fraction(2)
    assert _new_content(la, la.add_cell(1), alpha) == 3
    assert _new_content(la, la.add_cell(3), alpha) == -Fraction(2, 2)
    # the cell deleted from row i has content (x - a)/a, x the integer
    # position numerator of the corner atom
    a = alpha.numerator
    pairs, _ = _position_weights(moments._corner_weights, la, alpha)
    removed = [Fraction(x - a, a) for x, _ in pairs]
    assert removed == [2, -Fraction(1, 2)]
    for row, content in zip(la.removable_rows(), removed):
        assert content == _new_content(la.remove_cell(row), la, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_exact_moments_cross_checked(alpha):
    # the down moments straight from the atoms against the combination
    # of corner moments
    for la in partitions_upto(5):
        if la.weight:
            direct, combo, _ = cotransition_moment_routes(la, alpha, 4)
            assert direct == combo, la


def _cotransition_routes_reference(la: Partition, alpha, r_max: int) -> list[tuple[Fraction, Fraction]]:
    """(direct, combination) in Fractions: the deleted contents
    (la_i - 1) - (i-1)/alpha under the down kernel, and the binomial
    combination of the corner moments over |la|."""
    sigmas = moment_values(SIGMA_ROUTES["direct"], la, alpha, r_max)
    atoms = [(Fraction(la.part(i) - 1) - Fraction(i - 1) / alpha, p) for i, p in cotransition_kernel(la, alpha)]
    out = []
    for r in range(r_max + 1):
        direct = sum((content**r * p for content, p in atoms), Fraction(0))
        combo = sum(((-1) ** (r - k) * comb_int(r, k) * sigmas[k] for k in range(r + 1)), Fraction(0))
        out.append((direct, combo / la.weight))
    return out


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_cotransition_routes_match_fraction_formulas(alpha):
    # both routes' moment r are integers over E a^r
    a = alpha.numerator
    for la in partitions_upto(6):
        if la.weight:
            direct, combo, den = cotransition_moment_routes(la, alpha, 6)
            routes = [(Fraction(u, den * a**r), Fraction(v, den * a**r)) for r, (u, v) in enumerate(zip(direct, combo))]
            assert routes == _cotransition_routes_reference(la, alpha, 6), la


def _graph_distribution(start: Partition, alpha, steps: int) -> dict[Partition, Fraction]:
    """The masses of the state graph's level `steps`."""
    level = {start.parts: growth._Node(start, Fraction(1))}
    for _ in range(steps):
        level = growth._expand(level, alpha)
    return {node.la: node.mass for node in level.values()}


def test_distribution_after_two_steps():
    dist = _graph_distribution(EMPTY, Fraction(1), 2)
    assert dist == {
        Partition((2,)): Fraction(1, 2),
        Partition((1, 1)): Fraction(1, 2),
    }
    # general alpha: the split is 1/(alpha+1) beside, alpha/(alpha+1) below
    alpha = Fraction(3, 5)
    dist = _graph_distribution(EMPTY, alpha, 2)
    assert dist[Partition((2,))] == 1 / (alpha + 1)
    assert dist[Partition((1, 1))] == alpha / (alpha + 1)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_distribution_mass_is_conserved(alpha):
    for steps in range(5):
        dist = _graph_distribution(EMPTY, alpha, steps)
        assert sum(dist.values(), Fraction(0)) == 1
        assert all(la.weight == steps for la in dist)


def _reference_exact(start: Partition, alpha, steps: int, r: int) -> Fraction:
    """The exact moment as a sum over states one step before the end:
    sum of P(state) s_r(state)."""
    total = Fraction(0)
    for state, mass in _distribution_by_add_cell(start, alpha, steps - 1).items():
        total += mass * moment_values(S_ROUTES["direct"], state, alpha, r)[r]
    return total


@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(7, 3)))
@pytest.mark.parametrize("start", (EMPTY, Partition((2, 1))))
def test_sampler_exact_reference_matches_state_sum(alpha, start):
    for steps in range(1, 7):
        stats = sample_growth(steps=steps, alpha=alpha, paths=20, seed=steps, start=start)
        for m in stats.moments:
            assert m.exact == _reference_exact(start, alpha, steps, m.r), (steps, m.r)


def _distribution_by_add_cell(start: Partition, alpha, steps: int) -> dict[Partition, Fraction]:
    """The state distribution level by level through Partition.add_cell,
    a reference independent of the state graph."""
    dist = {start: Fraction(1)}
    for _ in range(steps):
        nxt: dict[Partition, Fraction] = {}
        for la, mass in dist.items():
            for i, p in pieri_coefficients(la, alpha):
                above = la.add_cell(i)
                nxt[above] = nxt.get(above, 0) + mass * p
        dist = nxt
    return dist


@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(7, 3)))
@pytest.mark.parametrize("start", (EMPTY, Partition((2, 1))))
def test_state_graph_invariants(alpha, start):
    level = {start.parts: growth._Node(start, Fraction(1))}
    for depth in range(7):
        assert {node.la: node.mass for node in level.values()} == _distribution_by_add_cell(start, alpha, depth)
        if depth == 6:
            break
        nxt = growth._expand(level, alpha)
        for parts, node in level.items():
            assert node.la.parts == parts
            # The graph's integer atoms and the memoised Fraction view are
            # one evaluator: they agree row for row.
            atoms = [(i, Fraction(num, den)) for i, num, den in node.atoms]
            assert atoms == list(pieri_coefficients(node.la, alpha))
            weights = accumulate(p for _, p in atoms)
            assert node.cuts == tuple(math.ceil(w * 2**64) for w in weights)
            assert node.cuts[-1] == 2**64
            assert [child.la for child in node.succ] == [node.la.add_cell(i) for i, _ in atoms]
            assert all(nxt[child.la.parts] is child for child in node.succ)
        level = nxt


@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(7, 3)))
def test_state_graph_masses_are_dimensions(alpha):
    # From the empty shape the mass of a node is dim(la): the state graph
    # folds the Pieri weights down every path, `dimension` takes the hook
    # product, and no code is shared between the two.
    level = {EMPTY.parts: growth._Node(EMPTY, Fraction(1))}
    for depth in range(11):
        assert all(node.mass == dimension(node.la, alpha) for node in level.values()), depth
        level = growth._expand(level, alpha)


def test_row_weights_off_one_are_rejected(fresh_memos, monkeypatch):
    # The one row weight of the empty shape is halved.
    row_values = moments._pieri_row_values

    def halved(la, a, b):
        values = row_values(la, a, b)
        if la == EMPTY:
            [(num, den)] = values
            return [(num, 2 * den)]
        return values

    monkeypatch.setattr(moments, "_pieri_row_values", halved)
    with pytest.raises(InvariantError, match="row weights of 0 sum to 1/2"):
        sample_growth(steps=1, alpha=Fraction(1), paths=1, seed=0)


def test_negative_pieri_atom_is_rejected(fresh_memos, monkeypatch):
    # Rows 1 and 2 of the shape 1 get +1 and -1: the atoms still sum to 1,
    # but one of them is negative.
    row_values = moments._pieri_row_values

    def skewed(la, a, b):
        values = row_values(la, a, b)
        if la.parts == (1,):
            (n1, d1), (n2, d2) = values
            return [(n1 + d1, d1), (n2 - d2, d2)]
        return values

    monkeypatch.setattr(moments, "_pieri_row_values", skewed)
    with pytest.raises(InvariantError, match="negative"):
        pieri_coefficients(Partition((1,)), Fraction(1))
    with pytest.raises(InvariantError, match="negative"):
        _graph_distribution(EMPTY, Fraction(1), 2)
    with pytest.raises(InvariantError, match="negative"):
        sample_growth(steps=3, alpha=Fraction(1), paths=10, seed=0)


@pytest.mark.parametrize("pair", ((1, -2), (-1, 2)))
def test_pieri_atom_sign_is_tested_on_both_parts(fresh_memos, monkeypatch, pair):
    # Row 1 of the shape 1 gets the weight -1/2 as a raw pair; row 2 takes
    # the rest, so the atoms still sum to 1.
    row_values = moments._pieri_row_values

    def signed(la, a, b):
        values = row_values(la, a, b)
        return [pair, (3, 2)] if la.parts == (1,) else values

    monkeypatch.setattr(moments, "_pieri_row_values", signed)
    with pytest.raises(InvariantError, match="negative row weight -1/2 on row 1 of 1"):
        pieri_coefficients(Partition((1,)), Fraction(1))
    with pytest.raises(InvariantError, match="negative row weight -1/2 on row 1 of 1"):
        sample_growth(steps=3, alpha=Fraction(1), paths=10, seed=0)


def test_pieri_pair_negative_over_negative_is_a_weight():
    # Raw pairs may carry a sign on both parts: row 2 of 2,1 at alpha = 1
    # is (-3, -12), the weight 1/4, and its atom carries the sign on num.
    la, one = Partition((2, 1)), Fraction(1)
    assert moments._pieri_row_values(la, 1, 1)[1] == (-3, -12)
    assert moments._pieri_atoms(la, 1, 1)[1] == (2, 3, 12)
    assert dict(pieri_coefficients(la, one))[2] == Fraction(1, 4)
    # x = 2, 0, -2 on rows 1, 2, 3, with weights 3/8, 1/4, 3/8
    stats = sample_growth(steps=1, alpha=one, paths=1000, seed=0, start=la)
    assert [m.exact for m in stats.moments[:3]] == [1, 0, 3]


def test_sampler_leaves_the_pieri_memo_alone(fresh_memos):
    # The sampler reads the unmemoised integer atoms, not the memo: a walk
    # over 2,087 shapes neither fills nor evicts it.
    pieri_coefficients(Partition((2, 1)), Fraction(1, 2))
    before = moments._pieri_weights.cache_info()
    sample_growth(steps=20, alpha=Fraction(1, 2), paths=100, seed=0)
    assert moments._pieri_weights.cache_info() == before


def test_pieri_weight_on_non_addable_row_is_rejected(fresh_memos, monkeypatch):
    # Row 2 of the shape 1,1 cannot take a cell; give it a weight.
    row_values = moments._pieri_row_values

    def leaky(la, a, b):
        values = row_values(la, a, b)
        return values[:1] + [(1, 1)] + values[2:] if la.parts == (1, 1) else values

    monkeypatch.setattr(moments, "_pieri_row_values", leaky)
    message = "formula fails to vanish on non-addable row 2 of 1,1"
    with pytest.raises(InvariantError, match=message):
        pieri_coefficients(Partition((1, 1)), Fraction(1))
    with pytest.raises(InvariantError, match=message):
        sample_growth(steps=3, alpha=Fraction(1), paths=10, seed=0)


def test_pieri_linear_factor_is_checked(fresh_memos, monkeypatch):
    # alpha = -1 let past check_alpha: the factor a*la_1 + b*(l + 1) of
    # the row formula vanishes on row 1 of the shape 2, and the block
    # factor a*(la_1 - 0) + b*1 on row 1 of the shape 1.
    for module in (growth, partitions):
        monkeypatch.setattr(module, "check_alpha", Fraction)
    with pytest.raises(InvariantError, match="nonvanishing linear factor violated"):
        pieri_coefficients(Partition((2,)), Fraction(-1))
    with pytest.raises(InvariantError, match="nonvanishing linear factor violated"):
        sample_growth(steps=3, alpha=Fraction(-1), paths=10, seed=0)


def test_sampler_is_deterministic():
    a = sample_growth(steps=3, alpha=Fraction(1), paths=200, seed=99)
    b = sample_growth(steps=3, alpha=Fraction(1), paths=200, seed=99)
    assert a == b
    c = sample_growth(steps=3, alpha=Fraction(1), paths=200, seed=100)
    assert c != a


def test_sampler_paths_are_independent_of_the_batch():
    # per-path generators: the first paths of a bigger run are identical
    small = sample_growth(
        steps=2, alpha=Fraction(1), paths=3, seed=7, dump_paths=True
    )
    big = sample_growth(
        steps=2, alpha=Fraction(1), paths=8, seed=7, dump_paths=True
    )
    assert big.path_dump[:3] == small.path_dump


def test_sampler_single_step_moments_are_exact_targets():
    start = Partition((3, 1))
    stats = sample_growth(
        steps=1, alpha=Fraction(2), paths=500, seed=5, start=start, r_max=3
    )
    assert stats.paths == 500
    assert [m.exact for m in stats.moments] == moment_values(S_ROUTES["direct"], start, Fraction(2), 3)
    # moment 0 is measured exactly
    assert stats.moments[0].estimate == 1.0
    assert stats.moments[0].std_error == 0.0


def test_sampler_occupancy_and_dump_format():
    stats = sample_growth(
        steps=2, alpha=Fraction(1), paths=50, seed=11, dump_paths=True
    )
    assert sum(count for _, count in stats.occupancy) == 50
    assert all(Partition.from_string(name).weight == 2 for name, _ in stats.occupancy)
    assert list(stats.occupancy) == sorted(stats.occupancy)
    for trail in stats.path_dump:
        steps = trail.split("|")
        assert steps[0] == "0"
        assert len(steps) == 3


def test_sampler_dump_cap():
    stats = sample_growth(
        steps=1, alpha=Fraction(1), paths=30, seed=1, dump_paths=True, dump_cap=10
    )
    assert len(stats.path_dump) == 10


def _last_content(before: Partition, after: Partition, alpha) -> Fraction:
    """Content (j-1) - (i-1)/alpha of the one cell `after` adds to `before`."""
    (i,) = [i for i in range(1, after.length + 1) if after.part(i) != before.part(i)]
    return Fraction(after.part(i) - 1) - Fraction(i - 1) / alpha


@pytest.mark.parametrize("alpha", (Fraction(1, 2), Fraction(2), Fraction(1), Fraction(3, 5), Fraction(7, 3)))
@pytest.mark.parametrize("steps", (1, 3))
def test_sufficient_statistics_match_per_path_sums(alpha, steps):
    # the summary floats equal those of the Fraction summary of the dumped paths
    paths, r_max = 400, 4
    for seed in (17, 29, 1833):
        stats = sample_growth(
            steps=steps, alpha=alpha, paths=paths, seed=seed, start=Partition((2, 1)),
            r_max=r_max, dump_paths=True,
        )
        assert len(stats.path_dump) == paths
        power_sums = [Fraction(0)] * (2 * r_max + 1)
        finals: dict[str, int] = {}
        for trail in stats.path_dump:
            shapes = [Partition.from_string(name) for name in trail.split("|")]
            assert len(shapes) == steps + 1
            content = _last_content(shapes[-2], shapes[-1], alpha)
            for r in range(2 * r_max + 1):
                power_sums[r] += content**r
            finals[str(shapes[-1])] = finals.get(str(shapes[-1]), 0) + 1
        assert stats.occupancy == tuple(sorted(finals.items()))
        for m in stats.moments:
            mean = power_sums[m.r] / paths
            variance = power_sums[2 * m.r] / paths - mean * mean
            assert m.estimate == float(mean), (seed, m.r)
            assert m.std_error == math.sqrt(float(variance) / paths), (seed, m.r)


def _splitmix64(seed: int, path: int, step: int) -> int:
    """The scalar draw: splitmix64's output function over the counter
    seed·MIX2 + path·MIX1 + (step + 1)·GAMMA, modulo 2^64."""
    mask = 2**64 - 1
    z = (seed * 0x94D049BB133111EB + path * 0xBF58476D1CE4E5B9 + (step + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def test_draw_matches_reference_splitmix64():
    # Vigna's splitmix64 from state 0 begins with these three outputs;
    # seed 0, path 0 starts at state 0 and step s takes output s + 1.
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [_unpack(z, 1)[0] for z in islice(_lane_draws(0, 0, 1), 3)] == want
    assert [_unpack(z, _BLOCK)[0] for z in islice(_lane_draws(0, 0, _BLOCK), 3)] == want
    assert [_splitmix64(0, 0, s) for s in range(3)] == want


@pytest.mark.parametrize("seed", (0, 2026, -5, 2**70 + 3))
@pytest.mark.parametrize(
    "first,n", ((0, 1), (0, 37), (0, _BLOCK), (3 * _BLOCK, _BLOCK), (5 * _BLOCK + 11, 300))
)
def test_lane_draws_match_the_scalar_formula(seed, first, n):
    packed = list(islice(_lane_draws(seed, first, n), 20))
    for step in (0, 1, 19):
        want = [_splitmix64(seed, path, step) for path in range(first, first + n)]
        assert _unpack(packed[step], n) == want, step
        # every lane is masked to its 64 bits, and no lane lies above n
        assert packed[step] == sum(z << 128 * i for i, z in enumerate(want)), step


def _sample_peak_bytes(steps: int, start: Partition, paths: int) -> int:
    tracemalloc.start()
    try:
        sample_growth(steps=steps, alpha=Fraction(1, 2), paths=paths, seed=3, start=start)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_does_not_grow_with_paths():
    # A block's draws are freed before the next block's, so 8 blocks peak
    # within a small fixed margin of 1 (a few hundred bytes apart when
    # written; a draw list kept over into the next block adds about 45 KB,
    # and 8 bytes kept per path would add 57 KB).  One step from 4,2,1 is
    # counted by lanes, whose offsets are built once per call.  A first
    # call keeps one-time allocations out of both measurements; the state
    # graph itself is rebuilt by every call, as no memo holds it.
    for steps, start in ((4, EMPTY), (1, Partition((4, 2, 1)))):
        sample_growth(steps=steps, alpha=Fraction(1, 2), paths=1, seed=3, start=start)
        one, eight = _sample_peak_bytes(steps, start, _BLOCK), _sample_peak_bytes(steps, start, 8 * _BLOCK)
        assert eight <= one + 32 * 1024, (steps, one, eight)


@pytest.mark.parametrize(
    "start,steps",
    (
        (EMPTY, 1),
        (EMPTY, 2),
        (Partition((4, 2, 1)), 1),
        (Partition((2, 2)), 1),
        (Partition((6, 5, 4, 3, 2, 1)), 1),
        (Partition((1,) * 12), 1),
    ),
)
@pytest.mark.parametrize("alpha", (Fraction(1), Fraction(1, 2), Fraction(7, 3)))
def test_lane_count_matches_the_per_path_count(start, steps, alpha):
    # A path trail in every block keeps the per-path bisection; without
    # trails the last step from the lone shape is counted by lanes.
    for paths in (1, 37, _BLOCK, 3 * _BLOCK + 5):
        for seed in (0, -5, 2**70 + 3):
            args = dict(steps=steps, alpha=alpha, paths=paths, seed=seed, start=start)
            per_path = sample_growth(**args, dump_paths=True, dump_cap=paths)
            by_lanes = sample_growth(**args)
            assert by_lanes.moments == per_path.moments, (paths, seed)
            assert by_lanes.occupancy == per_path.occupancy, (paths, seed)


def test_lane_count_at_draws_on_the_thresholds(fresh_memos, monkeypatch):
    # The atoms of 2,1 are set so that the first threshold is the lower of
    # the draws of paths 0 and 1 and the second one above the higher: random
    # draws almost never meet a threshold, so only this tells z ≥ t from z > t.
    lo, hi = sorted(_splitmix64(0, path, 0) for path in range(2))
    row_values = moments._pieri_row_values
    word = 2**64

    def on_the_draws(la, a, b):
        if la.parts == (2, 1):
            return [(lo, word), (hi + 1 - lo, word), (word - hi - 1, word)]
        return row_values(la, a, b)

    monkeypatch.setattr(moments, "_pieri_row_values", on_the_draws)
    args = dict(steps=1, alpha=Fraction(1), paths=37, seed=0, start=Partition((2, 1)))
    per_path = sample_growth(**args, dump_paths=True, dump_cap=37)
    assert per_path.path_dump[:2] == ("2,1|2,2", "2,1|2,2")  # both on row 2
    assert sample_growth(**args).occupancy == per_path.occupancy


def test_lane_count_of_a_zero_weight_atom(fresh_memos, monkeypatch):
    # Row 1 of the shape 1 gets weight 0, so its threshold is 0 and every
    # lane, also those above a partial block's paths, has z ≥ 0.
    row_values = moments._pieri_row_values

    def first_row_empty(la, a, b):
        return [(0, 1), (1, 1)] if la.parts == (1,) else row_values(la, a, b)

    monkeypatch.setattr(moments, "_pieri_row_values", first_row_empty)
    for paths in (37, _BLOCK + 37):
        stats = sample_growth(steps=2, alpha=Fraction(1), paths=paths, seed=0)
        assert stats.occupancy == (("1,1", paths),)


# The (shape, alpha) memos that the two tests below exercise.
ALPHA_KEYED_MEMOS = (moments._pieri_weights, moments._corner_weights, moment_table)


def test_memo_tests_cover_every_alpha_keyed_memo():
    # alpha_keyed_memo returns a plain function carrying its lru_cache's
    # cache_info; an lru_cache wrapper itself is no plain function.
    found = {
        value
        for info in pkgutil.iter_modules(ycalc.__path__, "ycalc.")
        for value in vars(importlib.import_module(info.name)).values()
        if isinstance(value, types.FunctionType) and hasattr(value, "cache_info")
    }
    assert found == set(ALPHA_KEYED_MEMOS)


def test_alpha_keyed_memos_stay_bounded(fresh_memos):
    # Each half makes MEMO_SIZE new (shape, alpha) keys, so the memos are
    # full after the first half and the second half only replaces entries.
    # Unbounded memos would double the traced memory; the bounded ones
    # stay within a few dict resizes (about 77 KB of 2.3 MB when written).
    shapes = (Partition((1,)), Partition((2,)))

    def run(denominator):
        for k in range(1000, 1000 + MEMO_SIZE // len(shapes)):
            alpha = Fraction(k, denominator)
            for la in shapes:
                pieri_coefficients(la, alpha)
                corner_binomials(la, alpha)
                moment_table(la, alpha).c_rows(1)
                dimension(la, alpha)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first, second = run(997), run(991)
    finally:
        tracemalloc.stop()
    for memo in ALPHA_KEYED_MEMOS:
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= MEMO_SIZE, (memo, info)
    assert second <= first + first // 10, (first, second)


def test_alpha_keyed_memo_hits_hash_no_fraction(fresh_memos, monkeypatch):
    # The memos key alpha = a/b by the ints a and b, so a warm hit runs
    # Partition's kept hash and no Fraction.__hash__.
    la, alpha = Partition((3, 1)), Fraction(3, 5)
    for memo in ALPHA_KEYED_MEMOS:
        memo(la, alpha)
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: hashed.append(self) or fraction_hash(self))
    for memo in ALPHA_KEYED_MEMOS:
        hits = memo.cache_info().hits
        memo(la, alpha)
        assert (memo.cache_info().hits - hits, hashed) == (1, []), memo
    dimension(la, alpha)
    assert hashed == []


def _trail_from_draws(seed: int, path: int, start: Partition, alpha, steps: int) -> str:
    """One path rebuilt from its draws: the first row whose cumulative
    weight num/den satisfies u·den < num·2^64."""
    shape, names = start, [str(start)]
    for step in range(steps):
        u = _splitmix64(seed, path, step)
        acc = Fraction(0)
        for row, p in pieri_coefficients(shape, alpha):
            acc += p
            if u * acc.denominator < acc.numerator << 64:
                break
        shape = shape.add_cell(row)
        names.append(str(shape))
    return "|".join(names)


def test_sampler_paths_are_invariant_under_reordering():
    alpha, start, steps, paths, seed = Fraction(3, 5), Partition((1,)), 5, 60, 2026
    stats = sample_growth(
        steps=steps, alpha=alpha, paths=paths, seed=seed, start=start, dump_paths=True
    )
    rebuilt = {p: _trail_from_draws(seed, p, start, alpha, steps) for p in reversed(range(paths))}
    assert stats.path_dump == tuple(rebuilt[p] for p in range(paths))


def test_sampler_argument_errors():
    with pytest.raises(ValueError, match="steps must be positive"):
        sample_growth(steps=0, alpha=Fraction(1), paths=1, seed=0)
    with pytest.raises(ValueError, match="paths must be positive"):
        sample_growth(steps=1, alpha=Fraction(1), paths=0, seed=0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        sample_growth(steps=1, alpha=Fraction(-1), paths=1, seed=0)

