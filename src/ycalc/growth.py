"""Markov growth of Young diagrams: up/down kernels and a seeded sampler.

The up kernel on a shape is the row-weight family from `moments`; the
down kernel divides the corner weights by the cell count.  Both are exact
probability vectors, tuples of atoms (row, probability).  A dimension
function satisfies dim(Λ) = Σ κ·dim(λ) over shapes covered by Λ, with κ
the up-kernel weight of the added row; the down kernel must then factor
as κ · dim(λ)/dim(Λ), which is checked rather than assumed.  Each
dimension is computed once per (shape, alpha), from the kept dimensions
of the shapes it covers (`_dimension_slot`).

The Monte Carlo sampler is deterministic per (seed, path index).  The
draw for step s of path p is splitmix64's output function over the
counter seed·_MIX2 + p·_MIX1 + (s + 1)·_GAMMA: each path reads its own
splitmix64 stream and step s takes output s + 1 of it.  No generator
state is carried from path to path, so the output is invariant under any
parallel split of the path range.

The sampler and the exact law read one state graph per call: level k has
a node per shape k up-steps from the start, with its exact mass, and
expanding a level gives each node its Pieri atoms, their thresholds and
links to its successors, the next level.  Paths run in blocks of up to
_BLOCK.  A block's counters are packed into one integer, one 64-bit value
per 128-bit lane, so each big-int operation of splitmix64 mixes every
path of the block at once (`_lane_draws`); a step of the block is then
one bisection and one link per path.  A last step from a lone shape (every
one-step walk) is counted by lanes: z + 2^64 - t has bit 64 set exactly
when z ≥ t, one add, mask and popcount per inner threshold t per block.
At alpha = a/b the cell added in row i of λ has content x/a with the
integer x = λ_i·a - (i-1)·b, so the paths' counts per atom of the last
step give integer power sums of x.  The exact reference is the law of x
(`_last_step_law`, which draws nothing): the masses one step before the
end, folded through their atoms as integer pairs over their lcm L, give
moment r as one integer Σ_x L·P(x)·x^r over L·a^r.  Floats appear only in the estimates, each
one int / int true division of the exact integer sums, which is
correctly rounded, so it equals the float of the Fraction.  The
variance's sign is tested on integers too.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .moments import _pieri_atoms, _position_weights, _power_sums, corner_binomials, pieri_coefficients
from .partitions import EMPTY, Partition, alpha_keyed_memo, check_alpha, enumerate_partitions
from .series import InvariantError, comb_int

# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and
# the two multipliers of its output function.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_WORD = 1 << 64
_MASK = _WORD - 1

# A block packs _BLOCK paths into one integer of 128-bit lanes, so a
# 64-bit lane times a 64-bit multiplier never carries into its neighbour.
# _UNIT holds 1 in every lane, _LANES the low 64 bits of every lane, and
# lane i of _GAMMA_LANES and _MIX1_INDEX the counter step _GAMMA and offset _MIX1·i.
_BLOCK = 1024
_UNIT = int.from_bytes(b"\x01".ljust(16, b"\0") * _BLOCK, "little")
_LANES = int.from_bytes(bytes(8 * [255] + 8 * [0]) * _BLOCK, "little")
_GAMMA_LANES = _GAMMA * _UNIT
_MIX1_INDEX = _MIX1 * int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_BLOCK)), "little")
# A block's bytes in native order, read as 64-bit words, hold lane i's low
# word at 2i if little-endian and at 2n - 1 - 2i if big-endian.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def cotransition_kernel(la: Partition, alpha) -> tuple[tuple[int, Fraction], ...]:
    """The down kernel: atoms (row, probability) over the removable rows,
    the corner weights divided by |la|."""
    alpha = check_alpha(alpha)
    if la.weight == 0:
        raise ValueError("no co-transition from the empty shape")
    w = la.weight
    return tuple((i, v / w) for i, v in corner_binomials(la, alpha))


@alpha_keyed_memo
def _dimension_slot(la: Partition, alpha: Fraction) -> list:
    """The memo of dimensions: a one-element list per (shape, alpha) that
    :func:`dimension` fills with dim(la) once, [None] until then."""
    return [None]


def dimension(la: Partition, alpha) -> Fraction:
    """dim(Λ) by the covering recurrence dim(Λ) = Σ κ·dim(λ) over the λ
    that Λ covers, κ the up-kernel weight of the row added to λ;
    dim(∅) = 1.

    Each (shape, alpha) is computed once: the walk goes down from la,
    weight by weight, only through shapes whose dimension is not yet kept,
    and then folds those bottom-up, one integer sum and one Fraction per
    shape.  The walk holds the slots it reached, so neither recursion
    depth nor the memo bound limits la."""
    alpha = check_alpha(alpha)
    slots = {}  # parts -> slot, for every shape the walk reached
    missing = []  # the shapes without a kept dimension, one level per weight
    level = {la.parts: la}
    while level:
        todo, below = [], {}
        for parts, mu in level.items():
            slot = slots[parts] = _dimension_slot(mu, alpha)
            if slot[0] is None:
                todo.append(mu)
                below.update((nu.parts, nu) for nu in map(mu.remove_cell, mu.removable_rows()))
        missing.append(todo)
        level = below
    for shapes in reversed(missing):
        for mu in shapes:
            num, den = (0, 1) if mu.weight else (1, 1)
            for i in mu.removable_rows():
                nu = mu.remove_cell(i)
                kappa = next(w for row, w in pieri_coefficients(nu, alpha) if row == i)
                dim = slots[nu.parts][0]
                k_den = kappa.denominator * dim.denominator
                num, den = num * k_den + kappa.numerator * dim.numerator * den, den * k_den
            slots[mu.parts][0] = Fraction(num, den)
    return slots[la.parts][0]


def cotransition_from_dimensions(la: Partition, alpha) -> tuple[tuple[int, Fraction], ...]:
    """Down kernel rebuilt as κ·dim(λ)/dim(Λ); must match the direct one."""
    alpha = check_alpha(alpha)
    if la.weight == 0:
        raise ValueError("no co-transition from the empty shape")
    dim_top = dimension(la, alpha)
    if dim_top == 0:
        raise InvariantError(f"dimension of {la} vanishes")
    atoms = []
    for i in la.removable_rows():
        below = la.remove_cell(i)
        kappa = dict(pieri_coefficients(below, alpha))[i]
        atoms.append((i, kappa * dimension(below, alpha) / dim_top))
    return tuple(atoms)


def cotransition_moment_routes(la: Partition, alpha, r_max: int) -> tuple[list[int], list[int], int]:
    """The r-th moment of the deleted content under the down kernel, for
    r = 0 .. r_max, computed twice, as (direct, combination, E) with both
    moments r the integer entries r over E a^r, alpha = a/b: straight
    from the atoms, and as the binomial combination
    (1/|Λ|) Σ_k (-1)^{r-k} C(r,k) σ_k(Λ) of corner moments, with
    σ_0 .. σ_{r_max} evaluated once.

    The corner atoms sit at positions x/a with weights v/D
    (`moments._position_weights`), and the deleted content is (x - a)/a.
    So the direct side sums v (x - a)^r, the combination side sums
    (-1)^{r-k} C(r,k) a^{r-k} T_k over the corner power sums T_k = Σ v x^k,
    and E = |Λ| D.
    """
    alpha = check_alpha(alpha)
    if la.weight == 0:
        raise ValueError("no co-transition from the empty shape")
    a = alpha.numerator
    pairs, big_d = _position_weights(corner_binomials, la, alpha)
    sigmas = _power_sums(pairs, r_max)
    direct = _power_sums(((x - a, v) for x, v in pairs), r_max)
    combo = [sum((-1) ** (r - k) * comb_int(r, k) * a ** (r - k) * sigmas[k] for k in range(r + 1)) for r in range(r_max + 1)]
    return direct, combo, la.weight * big_d


def tableau_counts(n_max: int) -> dict[Partition, int]:
    """Standard-tableau counts by the covering recurrence f(Λ) = Σ f(λ)."""
    f: dict[Partition, int] = {EMPTY: 1}
    for n in range(1, n_max + 1):
        for la in enumerate_partitions(n):
            f[la] = sum(f[la.remove_cell(i)] for i in la.removable_rows())
    return f


def plancherel_check(n_max: int) -> bool:
    """At alpha = 1 both kernels reduce to tableau-count ratios and the
    dimension function to f(λ)^2/|λ|!.  Raises on the first mismatch."""
    one = Fraction(1)
    f = tableau_counts(n_max + 1)
    for n in range(0, n_max + 1):
        for la in enumerate_partitions(n):
            for i, p in pieri_coefficients(la, one):
                above = la.add_cell(i)
                want = Fraction(f[above], (n + 1) * f[la])
                if p != want:
                    raise InvariantError(f"up kernel off at {la} row {i}")
            if n:
                for i, q in cotransition_kernel(la, one):
                    below = la.remove_cell(i)
                    want = Fraction(f[below], f[la])
                    if q != want:
                        raise InvariantError(f"down kernel off at {la} row {i}")
            want_dim = Fraction(f[la] ** 2, math.factorial(n))
            if dimension(la, one) != want_dim:
                raise InvariantError(f"dimension off at {la}")
    return True


class _Node:
    """A shape of the state graph and its mass; see :func:`_expand`."""

    __slots__ = ("la", "mass", "atoms", "cuts", "succ", "hits")

    def __init__(self, la: Partition, mass: Fraction | None = None):
        self.la, self.mass = la, mass


def _expand(level: dict[tuple[int, ...], _Node], alpha: Fraction) -> dict[tuple[int, ...], _Node]:
    """The next level of the state graph.  Each node of `level` gets its
    checked integer Pieri atoms (row, p_num, p_den) from `_pieri_atoms`,
    their cumulative weights w as integer thresholds t = ceil(w·2^64)
    (for an integer u, u < t exactly when u < w·2^64, so the first
    threshold above a 64-bit draw selects the atom; the atoms sum to 1, so
    the last is 2^64) and one successor per atom, shared by parts, whose
    mass sums node.mass·p over the atoms into it: one unreduced integer
    pair while the level runs, one Fraction when it is done."""
    acc: dict[tuple[int, ...], list] = {}  # parts -> [successor, mass num, mass den]
    for parts, node in level.items():
        node.atoms = _pieri_atoms(node.la, alpha)
        padded = parts + (0,)
        m_num, m_den = node.mass.numerator, node.mass.denominator
        cuts, succ = [], []
        num, den = 0, 1
        for row, p_num, p_den in node.atoms:
            num, den = num * p_den + p_num * den, den * p_den
            cuts.append(-(-num * _WORD // den))
            # Pieri atoms sit on addable rows only, so `up` is a partition.
            up = parts[: row - 1] + (padded[row - 1] + 1,) + parts[row:]
            e_num, e_den = m_num * p_num, m_den * p_den
            entry = acc.get(up)
            if entry is None:
                entry = acc[up] = [_Node(Partition._trusted(up)), e_num, e_den]
            else:
                entry[1], entry[2] = entry[1] * e_den + e_num * entry[2], entry[2] * e_den
            succ.append(entry[0])
        node.cuts, node.succ = tuple(cuts), tuple(succ)
    for child, num, den in acc.values():
        child.mass = Fraction(num, den)
    return {up: entry[0] for up, entry in acc.items()}


class MomentStat(NamedTuple):
    r: int
    estimate: float
    exact: Fraction
    std_error: float


class SampleStats(NamedTuple):
    steps: int
    alpha: Fraction
    paths: int
    seed: int
    start: Partition
    moments: tuple[MomentStat, ...]
    occupancy: tuple[tuple[str, int], ...]
    path_dump: tuple[str, ...] | None


def _lane_draws(seed: int, first: int, n: int):
    """Yield, for step 0, 1, ..., the 64-bit draws of paths first ..
    first + n - 1 (n ≤ _BLOCK) packed, path first + i in lane i: splitmix64's
    output function over the counter seed·_MIX2 + path·_MIX1 + (step + 1)·_GAMMA.

    For a fixed (seed, path) the draws are the splitmix64 stream from
    state seed·_MIX2 + path·_MIX1; seed 0, path 0 is splitmix64 from 0.
    The three multipliers are distinct odd constants, so no small change
    of seed, path or step cancels a change of another.  Every shift
    drags the next lane's low bits into the top of each lane, so a lane
    is masked back to 64 bits before each multiply and before the yield.
    """
    lanes, unit, gamma, index = _LANES, _UNIT, _GAMMA_LANES, _MIX1_INDEX
    if n < _BLOCK:  # the last, partial block
        lanes, unit, gamma, index = (c & (1 << 128 * n) - 1 for c in (lanes, unit, gamma, index))
    ctr = ((seed * _MIX2 + first * _MIX1) & _MASK) * unit + index
    while True:
        ctr = (ctr + gamma) & lanes
        z = ((ctr ^ ctr >> 30) & lanes) * _MIX1 & lanes
        z = ((z ^ z >> 27) & lanes) * _MIX2 & lanes
        yield (z ^ z >> 31) & lanes


def _unpack(z: int, n: int) -> list[int]:
    """The n draws of a packed block as a list, lane by lane."""
    return memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()


def _last_step_law(level, alpha: Fraction, r_max: int) -> tuple[list[int], int]:
    """The exact law of the content x/a added by one up-step from a level
    of shapes, alpha = a/b, as its integer moments: (M, L) with moment r
    equal to M[r] / (L a^r).

    `level` yields (shape, mass, atoms), the atoms (row, p_num, p_den) of
    `moments._pieri_atoms`, and a mass with numerator and denominator.
    The masses are folded through their atoms as unreduced integer pairs
    per x, each pair is reduced, and L is the lcm of the reduced
    denominators, so M[r] = Σ_x L·P(x)·x^r.  The sampler reads its exact
    reference here, and moments-bridge reads the law of one step from one
    shape of mass 1."""
    a, b = alpha.numerator, alpha.denominator
    law: dict[int, tuple[int, int]] = {}  # x -> P(x), unreduced
    for la, mass, atoms in level:
        padded = la.parts + (0,)
        m_num, m_den = mass.numerator, mass.denominator
        for i, p_num, p_den in atoms:
            x = padded[i - 1] * a - (i - 1) * b
            num, den = law.get(x, (0, 1))
            law[x] = num * m_den * p_den + m_num * p_num * den, den * m_den * p_den
    law_den = 1
    for x, (num, den) in law.items():
        g = math.gcd(num, den)
        law[x] = num // g, den // g
        law_den = math.lcm(law_den, den // g)
    return _power_sums(((x, num * (law_den // den)) for x, (num, den) in law.items()), r_max), law_den


def sample_growth(
    steps: int,
    alpha,
    paths: int,
    seed: int,
    start: Partition = EMPTY,
    r_max: int = 4,
    dump_paths: bool = False,
    dump_cap: int = 10_000,
) -> SampleStats:
    """Run independent up-walks and compare final-step content moments
    against the exact law of the last added content (see the module
    docstring); for a single step from a fixed start the reference for
    moment r is s_r(start).
    """
    alpha = check_alpha(alpha)
    if steps < 1:
        raise ValueError("steps must be positive")
    if paths < 1:
        raise ValueError("paths must be positive")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")

    root = _Node(start, Fraction(1))
    last = {start.parts: root}  # the level one step before the end
    for _ in range(steps - 1):
        last = _expand(last, alpha)
    _expand(last, alpha)  # the last step's atoms and final shapes
    for node in last.values():
        node.hits = [0] * len(node.atoms)  # paths whose last step took each atom
    dump: list[str] | None = [] if dump_paths else None
    lone = next(iter(last.values())) if len(last) == 1 else None
    offsets = [(_WORD - t) * _UNIT for t in lone.cuts[:-1]] if lone is not None else []
    tops = _UNIT << 64

    for first in range(0, paths, _BLOCK):
        n = min(_BLOCK, paths - first)
        draws = _lane_draws(seed, first, n)
        # trails of the block's paths below dump_cap
        trails = [[str(start)] for _ in range(first, min(first + n, dump_cap))] if dump is not None else []
        if lone is not None and not trails:
            z = next(islice(draws, steps - 1, None))
            if n < _BLOCK:  # only the last block is partial
                tops &= (1 << 128 * n) - 1
            at_least = [n, *[((z + offset) & tops).bit_count() for offset in offsets], 0]
            lone.hits = [h + ge - gt for h, ge, gt in zip(lone.hits, at_least, at_least[1:])]
            continue
        nodes = [root] * n
        for _ in range(steps - 1):
            nodes = [node.succ[bisect_right(node.cuts, z)] for node, z in zip(nodes, _unpack(next(draws), n))]
            for trail, node in zip(trails, nodes):
                trail.append(str(node.la))
        zs = _unpack(next(draws), n)
        for node, z in zip(nodes, zs):
            node.hits[bisect_right(node.cuts, z)] += 1
        for trail, node, z in zip(trails, nodes, zs):
            trail.append(str(node.succ[bisect_right(node.cuts, z)].la))
            dump.append("|".join(trail))
        del zs  # else it lives on beside the next block's draws

    a, b = alpha.numerator, alpha.denominator
    tally: dict[int, int] = {}  # sampled content numerator -> paths
    occupancy: dict[str, int] = {}
    for node in last.values():
        padded = node.la.parts + (0,)
        for (i, _, _), hits, child in zip(node.atoms, node.hits, node.succ):
            if hits:
                x = padded[i - 1] * a - (i - 1) * b
                tally[x] = tally.get(x, 0) + hits
                occupancy[str(child.la)] = occupancy.get(str(child.la), 0) + hits
    power_nums = _power_sums(tally.items(), 2 * r_max)
    exact_nums, law_den = _last_step_law(((node.la, node.mass, node.atoms) for node in last.values()), alpha, r_max)

    # int / int is correctly rounded, so each float is that of the Fraction
    moments = []
    for r in range(0, r_max + 1):
        exact = Fraction(exact_nums[r], law_den * a**r)
        scale = paths * a**r
        variance = paths * power_nums[2 * r] - power_nums[r] ** 2  # over scale^2
        if variance < 0:
            raise InvariantError(f"negative variance of moment {r}")
        se = math.sqrt(variance / (scale * scale) / paths)
        moments.append(MomentStat(r, power_nums[r] / scale, exact, se))

    occ = tuple(sorted(occupancy.items()))
    return SampleStats(
        steps=steps,
        alpha=alpha,
        paths=paths,
        seed=seed,
        start=start,
        moments=tuple(moments),
        occupancy=occ,
        path_dump=tuple(dump) if dump is not None else None,
    )
