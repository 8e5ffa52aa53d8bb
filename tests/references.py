"""Fraction-loop and plain-loop references that several test modules share.

They run apart from the kernels of ycalc they check, so a fault in a
kernel cannot hide in the reference it is checked against.
"""

import math
from fractions import Fraction

from ycalc.moments import pieri_coefficients
from ycalc.partitions import EMPTY, enumerate_partitions, partitions_upto, z_of
from ycalc.series import comb_int


def linear_ratio_reference(num, den, order):
    """[c_0 .. c_order], the coefficients of prod_a (1 + a t) / prod_b (1 + b t)
    mod t^(order+1) over a in num, b in den: one Fraction multiply-add per
    coefficient and factor."""
    cs = [Fraction(0)] * (order + 1)
    cs[0] = Fraction(1)
    for a in num:
        if a:
            for i in range(order, 0, -1):
                cs[i] += a * cs[i - 1]
    for b in den:
        if b:
            for i in range(1, order + 1):
                cs[i] -= b * cs[i - 1]
    return cs


def content_ratio_reference(la, alpha, y, order):
    """[c_0 .. c_order], the coefficients in t = 1/x of
    (x+y+1)_la (x)_la / ((x+y)_la (x+1)_la), one cell at a time: the cell
    in row i, column j (from 1) has alpha-content u = (j-1) - (i-1)/alpha
    and gives (x+y+1+u)(x+u) / ((x+y+u)(x+1+u)), and x + v = x (1 + v t)."""
    contents = [Fraction(j) - Fraction(i) / alpha for i, part in enumerate(la.parts) for j in range(part)]
    return linear_ratio_reference(
        [y + 1 + u for u in contents] + contents, [y + u for u in contents] + [1 + u for u in contents], order
    )


def dimension_reference(n_max, alpha):
    """{la: dim(la)} for every shape of weight <= n_max by the covering
    recurrence dim(La) = sum kappa dim(la) over the shapes la that La
    covers, kappa the Fraction Pieri weight of the row added to la, folded
    bottom-up from dim(empty) = 1."""
    dims = {EMPTY: Fraction(1)}
    for la in partitions_upto(n_max - 1):
        for row, kappa in pieri_coefficients(la, alpha):
            above = la.add_cell(row)
            dims[above] = dims.get(above, 0) + kappa * dims[la]
    return dims


def c_rows_reference(c_formula, power_sum, a, r_max):
    """[C[0] .. C[r_max]] of one moment table, each term (e0, mu) -> v of
    c_formula(r)[e] evaluated as v |la|^e0 P_mu a^(r-|mu|) one dict entry
    at a time, with power_sum(0) = |la| and power_sum(k) = P_k."""
    rows = []
    for r in range(r_max + 1):
        row = []
        for terms in c_formula(r):
            total = 0
            for (e0, mu), v in terms.items():
                total += v * power_sum(0) ** e0 * math.prod(power_sum(k) for k in mu) * a ** (r - sum(mu))
            row.append(total)
        rows.append(tuple(row))
    return rows


def formula_value_reference(terms, power_sum):
    """sum of v |la|^e0 P_mu over the terms (e0, mu) -> v of one shape-free
    polynomial, one dict entry at a time, with power_sum(0) = |la| and
    power_sum(k) = P_k."""
    return sum(v * power_sum(0) ** e0 * math.prod(power_sum(k) for k in mu) for (e0, mu), v in terms.items())


def s_regrouped_reference(u_table, power_sum, weight, a, b, r_max):
    """[R_0 .. R_r_max], the u regrouping of s_r over a^r r! (alpha = a/b),
    one row (i, j, k, terms) of u_table(r) at a time: the row adds
    (a b)^i (a-b)^(r-2i-j) (r!/j!) C(|la|+i-1, i-k) times the sum of
    u (j!/z_rho) P_rho over its terms (index of rho among
    enumerate_partitions(j), u), with P_rho formed one power_sum(part)
    at a time and weight = |la|."""
    out = []
    for r in range(r_max + 1):
        total = 0
        for i, j, k, terms in u_table(r):
            rhos = enumerate_partitions(j)
            inner = sum(u * (math.factorial(j) // z_of(rhos[idx])) * math.prod(power_sum(part) for part in rhos[idx].parts) for idx, u in terms)
            scale = (a * b) ** i * (a - b) ** (r - 2 * i - j) * (math.factorial(r) // math.factorial(j))
            total += scale * comb_int(weight + i - 1, i - k) * inner
        out.append(total)
    return out
