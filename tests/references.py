"""Fraction-loop and plain-loop references that several test modules share.

They run apart from the kernels of ycalc they check, so a fault in a
kernel cannot hide in the reference it is checked against.
"""

import math
from fractions import Fraction


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
