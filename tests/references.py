"""Fraction-loop references that several test modules share.

They run on Fractions, apart from the integer kernels of ycalc, so a fault
in a kernel cannot hide in the reference it is checked against.
"""

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
