"""Local vectors written and read as rational entries, for the tests: a
LocalVector itself holds only integer numerators over one denominator."""

import math
from fractions import Fraction

from sqfrep.localmodel import LocalVector


def vector(modulus, values) -> LocalVector:
    """The LocalVector with the given rational entries, over their least
    common denominator."""
    values = [Fraction(v) for v in values]
    denominator = math.lcm(*(v.denominator for v in values))
    numerators = [v.numerator * (denominator // v.denominator) for v in values]
    return LocalVector(modulus, numerators, denominator)


def entries(vec: LocalVector) -> tuple:
    """The entries of vec as Fractions."""
    return tuple(Fraction(n, vec.denominator) for n in vec.numerators.tolist())
