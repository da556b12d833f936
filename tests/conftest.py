"""Shared independent oracles for the test suite.

These deliberately avoid the library's own closed-form machinery: Hilbert
symbols and local isotropy are checked by exhaustive primitive-solution
searches modulo p^(3 + 2*v_p(2)), which certify the p-adic answer for
squarefree integer data by Hensel's lemma; finite-field isotropy is checked
by brute-force vector enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _rotate(mask: int, shift: int, width: int) -> int:
    shift %= width
    full = (1 << width) - 1
    return ((mask << shift) | (mask >> (width - shift))) & full


def primitive_zero_mod(entries, p: int) -> bool:
    """Whether sum a_i x_i^2 = 0 (mod p^(3+2*v_p(2))) has a primitive root.

    Exact for squarefree integer entries: a primitive solution at this
    modulus lifts to Z_p by Hensel, and a Z_p solution reduces to one.
    Residue sets reachable with/without a unit coordinate are tracked as
    bitmasks; adding c modulo m is a cyclic shift.
    """
    m = p ** (5 if p == 2 else 3)
    reach_nounit = 1  # only residue 0, no unit coordinate used yet
    reach_unit = 0
    for a in entries:
        any_c = set()
        unit_c = set()
        for x in range(m):
            c = (a * x * x) % m
            any_c.add(c)
            if x % p:
                unit_c.add(c)
        new_unit = 0
        new_nounit = 0
        for c in any_c:
            new_unit |= _rotate(reach_unit, c, m)
            new_nounit |= _rotate(reach_nounit, c, m)
        for c in unit_c:
            new_unit |= _rotate(reach_nounit, c, m)
        reach_unit, reach_nounit = new_unit, new_nounit
    return bool(reach_unit & 1)


def hilbert_oracle(a: int, b: int, p: int) -> int:
    """(a, b)_p by searching z^2 = a*x^2 + b*y^2 for a primitive solution."""
    return 1 if primitive_zero_mod([1, -a, -b], p) else -1


def real_hilbert_symbol(a, b) -> int:
    return -1 if a < 0 and b < 0 else 1


def gf_isotropy_oracle(entries, F) -> bool:
    """Whether a diagonal form over the finite field F has a nonzero zero,
    searching every vector over ``F.elements()``."""
    entries = [F.coerce(a) for a in entries]
    for vec in itertools.product(list(F.elements()), repeat=len(entries)):
        if any(vec) and not sum((a * x * x for a, x in zip(entries, vec)),
                                F.zero()):
            return True
    return False


HILBERT_CORPUS = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10, 15, -15, 30, -30]
HILBERT_PRIMES = [2, 3, 5, 7]


def count_fraction_arithmetic(monkeypatch) -> list:
    """Record the name of every Fraction + - * / call until the patch is
    undone."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        def counting(self, other, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(Fraction, name, counting)
    return calls


# one line per acceptance criterion, echoed after the test run
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
