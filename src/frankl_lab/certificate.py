"""Dual certificate for the O(a^2) upper bound on f(n,a), in exact rationals.

f(n,a) is the maximum size of a union-closed family on [n] in which every
element belongs to at most a members.  Its integer program has one 0/1
variable x_S per subset S, union rows x_S + x_T - x_{S u T} <= 1, and
frequency rows sum_{S : e in S} x_S <= a.  A nonnegative combination of
those rows whose per-variable coefficient is >= 1 everywhere bounds the
LP relaxation, hence f itself.

The certificate built here uses three multipliers:

    alpha = 1 - 2*C(n-1,2) / (3 + 3*C(n-1,2)) = (n^2 - 3n + 8) / (3n^2 - 9n + 12)
    beta  = 2 / (3 + 3*C(n-1,2))              = 4 / (3n^2 - 9n + 12)
    gamma = (1/C(n-2,2)) * (-1 + 2(n-2)^2 / (3 + 3*C(n-1,2)))

applied as: alpha on each of the n frequency rows, beta on each union row
whose pair has sizes (1,2) and union size 3, gamma on each union row with
sizes (2,2) and union size 4, plus 1 on the box row x_emptyset <= 1.
A set of size k then collects the coefficient

    c_0 = 1                                    (the box row only)
    c_1 = alpha + C(n-1,2)*beta          = 1   (exactly, any n >= 5)
    c_2 = 2*alpha + (n-2)*beta + C(n-2,2)*gamma = 1   (exactly)
    c_3 = 3*alpha - 3*beta               = 1   (exactly)
    c_4 = 4*alpha - 3*gamma              >= 1  for n >= 7
    c_k = k*alpha                        >= 1  for k >= 5

(a k-element set meets k frequency rows, so the k >= 5 coefficient is
k*alpha; since k*alpha >= 5*alpha >= 1 the bound is unaffected by the
choice between k*alpha and the weaker constant 5*alpha).

All multipliers are nonnegative exactly when n >= 7 (gamma changes sign
there), and the certified value is

    fbar(n, a) = n*a*alpha + 3*C(n,3)*beta + 3*C(n,4)*gamma + 1

with the diagonal closed form
fbar(a, a) = (5a^4 - 12a^3 + 31a^2 - 24a + 48) / (12(a^2 - 3a + 4)).

Everything here is exact: multipliers are ints or `fractions.Fraction`
values, never floats, so "c_k >= 1" checks are proofs.  For k >= 5 the
check is decided in integers: with alpha = p/q in lowest terms (q > 0),
c_k - 1 = (k*p - q)/q, so c_k >= 1 exactly when k*p >= q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import NamedTuple


@dataclass(frozen=True)
class DualCertificate:
    """The three multipliers for one ground size, and the per-cardinality
    coefficients they give.

    Construction refuses what cannot be checked exactly: n must be an int
    >= 5, the range `make_certificate` builds, and each multiplier an int
    or a `Fraction`; a float or a bool raises `ValueError` naming the
    field."""

    n: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 5:
            raise ValueError(f"n must be an int >= 5, got {self.n!r}")
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")

    def _low_coefficients(self) -> tuple[Fraction, ...]:
        """c_0..c_4, the coefficients the box and union rows shape."""
        n, alpha, beta, gamma = self.n, self.alpha, self.beta, self.gamma
        return (
            Fraction(1),
            alpha + comb(n - 1, 2) * beta,
            2 * alpha + (n - 2) * beta + comb(n - 2, 2) * gamma,
            3 * alpha - 3 * beta,
            4 * alpha - 3 * gamma,
        )

    @cached_property
    def coefficients(self) -> dict[int, Fraction]:
        """c_k, the coefficient a k-element set collects, for k = 0..n."""
        coeff = dict(enumerate(self._low_coefficients()))
        for k in range(5, self.n + 1):
            coeff[k] = k * self.alpha
        return coeff

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "coefficients": {str(k): str(v) for k, v in sorted(self.coefficients.items())},
        }


class CertificateCheck(NamedTuple):
    name: str
    passed: bool
    slack: Fraction  # exact margin; for equality checks this is value - target

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "slack": str(self.slack)}


@dataclass(frozen=True)
class CertificateReport:
    n: int
    checks: tuple[CertificateCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "notes": list(self.notes),
        }


def _multipliers(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) for ground size n >= 5, self-tested against
    their expanded polynomial forms."""
    if n <= 4:
        raise ValueError(f"certificate needs n >= 5 (gamma is undefined at n <= 3, and at "
                         f"n <= 4 f comes exactly from the search kernel), got {n}")
    denom = 3 + 3 * comb(n - 1, 2)
    alpha = 1 - Fraction(2 * comb(n - 1, 2), denom)
    beta = Fraction(2, denom)
    gamma = Fraction(1, comb(n - 2, 2)) * (-1 + Fraction(2 * (n - 2) ** 2, denom))
    # self-test: the expanded polynomial forms must agree with the
    # binomial forms above
    poly = 3 * n * n - 9 * n + 12
    if alpha != Fraction(n * n - 3 * n + 8, poly) or beta != Fraction(4, poly):
        raise AssertionError("certificate multiplier forms disagree")
    return alpha, beta, gamma


def make_certificate(n: int) -> DualCertificate:
    """Build the exact certificate for ground size n >= 5.

    n <= 4 is rejected: C(n-2,2) = 0 leaves gamma undefined at n <= 3, and
    at n = 4, where gamma = -1/3, f comes exactly from the search kernel.  The bound
    itself is only valid for n >= 7 (gamma < 0 below that); `bar_f`
    enforces the stronger guard.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    return DualCertificate(n, *_multipliers(n))


def verify_certificate(cert: DualCertificate) -> CertificateReport:
    """Check every coefficient identity and sign condition, exactly.

    Failures are report entries, never exceptions: gamma < 0 (any n < 7)
    is flagged, with the exact rational slack recorded per check.  The
    coefficient table `cert.coefficients` is not built: c_0..c_4 are
    computed directly, and each c_k >= 1 for k >= 5 is decided as
    k*p >= q, with slack (k*p - q)/q.
    """
    one = Fraction(1)
    *unit, c4 = cert._low_coefficients()
    checks = [CertificateCheck(f"c_{k} == 1", ck == one, ck - one) for k, ck in enumerate(unit)]
    checks.append(CertificateCheck("c_4 >= 1", c4 >= one, c4 - one))
    p, q = cert.alpha.numerator, cert.alpha.denominator
    checks += [CertificateCheck(f"c_{k} >= 1", k * p >= q, Fraction(k * p - q, q))
               for k in range(5, cert.n + 1)]
    checks.append(CertificateCheck("alpha >= 0", cert.alpha >= 0, cert.alpha))
    checks.append(CertificateCheck("beta >= 0", cert.beta >= 0, cert.beta))
    checks.append(CertificateCheck("gamma >= 0", cert.gamma >= 0, cert.gamma))
    notes: list[str] = []
    if cert.gamma < 0:
        notes.append(
            f"gamma = {cert.gamma} < 0 at n = {cert.n}: the multipliers are only "
            "a valid dual vector for n >= 7"
        )
    return CertificateReport(cert.n, tuple(checks), tuple(notes))


def bar_f(n: int, a: int) -> Fraction:
    """Certified upper bound fbar(n, a); exact, valid for n >= 7, a >= 1."""
    if type(n) is not int or type(a) is not int:
        raise ValueError(f"n and a must be ints, got {n!r} and {a!r}")
    if n < 7:
        raise ValueError(f"bound invalid below n = 7 (gamma < 0), got n = {n}")
    if a < 1:
        raise ValueError(f"frequency cap must be >= 1, got {a}")
    alpha, beta, gamma = _multipliers(n)
    return n * a * alpha + 3 * comb(n, 3) * beta + 3 * comb(n, 4) * gamma + 1


def bar_f_diag(a: int) -> Fraction:
    """Diagonal closed form; equals bar_f(a, a) exactly for every a >= 7."""
    if type(a) is not int:
        raise ValueError(f"a must be an int, got {a!r}")
    if a < 7:
        raise ValueError(f"diagonal bound needs a >= 7, got {a}")
    num = 5 * a**4 - 12 * a**3 + 31 * a**2 - 24 * a + 48
    den = 12 * (a**2 - 3 * a + 4)
    return Fraction(num, den)


# Exact evaluation of bar_f_diag(9) is 1100/29, whose floor is 37; the
# value 36 that is sometimes quoted for this entry is inconsistent with
# exact arithmetic (1100/29 ~ 37.93).
A9_NOTE = (
    "a=9: exact value 1100/29 (~37.93) floors to 37; "
    "the occasionally quoted 36 disagrees with exact evaluation"
)


@dataclass(frozen=True)
class BoundTable:
    rows: tuple[tuple[int, int], ...]  # (a, floor(bar_f_diag(a)))
    notes: tuple[str, ...] = ()


def bound_table(a_from: int, a_to: int) -> BoundTable:
    """Rows (a, floor(fbar(a,a))) for a_from <= a <= a_to, floors exact."""
    if type(a_from) is not int or type(a_to) is not int:
        raise ValueError(f"a_from and a_to must be ints, got {a_from!r} and {a_to!r}")
    if not 7 <= a_from <= a_to:
        raise ValueError(f"need 7 <= a_from <= a_to, got [{a_from}, {a_to}]")
    rows = tuple((a, math.floor(bar_f_diag(a))) for a in range(a_from, a_to + 1))
    notes = (A9_NOTE,) if a_from <= 9 <= a_to else ()
    return BoundTable(rows, notes)
