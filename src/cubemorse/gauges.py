"""Sublinear gauges and the trapping radii kappa and kappa' they set.

A gauge r -> rho(r) is compared with rationals exactly, and its escape
threshold, the least R past which rho(r) <= slope*r, is found exactly or
bracketed within 2**-32. kappa and kappa' are the radii of the divergence
dichotomy in cubemorse.constructions. Nothing here touches the group, so
the kappa command loads no wall or escape-path layer.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Callable, Optional, Union

from .raag import ConfigError
from .records import _Record


RhoLike = Union["SublinearFn", int, Fraction, str]


class SublinearFn(_Record):
    """A non-decreasing sublinear gauge r -> rho(r) with exact comparisons.

    Three kinds: "constant" is rho = a, "power" is rho = a * r**alpha with
    0 <= alpha < 1, and "log" is rho = a * log(1 + r). Comparisons against
    rationals are decided in exact rational arithmetic for the first two
    kinds. The log kind escalates working precision until the sign is
    certain; a rational target never ties a*log(1+r) at r > 0, so this
    terminates.
    """

    kind: str
    a: Fraction
    alpha: Fraction

    def __init__(self, kind: str, a, alpha=0) -> None:
        if kind not in ("constant", "power", "log"):
            raise ConfigError(f"unknown gauge kind: {kind!r}")
        super().__init__(kind, Fraction(a), Fraction(alpha))
        if self.a < 0:
            raise ConfigError("gauge scale must be nonnegative")
        if self.kind == "power":
            if not 0 <= self.alpha < 1:
                raise ConfigError("power exponent must satisfy 0 <= alpha < 1")
        elif self.alpha != 0:
            raise ConfigError("alpha only applies to the power kind")

    @classmethod
    def constant(cls, c) -> "SublinearFn":
        return cls("constant", Fraction(c))

    @classmethod
    def power(cls, a, alpha) -> "SublinearFn":
        return cls("power", Fraction(a), Fraction(alpha))

    @classmethod
    def log(cls, a) -> "SublinearFn":
        return cls("log", Fraction(a))

    @classmethod
    def from_text(cls, text: str) -> "SublinearFn":
        """Parse "const 3", "power 2 1/2", "log 3"; a bare number is a
        constant."""
        parts = text.replace(":", " ").split()
        if not parts:
            raise ConfigError("empty gauge spec")
        head = parts[0].lower()
        try:
            if head in ("const", "constant"):
                (val,) = parts[1:]
                return cls.constant(Fraction(val))
            if head == "power":
                a, alpha = parts[1:]
                return cls.power(Fraction(a), Fraction(alpha))
            if head == "log":
                (a,) = parts[1:]
                return cls.log(Fraction(a))
            (val,) = parts
            return cls.constant(Fraction(val))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad gauge spec {text!r}: {exc}") from None

    def text(self) -> str:
        if self.kind == "constant":
            return f"const {self.a}"
        if self.kind == "power":
            return f"power {self.a} {self.alpha}"
        return f"log {self.a}"

    def cmp_at(self, r, m) -> int:
        """Sign of rho(r) - m, exact. r must be >= 0."""
        r, m = Fraction(r), Fraction(m)
        if r < 0:
            raise ValueError("gauge argument must be nonnegative")
        if self.kind == "constant" or (self.kind == "power" and self.alpha == 0):
            return _sign(self.a - m)
        if self.kind == "power":
            if r == 0 or self.a == 0:
                return _sign(-m)
            if m < 0:
                return 1
            p, q = self.alpha.numerator, self.alpha.denominator
            # a*r^(p/q) vs m, both nonnegative: compare q-th powers
            return _sign(self.a**q * r**p - m**q)
        # log kind
        if self.a == 0 or r == 0:
            return _sign(-m)
        if m <= 0:
            return 1
        return _log_cmp(r, m / self.a)

    def threshold(self, slope) -> Fraction:
        """Least R with rho(r) <= slope*r for all r >= R, reported as a
        certified upper bound within 2**-32 of the true value (exact for
        the constant kind, for thresholds that are exact rational roots,
        and for the slope-dominated log case)."""
        slope = Fraction(slope)
        if slope <= 0:
            raise ConfigError("threshold needs a positive slope")
        if self.kind == "constant" or (self.kind == "power" and self.alpha == 0):
            return self.a / slope
        if self.a == 0:
            return Fraction(0)
        if self.kind == "power":
            p, q = self.alpha.numerator, self.alpha.denominator
            # slope*R = a*R^alpha  <=>  R^(q-p) = (a/slope)^q
            target = (self.a / slope) ** q
            num, den = (_iroot_exact(v, q - p) for v in (target.numerator, target.denominator))
            if num is not None and den is not None:  # an exact rational root
                return Fraction(num, den)
            lo = Fraction(0)
        else:
            # log kind: slope*r - a*log(1+r) is increasing past a/slope - 1
            if slope >= self.a:
                return Fraction(0)
            lo = self.a / slope - 1

        def holds(R: Fraction) -> bool:
            return self.cmp_at(R, slope * R) <= 0

        hi = max(2 * lo, Fraction(1))
        while not holds(hi):
            hi *= 2
        return _bisect_up(holds, lo, hi)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _log_cmp(r: Fraction, target: Fraction) -> int:
    """Sign of log(1+r) - target for r > 0 and rational target.

    log(1+r) is irrational for rational r > 0, so the difference is never
    zero and precision escalation terminates. At p digits the five
    correctly rounded steps below each err by at most half a unit in the
    last place of a value no larger than the largest operand, so the sign
    is certain once |diff| exceeds 10**(adjusted + 3 - p)."""
    prec = 30
    while prec <= 4000:
        ctx = decimal.Context(prec=prec)
        hi = ctx.ln(r.numerator + r.denominator)
        lo = ctx.ln(r.denominator)
        t = ctx.divide(target.numerator, target.denominator)
        diff = ctx.subtract(ctx.subtract(hi, lo), t)
        adjusted = max(hi.adjusted(), lo.adjusted(), t.adjusted())
        if abs(diff) > decimal.Decimal(10) ** (adjusted + 3 - prec):
            return 1 if diff > 0 else -1
        prec *= 2
    raise ArithmeticError("log comparison did not resolve")


def _iroot_exact(v: int, n: int) -> Optional[int]:
    if v in (0, 1):
        return v
    lo, hi = 0, 1
    while hi**n < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == v else None


def _bisect_up(holds: Callable[[Fraction], bool], lo: Fraction, hi: Fraction) -> Fraction:
    """Shrink [lo, hi] with holds(hi) true and the predicate upward-closed
    on the bracket; returns hi as a certified bound."""
    eps = Fraction(1, 2**32)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def as_gauge(rho: RhoLike) -> SublinearFn:
    if isinstance(rho, SublinearFn):
        return rho
    if isinstance(rho, str):
        return SublinearFn.from_text(rho)
    return SublinearFn.constant(rho)


def kappa(rho: RhoLike, K, C) -> Fraction:
    """max(3K^2, 3C, 1 + the threshold past which rho(r) <= 3K^2 * r)."""
    rho = as_gauge(rho)
    K, C = Fraction(K), Fraction(C)
    if K < 1 or C < 0:
        raise ConfigError("need K >= 1 and C >= 0")
    slope = 3 * K * K
    return max(slope, 3 * C, 1 + rho.threshold(slope))


def kappa_prime(rho: RhoLike, K, C) -> Fraction:
    """(K^2 + 2) * (2*kappa + C), the neighbourhood radius of case (1)."""
    return _kappa_prime(kappa(rho, K, C), Fraction(K), Fraction(C))


def _kappa_prime(kap: Fraction, K: Fraction, C: Fraction) -> Fraction:
    return (K * K + 2) * (2 * kap + C)
