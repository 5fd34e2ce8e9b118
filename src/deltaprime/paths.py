"""Joint squeezing rules for the barrier-well geometry.

A squeeze path fixes how the gap ``rho`` shrinks while the width ``l`` goes
to zero.  The zero-range limit of the pair depends on the chosen path, not
only on the limiting distribution.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import _real_fields

__all__ = ["SqueezePath", "BARRIER_FIRST", "ADJACENT", "POWER"]

BARRIER_FIRST = "barrier-first"
ADJACENT = "adjacent"
POWER = "power"


@record
class SqueezePath:
    """Rule rho(l) describing how the gap closes as the width shrinks.

    Variants:
        barrier-first: rho stays fixed while l -> 0,
        adjacent:      rho = 0 identically,
        power:         rho = c * l**tau.

    The constructor checks the kind and its fields: rho > 0 on
    barrier-first, c >= 0 and tau > 0 on a power law, each finite, and 0 in
    each field the kind does not read.  c = 0 gives the adjacent rule.
    """

    kind: str
    rho: float = 0.0
    c: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        _real_fields(self, "rho", "c", "tau")
        if self.kind == BARRIER_FIRST:
            if not 0 < self.rho < math.inf:
                raise ValueError("barrier-first separation must be positive "
                                 f"and finite, got {self.rho}")
        elif self.kind == POWER:
            if not 0 <= self.c < math.inf:
                raise ValueError(
                    f"path constant c must be finite and >= 0, got {self.c}")
            if not 0 < self.tau < math.inf:
                raise ValueError("path exponent tau must be positive and "
                                 f"finite, got {self.tau}")
        elif self.kind != ADJACENT:
            raise ValueError(f"unknown squeeze rule kind {self.kind!r}")
        if (self.kind != POWER and (self.c or self.tau)
                or self.kind != BARRIER_FIRST and self.rho):
            raise ValueError(f"{self!r} sets a field its kind does not read")
        if self.kind == POWER and self.c == 0:  # rho = 0 identically
            object.__setattr__(self, "kind", ADJACENT)
            object.__setattr__(self, "tau", 0.0)

    @classmethod
    def barrier_first(cls, rho: float) -> "SqueezePath":
        return cls(kind=BARRIER_FIRST, rho=rho)

    @classmethod
    def adjacent(cls) -> "SqueezePath":
        return cls(kind=ADJACENT)

    @classmethod
    def power_law(cls, c: float, tau: float) -> "SqueezePath":
        return cls(kind=POWER, c=c, tau=tau)

    @classmethod
    def parse(cls, spec: str) -> "SqueezePath":
        """Parse a path out of a compact string.

        Accepted forms: ``adjacent``, ``barrier-first:RHO``, ``linear[:C]``,
        ``quadratic[:C]`` and ``power:C:TAU``.  ``linear`` and ``quadratic``
        are power laws with tau = 1 and tau = 2 (C defaults to 1).
        """
        name, _, rest = spec.partition(":")
        try:
            if name == "adjacent" and not rest:
                return cls.adjacent()
            if name == "barrier-first":
                return cls.barrier_first(float(rest))
            if name == "linear":
                return cls.power_law(float(rest) if rest else 1.0, 1.0)
            if name == "quadratic":
                return cls.power_law(float(rest) if rest else 1.0, 2.0)
            if name == "power":
                c, tau = rest.split(":")
                return cls.power_law(float(c), float(tau))
        except ValueError as exc:
            raise ValueError(f"bad squeeze-path spec {spec!r}: {exc}") from None
        raise ValueError(f"bad squeeze-path spec {spec!r}")

    def rho_of(self, l):
        """Gap width at ``l``, a scalar or an array (a scalar on the rules
        with a constant gap); a :class:`ValueError` where it overflows."""
        if self.kind == BARRIER_FIRST:
            return self.rho
        if self.kind == ADJACENT:
            return 0.0
        # c > 0 and tau > 0: the gap is largest at the largest width
        top = float(l.max()) if hasattr(l, "max") else l
        try:
            gap = self.c * top ** self.tau
        except OverflowError:  # a float power raises where numpy gives inf
            gap = math.inf
        if not gap < math.inf:
            raise ValueError(f"gap c*l**tau = {gap} is not finite at l = "
                             f"{top} (c = {self.c}, tau = {self.tau})")
        return gap if top is l else self.c * l ** self.tau

    def describe(self) -> str:
        """The spec that :meth:`parse` reads back as this very rule."""
        rho, c, tau = (repr(v).removesuffix(".0")
                       for v in (self.rho, self.c, self.tau))
        if self.kind == BARRIER_FIRST:
            return f"barrier-first:{rho}"
        if self.kind == ADJACENT:
            return "adjacent"
        return f"power:{c}:{tau}"
