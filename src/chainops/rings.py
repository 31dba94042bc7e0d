"""Coefficient rings: Z, Z/m (m >= 2) and Q, with exact arithmetic.

Ring elements are plain Python ints for Z and Z/m (the latter kept reduced
to [0, m)) and fractions.Fraction for Q.  A RingSpec bundles the element
operations so that the linear-algebra layer can stay ring-generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RingSpec:
    kind: str               # "Z" | "Zmod" | "Q"
    modulus: int = 0        # only meaningful for kind == "Zmod"

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod", "Q"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod" and self.modulus < 2:
            raise ValueError("Z/m needs m >= 2")
        if self.kind != "Zmod" and self.modulus != 0:
            raise ValueError("modulus only allowed for Z/m")

    # -- element operations ------------------------------------------------

    def normalize(self, x):
        if self.kind == "Zmod":
            return int(x) % self.modulus
        if self.kind == "Q":
            return Fraction(x)
        return int(x)

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return self.normalize(a + b)

    def neg(self, a):
        return self.normalize(-a)

    def mul(self, a, b):
        return self.normalize(a * b)

    def is_zero(self, a):
        return self.normalize(a) == self.zero()

    def is_unit(self, a):
        a = self.normalize(a)
        if self.kind == "Q":
            return a != 0
        if self.kind == "Z":
            return a in (1, -1)
        import math
        return math.gcd(a, self.modulus) == 1

    def inv(self, a):
        a = self.normalize(a)
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.kind == "Q":
            return Fraction(1) / a
        if self.kind == "Z":
            return a
        return pow(a, -1, self.modulus)

    def is_field(self):
        if self.kind == "Q":
            return True
        if self.kind == "Zmod":
            return _is_prime(self.modulus)
        return False

    def __str__(self):
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return {"Z": "Z", "Q": "Q"}[self.kind]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class SizeBoundError(ValueError):
    """A request past one of the engine's size bounds: the classifying
    space skeleton, the surjection operad's degree cap, the cyclic
    resolution a power-operation lift is built in, or the lift's word
    count."""


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def Zmod(m: int) -> RingSpec:
    return RingSpec("Zmod", m)
