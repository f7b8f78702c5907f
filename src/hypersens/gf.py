"""Exact arithmetic in GF(p^m) for small prime powers (q <= 2^20).

Elements are coefficient vectors over F_p, lowest degree first.  Each element
has a canonical integer rank

    rank(e) = sum_j coeffs[j] * p^j   in [0, q),

which gives the total ordering that the set-family encoding relies on.  The
extension modulus is the lexicographically smallest monic irreducible of the
requested degree (coefficient vectors compared low-degree-first), so all
downstream constructions are reproducible byte for byte.

Primality and irreducibility use trial division; the in-scope fields are far
too small to need anything faster.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeOutOfRange, NonPrime, ZeroInverse

MAX_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int):
    """Return (p, m) with n = p^m and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m, rest = 0, n
            while rest % p == 0:
                rest //= p
                m += 1
            return (p, m) if rest == 1 else None
        p += 1
    return (n, 1)  # n itself is prime


def prime_power_in_range(lo: int, hi: int):
    """Smallest prime power strictly inside (lo, hi), as (p, m), else None."""
    for q in range(max(lo + 1, 2), hi):
        pm = prime_power(q)
        if pm is not None:
            return pm
    return None


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over F_p; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    m = len(poly) - 1
    for deg in range(1, m // 2 + 1):
        for idx in range(p**deg):
            den = [0] * deg + [1]
            r = idx
            for j in range(deg):
                den[j] = r % p
                r //= p
            if not any(_poly_rem(poly, den, p)):
                return False
    return True


class FieldElement:
    """Element of a Field, stored as a coefficient tuple over F_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def rank(self) -> int:
        r = 0
        for c in reversed(self.coeffs):
            r = r * self.field.p + c
        return r

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inverse(self) -> "FieldElement":
        return self.field.inv(self)

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"FieldElement({self.coeffs!r} over GF({self.field.order}))"


class Field:
    """GF(p^m) with an explicit monic irreducible modulus (empty for m=1)."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # length m+1 and monic, or () when m == 1
        self.order = p**m

    def element(self, coeffs) -> FieldElement:
        c = tuple(x % self.p for x in coeffs)
        if len(c) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(c)}")
        return FieldElement(self, c)

    def from_rank(self, r: int) -> FieldElement:
        if not 0 <= r < self.order:
            raise ValueError(f"rank {r} outside [0, {self.order})")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(r % self.p)
            r //= self.p
        return FieldElement(self, tuple(coeffs))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def elements(self):
        return (self.from_rank(r) for r in range(self.order))

    def _check(self, *elems):
        for e in elems:
            if e.field is not self:
                raise ValueError("elements belong to different fields")

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return FieldElement(
            self, tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs))
        )

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return FieldElement(
            self, tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs))
        )

    def neg(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return FieldElement(self, tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        if self.m == 1:
            return FieldElement(self, ((a.coeffs[0] * b.coeffs[0]) % self.p,))
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        rem = _poly_rem(prod, list(self.modulus), self.p)
        rem += [0] * (self.m - len(rem))
        return FieldElement(self, tuple(rem))

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        self._check(a)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if a.is_zero():
            raise ZeroInverse("0 has no multiplicative inverse")
        # the nonzero elements form a group of order q-1, so a^(q-2) = a^-1
        return self.pow(a, self.order - 2)

    def __repr__(self):
        return f"Field(GF({self.order}))"


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> Field:
    """GF(p^m) with the lexicographically smallest monic irreducible modulus."""
    if p < 2 or not is_prime(p):
        raise NonPrime(p)
    if m < 1:
        raise DegreeOutOfRange(f"extension degree {m} < 1")
    if p**m > MAX_ORDER:
        raise DegreeOutOfRange(f"field order {p}^{m} exceeds {MAX_ORDER}")
    if m == 1:
        return Field(p, 1, ())
    for idx in range(p**m):
        # digits of idx, most significant first, are (c_0, ..., c_{m-1})
        coeffs = [(idx // p ** (m - 1 - j)) % p for j in range(m)]
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return Field(p, m, tuple(poly))
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldPoly:
    """Polynomial over a field, coefficients lowest degree first."""

    field: Field
    coeffs: tuple[FieldElement, ...]

    @classmethod
    def from_ranks(cls, field: Field, ranks) -> "FieldPoly":
        return cls(field, tuple(field.from_rank(r) for r in ranks))

    def eval(self, x: FieldElement) -> FieldElement:
        """Horner evaluation."""
        self.field._check(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc
