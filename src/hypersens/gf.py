"""Exact arithmetic in GF(p^m) for prime powers q = p^m <= 2^15.

An element is its rank, a plain int in [0, q): the element with coefficient
vector (c_0, ..., c_{m-1}) over F_p, lowest degree first, has

    rank = sum_j c_j * p^j,

which gives the total ordering that the set-family encoding relies on.  The
extension modulus is the lexicographically smallest monic irreducible of the
requested degree (coefficient vectors compared low-degree-first), so all
downstream constructions are reproducible byte for byte.

make_field builds three tables once, over the smallest-rank primitive element
g (found by an order test against the prime factors of q - 1):

    exp[j] = g^j,   log[g^j] = j,   exp[zech[j]] = 1 + g^j  (Zech logarithms),

and every operation is a lookup: a * b = g^(log a + log b) and, for nonzero
a and b, a + b = a * (1 + b/a) = g^(log a + zech[log b - log a]).  The
polynomial product appears only in the table build, as the matrix of
"multiply by c" on coefficient vectors.

q <= 2^15 is the largest order a set family can use (q^(ell+1) must fit its
2^30 universe with ell >= 1), and it bounds the table build.  Primality and
irreducibility use trial division; the in-scope fields are far too small to
need anything faster.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeOutOfRange, NonPrime, ZeroInverse

MAX_ORDER = 1 << 15


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


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class Field:
    """GF(p^m) with an explicit monic irreducible modulus (empty for m=1);
    its elements are the ranks 0 .. q-1."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # length m+1 and monic, or () when m == 1
        self.order = q = p**m
        place = p ** np.arange(m)
        digits = np.arange(q)[:, None] // place % p  # row a: the digits of a
        g = next(c for c in range(1, q) if self._is_primitive(digits[c]))
        times_g = (digits @ self._times(digits[g]) % p @ place).tolist()
        exp, log, a = [0] * (q - 1), [None] * q, 1
        for j in range(q - 1):
            exp[j], log[a] = a, j
            a = times_g[a]
        self._log = log
        self._exp = exp + exp  # log a + log b < 2(q - 1) needs no reduction
        # 1 + a changes only the constant digit; None marks 1 + g^j = 0
        self._zech = [log[a - a % p + (a + 1) % p] for a in exp]

    def _times(self, c) -> np.ndarray:
        """The matrix of multiplication by c on digit rows: row i holds the
        digits of c * x^i mod the modulus, each row the previous one times x
        with its x^m term reduced."""
        rows = [list(c)]
        for _ in range(self.m - 1):
            row = rows[-1]
            top = row[-1]
            rows.append(
                [(lo - top * f) % self.p for lo, f in zip([0] + row[:-1], self.modulus)]
            )
        return np.array(rows, dtype=np.int64)

    def _is_primitive(self, c) -> bool:
        """c^((q-1)/r) != 1 for every prime r | q - 1, by matrix powers."""
        n = self.order - 1
        ident, times_c = np.eye(self.m, dtype=np.int64), self._times(c)
        for r in _prime_factors(n):
            acc, base, e = ident, times_c, n // r
            while e:
                if e & 1:
                    acc = acc @ base % self.p
                base, e = base @ base % self.p, e >> 1
            if np.array_equal(acc, ident):
                return False
        return True

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        # a negative difference indexes from the end, i.e. modulo q - 1
        z = self._zech[self._log[b] - self._log[a]]
        return 0 if z is None else self._exp[self._log[a] + z]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # p - 1 is the rank of -1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroInverse("0 has no multiplicative inverse")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

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
    # digits of idx, most significant first, are (c_0, ..., c_{m-1}); a
    # candidate with c_0 = 0 is divisible by x, so the search starts at c_0 = 1
    for idx in range(p ** (m - 1), p**m):
        coeffs = [(idx // p ** (m - 1 - j)) % p for j in range(m)]
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return Field(p, m, tuple(poly))
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldPoly:
    """Polynomial over a field, coefficient ranks lowest degree first."""

    field: Field
    coeffs: tuple[int, ...]

    @classmethod
    def from_ranks(cls, field: Field, ranks) -> "FieldPoly":
        return cls(field, tuple(ranks))

    def eval(self, x: int) -> int:
        """Horner evaluation."""
        add, mul = self.field.add, self.field.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc
