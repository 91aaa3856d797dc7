"""Exact continued-fraction arithmetic.

A continued fraction ``[c1, c2, ..., ck]`` stands for the nested expression
``c1 + 1/(c2 + 1/(... + 1/ck))``.  Two families matter for 2-bridge links:

* *positive* continued fractions: every entry >= 1 (the classical Euclidean
  expansion of a rational p/q > 1);
* *even* continued fractions: every entry a nonzero even integer, signs
  allowed.  A reduced fraction p/q admits one exactly when p*q is even, and
  then the expansion is unique; its entry signs carry the orientation data
  of the associated link.  :func:`even_cf_for_link` gives the expansion
  that carries the link of any p/q, p*q odd too.

Rationals are plain :class:`fractions.Fraction` values (arbitrary precision,
always reduced, positive denominator), aliased as :data:`Rat`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, repeat
from math import gcd
from operator import neg

from .errors import (BothOdd, CrossCheckMismatch, NoEvenQuotient, OutOfRange,
                     ZeroTail)

Rat = Fraction


def _valid(cls, entries: tuple):
    """A ``cls`` on ``entries``, a tuple of ints valid by construction,
    without re-running the validating ``__post_init__``."""
    cf = object.__new__(cls)
    object.__setattr__(cf, "entries", entries)
    return cf


@dataclass(frozen=True)
class PositiveCF:
    """Validated positive continued fraction [a_1, ..., a_n], all a_i >= 1."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(map(int, self.entries))
        if not entries:
            raise ValueError("positive continued fraction needs >= 1 entry")
        if min(entries) < 1:
            raise ValueError(f"entries must all be >= 1, got {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self):
        return len(self.entries)

    @property
    def d(self):
        """Tile count of the associated snake graph: a_1 + ... + a_n - 1."""
        return sum(self.entries) - 1

    def partial_sums(self):
        """Running sums (a_1, a_1+a_2, ..., a_1+...+a_n)."""
        out, acc = [], 0
        for a in self.entries:
            acc += a
            out.append(acc)
        return tuple(out)

    def value(self) -> Rat:
        return eval_cf(self.entries)

    def long_form(self) -> "PositiveCF":
        """The equivalent expansion [a_1, ..., a_n - 1, 1].

        Requires a_n >= 2; this is the only freedom in the positive
        expansion of a rational.
        """
        if self.entries[-1] < 2:
            raise OutOfRange("last entry must be >= 2 to split off a 1")
        return _valid(PositiveCF,
                      self.entries[:-1] + (self.entries[-1] - 1, 1))


@dataclass(frozen=True)
class EvenCF:
    """Validated even continued fraction [b_1, ..., b_m], b_i even, nonzero.

    ``runs`` is derived from the entries on first read: the maximal groups
    (v, k) of k consecutive entries with one value v of type times |b|.  It
    is not an argument and takes no part in comparison."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(map(int, self.entries))
        if not entries:
            raise ValueError("even continued fraction needs >= 1 entry")
        # the entries are all even exactly when their gcd is
        if 0 in entries or gcd(*entries) & 1:
            raise ValueError(f"entries must all be even and nonzero, got {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self):
        return len(self.entries)

    @property
    def d(self):
        """Tile count of the associated snake graph: |b_1| + ... + |b_m| - 1
        less the number of sign changes in b_1, ..., b_m."""
        bs = self.entries
        return sum(map(abs, bs)) - 1 - sum([x * y < 0
                                            for x, y in zip(bs, bs[1:])])

    def value(self) -> Rat:
        """The value, read from the groups by :func:`run_value`."""
        return Fraction(*run_value(self))

    @cached_property
    def runs(self) -> tuple:
        """The groups (v, k): the type times |b| of b_i is b_i (-1)^(i+1),
        so the entries at even positions are negated and grouped."""
        values = list(self.entries)
        values[1::2] = map(neg, values[1::2])
        return tuple((v, len(list(run))) for v, run in groupby(values))

    def mirrored(self) -> "EvenCF":
        """Entrywise negation; evaluates to the negated rational."""
        return _valid(EvenCF, tuple(map(neg, self.entries)))


def eval_cf(entries) -> Rat:
    """Evaluate [c_1, ..., c_k] exactly, as ``Fraction(*_value(entries))``.

    The entries are read as ints.  The pair from :func:`_value` is already
    reduced with a positive denominator, but ``Fraction`` normalizes it once
    more.

    Raises :class:`ZeroTail` if the last entry is zero or some proper suffix
    evaluates to zero (the nesting would divide by it).  Valid
    PositiveCF/EvenCF entry lists never trigger this.
    """
    return Fraction(*_value(list(map(int, entries))))


def _value(entries) -> tuple:
    """(num, den) of [c_1, ..., c_k], a sequence of ints, right to left.

    A suffix value num/den becomes (c * num + den)/num when c is prepended.
    That step is the matrix [[c, 1], [1, 0]] of determinant -1, so by the
    continuant determinant identity N_k D_(k-1) - N_(k-1) D_k = +-1 the pair
    stays coprime; the sign is moved onto num at the end, so den > 0.  Two
    values are therefore equal exactly when their pairs are.

    Raises :class:`ZeroTail` as :func:`eval_cf` does.
    """
    if not entries:
        raise ZeroTail("empty continued fraction has no value")
    num, den = entries[-1], 1  # the suffix value num/den
    if num == 0:
        raise ZeroTail("last entry is zero")
    for c in reversed(entries[:-1]):
        if num == 0:
            raise ZeroTail("suffix evaluates to zero")
        num, den = c * num + den, num
    return (num, den) if den > 0 else (-num, -den)


def positive_cf(r: Rat) -> PositiveCF:
    """Euclidean expansion of a rational r >= 1 into a positive CF.

    ``r`` is an int or a Fraction; only its numerator and denominator are
    read.  Canonical form: the last entry is >= 2 whenever there are >= 2
    entries (this is automatic for the Euclidean algorithm).
    """
    p, q = r.numerator, r.denominator
    if p < q:
        raise OutOfRange(f"need a rational >= 1, got {Fraction(p, q)}")
    entries = []
    while q:
        a, rem = divmod(p, q)
        entries.append(a)
        p, q = q, rem
    return _valid(PositiveCF, tuple(entries))


def even_division(p: int, q: int):
    """Split p = b*q + s with b even and nonzero and -|q| <= s < |q|.

    The half-open window of length 2|q| pins (b, s) uniquely; for
    p > q > 0 this is the classical even division step.  Raises
    :class:`NoEvenQuotient` when the unique candidate is b = 0 (possible
    only when |p| < |q|, which the expansion recursions never produce).
    """
    if q == 0:
        raise ZeroDivisionError("even division by zero")
    n = abs(q)
    b = (p + n) // (2 * n) * (2 if q > 0 else -2)
    s = p - b * q
    if not -n <= s < n:  # pragma: no cover - window arithmetic
        raise CrossCheckMismatch(
            f"even division window broken for ({p}, {q})")
    if b == 0:
        raise NoEvenQuotient(f"no nonzero even quotient for ({p}, {q})")
    return b, s


def even_cf(r: Rat) -> EvenCF:
    """The unique even continued fraction of r = p/q, |r| > 1, p*q even.

    ``r`` is an int or a Fraction; only its numerator and denominator are
    read.  Raises :class:`BothOdd` when numerator and denominator are both
    odd (no even expansion exists), :class:`OutOfRange` for |r| <= 1.  The
    expansion is :func:`_even_entries`, which reads each run of +-2 entries
    with one division.  A run too long to list fails at once, when its
    entries are built.
    """
    return _valid(EvenCF, _even_entries(r.numerator, r.denominator))


def _read_run(entries: list, p: int, q: int, n: int, d: int) -> tuple:
    """Append the run of +-2 entries at p/q to ``entries``; the state after.

    Here n = |q| and d = |p| - n with 0 < 2d < n.  The next
    k = (|q| - 1) // d entries are then b, -b, b, ... with b = 2 sgn(p q),
    all of one type: each keeps d, lowers |q| by d and negates the value,
    so one division reads the run and the state p/q after it.  The entries
    are appended by tuple repetition.
    """
    k = (n - 1) // d
    b = 2 if (p > 0) == (q > 0) else -2
    entries += (b, -b) * (k >> 1)
    if k & 1:
        entries.append(b)
    return (n - (k - 1) * d) * (-b if k & 1 else b) // 2, n - k * d


def _even_entries(p: int, q: int) -> tuple:
    """The entries of the even continued fraction of p/q, for q >= 1.

    A run of +-2 entries is one :func:`_read_run` step.  Any other entry is
    the :func:`even_division` step written out, p = b*q + s with b even and
    nonzero and -|q| <= s < |q|, after which p/q becomes q/s.  Raises as
    :func:`even_cf` and :func:`even_division` do.
    """
    if p & q & 1:
        raise BothOdd(f"{Fraction(p, q)} has odd numerator and denominator")
    if abs(p) <= q:
        raise OutOfRange(f"need |r| > 1, got {Fraction(p, q)}")
    entries = []
    while q:
        n = q if q > 0 else -q
        d = (p if p > 0 else -p) - n
        if 0 < 2 * d < n:
            p, q = _read_run(entries, p, q, n, d)
            continue
        b = (p + n) // (2 * n) * (2 if q > 0 else -2)
        s = p - b * q
        if not -n <= s < n:  # pragma: no cover - window arithmetic
            raise CrossCheckMismatch(
                f"even division window broken for ({p}, {q})")
        if not b:
            raise NoEvenQuotient(f"no nonzero even quotient for ({p}, {q})")
        entries.append(b)
        p, q = q, s
    return tuple(entries)


def run_value(cf: EvenCF) -> tuple:
    """(num, den) of an even expansion, as :func:`_value` gives it, read
    from its groups ``cf.runs`` right to left.

    Prepending c to a suffix value num/den is the matrix
    M(c) = [[c, 1], [1, 0]].  For b = +-2, M(b) M(-b) = -I + N with
    N = [[-2, b], [-b, 2]] and N^2 = 0, so j such pairs are
    (-1)^j (I - j N): a run is one closed-form step.  The sign (-1)^j
    scales num and den alike, so it is left out.
    """
    num, den = 1, 0
    sign = -1 if cf.m & 1 else 1  # (-1)^i at the index i after the group
    for v, k in reversed(cf.runs):
        if k & 1:
            sign = -sign
        x = sign * v  # the group's first entry
        if k == 1:
            num, den = x * num + den, num
        elif x in (2, -2):
            if k & 1:
                num, den = x * num + den, num
            j = k >> 1
            num, den = (num + j * (2 * num - x * den),
                        den + j * (x * num - 2 * den))
        else:
            x = x if k & 1 else -x  # the last entry
            for _ in range(k):
                num, den = x * num + den, num
                x = -x
    return (num, den) if den > 0 else (-num, -den)


def even_cf_for_link(r: Rat) -> EvenCF:
    """Even continued fraction matching the orientation of the link of r.

    For p*q even this is the even expansion of p/q itself.  For p, q both
    odd the link carries the *negated* even expansion of p/(p - q); the
    positive-value expansion describes the mirror image (visible already
    for the trefoil).  A negative r is the mirror image of |r|, so it
    carries the negated expansion of |r|.  Negated, an expansion is that of
    -p/q, so the reader runs on (-p, q).
    """
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    if abs(p) <= q:
        raise OutOfRange(f"need |r| > 1, got {r}")
    return _valid(EvenCF, _even_entries(-p, abs(p) - q) if p & q & 1
                  else _even_entries(p, q))


def numerator_rec(entries):
    """Numerator of a continued fraction over any commutative ring with 1.

    N[] = 1, N[x1] = x1, and N[x1..xk] = xk * N[x1..x(k-1)] + N[x1..x(k-2)].
    For a positive continued fraction of integers this is the numerator of
    the reduced value.  Entries may be integers or ring elements such as
    Laurent polynomials.
    """
    prev2, prev1 = 0, 1
    for x in entries:
        prev2, prev1 = prev1, x * prev1 + prev2
    return prev1


def euler_minding(entries):
    """Numerator via the pair-deletion expansion.

    Sum, over all ways of deleting disjoint *adjacent* pairs from the entry
    list, of the product of the remaining entries.  Equals
    :func:`numerator_rec` on every input, by an entirely different route
    (no division, no two-term recurrence).
    """
    xs = list(entries)
    n = len(xs)
    leaves = []

    def walk(i, acc):
        if i >= n:
            leaves.append(acc)
            return
        walk(i + 1, acc * xs[i])
        if i + 1 < n:
            walk(i + 2, acc)

    walk(0, 1)
    total = leaves[0]
    for term in leaves[1:]:
        total = total + term
    return total


def sign_sequence(cf: EvenCF) -> tuple:
    """|b_1| copies of sgn(b_1), then |b_2| copies of -sgn(b_2), and so on:
    a group (v, k) of ``cf.runs`` is k |v| copies of sgn(v)."""
    return tuple(chain.from_iterable(repeat(1 if v > 0 else -1, k * abs(v))
                                     for v, k in cf.runs))


def type_sequence(cf: EvenCF) -> tuple:
    """(sgn(b_1), -sgn(b_2), ..., (-1)^(m+1) sgn(b_m))."""
    types = [1 if b > 0 else -1 for b in cf.entries]
    types[1::2] = [-t for t in types[1::2]]
    return tuple(types)


def tau(types) -> int:
    """Number of (+, +) pairs of consecutive entries, counted overlapping."""
    return sum(1 for a, b in zip(types, types[1:]) if a == 1 and b == 1)
