"""Sparse exact Laurent polynomials in t^(1/2), and their one kernel.

:class:`HLPoly` holds integer coefficients on exponents in (1/2)Z.  Exponents
are stored internally as integer counts of t^(1/2) units, so knot polynomials
(integer exponents) and 2-component-link polynomials (exponents in 1/2 + Z)
share one type.

:func:`continuant_packed` is the two-term recurrence that the Jones engines
share, run on polynomials packed into integers; it leaves its result packed,
as a :class:`Packed` that compares without a decode.  :func:`specialize_y`
takes a snake graph's set of matching heights to t.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress

from .errors import MixedGrid, SlotOverflow, ZeroPolynomial


def _units(exponent) -> int:
    """Exponent of t, an int or a half-integer Fraction, in half units."""
    if isinstance(exponent, int):
        return 2 * exponent
    f = Fraction(exponent)
    if f.denominator > 2:
        raise ValueError(f"exponent {exponent} is not a half integer")
    return f.numerator * (2 // f.denominator)


class HLPoly:
    """Laurent polynomial in t^(1/2) with integer coefficients.

    Immutable by convention; all arithmetic returns new values.  Integers
    coerce automatically, so expressions like ``1 - p`` or ``2 * p`` work.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for units, coeff in dict(terms).items():
                if coeff:
                    clean[int(units)] = int(coeff)
        self._terms = clean

    @classmethod
    def monomial(cls, coeff=1, half_units=0) -> "HLPoly":
        """coeff * t^(half_units / 2)."""
        return cls({half_units: coeff})

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, HLPoly):
            return other
        if isinstance(other, int):
            return HLPoly({0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for u, c in other._terms.items():
            c = terms.get(u, 0) + c
            if c:
                terms[u] = c
            elif u in terms:
                del terms[u]
        out = HLPoly.__new__(HLPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = HLPoly.__new__(HLPoly)
        out._terms = {u: -c for u, c in self._terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a shift by one monomial: exponents stay distinct, and no
            # coefficient can vanish
            (u0, c0), = b.items()
            terms = {u + u0: c * c0 for u, c in a.items()}
        else:
            terms = {}
            for u1, c1 in a.items():
                for u2, c2 in b.items():
                    u = u1 + u2
                    c = terms.get(u, 0) + c1 * c2
                    if c:
                        terms[u] = c
                    elif u in terms:
                        del terms[u]
        out = HLPoly.__new__(HLPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if terms.keys() <= {0}:  # zero and constants equal ints: hash as one
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def bar(self) -> "HLPoly":
        """The involution t^(1/2) -> t^(-1/2): negate every exponent."""
        out = HLPoly.__new__(HLPoly)
        out._terms = {-u: c for u, c in self._terms.items()}
        return out

    # -- text grammar --------------------------------------------------

    def to_text(self) -> str:
        """Render as ``c*t^(e)`` terms joined by signs, highest exponent first.

        Exponents print as plain integers or ``k/2``; unit coefficients are
        dropped; the zero polynomial prints as ``0``.
        """
        return text_from_terms(*self.exps_and_coeffs())

    def exps_and_coeffs(self):
        """(exponent strings, coefficients), highest exponent first."""
        units = sorted(self._terms, reverse=True)
        return (list(map(_exp_str, units)),
                list(map(self._terms.__getitem__, units)))

    def to_latex(self) -> str:
        """Compact LaTeX form, e.g. ``-t^{5/2}-t^{1/2}`` or ``t^{2}-t+1``."""
        return latex_from_text(self.to_text())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"HLPoly({self.to_text()!r})"


def _exp_str(units: int) -> str:
    """An exponent given in half units, as ``3`` or ``-7/2``."""
    return str(units // 2) if units % 2 == 0 else f"{units}/2"


def _exp_strs(low: int, high: int):
    """:func:`_exp_str` of high, high - 2, ..., low, all on one grid."""
    if low & 1:
        units = range(high, low - 2, -2)
        return ("%d/2 " * len(units) % tuple(units)).split()
    return list(map(str, range(high >> 1, (low >> 1) - 1, -1)))


def _interleave(evens, odds) -> tuple:
    """evens[0], odds[0], evens[1], ...: arguments for a repeated format."""
    out = [None] * (2 * len(odds))
    out[::2] = evens
    out[1::2] = odds
    return tuple(out)


def text_from_terms(exps, coeffs) -> str:
    """The :meth:`HLPoly.to_text` form of nonzero terms, highest first, from
    :func:`_exp_str` strings and int coefficients: one ``%`` format writes
    ``c*t^(e) + ...``, then a fixed rewrite fixes the signs, the constant
    and unit coefficients."""
    if not exps:
        return "0"
    text = ("%d*t^(%s) + " * len(exps) % _interleave(coeffs, exps))[:-3]
    text = (text.replace(" + -", " - ").replace("*t^(0)", "")
            .replace(" 1*t", " t"))
    if text.startswith("1*t"):
        return text[2:]
    if text.startswith("-1*t"):
        return "-" + text[3:]
    return text


def latex_from_text(text: str) -> str:
    """The LaTeX form of a polynomial, rewritten from :meth:`HLPoly.to_text`.

    The text grammar puts spaces only around separating signs, ``*`` only
    between a coefficient and ``t``, and parentheses only around exponents,
    so LaTeX differs from it in punctuation alone: ``5*t^(-1/2) - t^(1)``
    becomes ``5t^{-1/2}-t``.
    """
    return (text.replace(" - ", "-").replace(" + ", "+").replace("*", "")
            .replace("(", "{").replace(")", "}").replace("t^{1}", "t"))


def q_power(k: int) -> HLPoly:
    """q^k with q = -t^(-1); k may be negative."""
    return HLPoly.monomial(-1 if k % 2 else 1, -2 * k)


def q_integer(b: int) -> HLPoly:
    """The q-analogue [b]_q = 1 + q + ... + q^(b-1) at q = -t^(-1)."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    return HLPoly({-2 * k: -1 if k % 2 else 1 for k in range(b)})


def continuant_packed(steps, x_before, x_start, bound) -> "Packed":
    """Last term of the two-term recurrence x_k = mu_k x_(k-2) + nu_k x_(k-1),
    left packed, as a :class:`Packed`; ``.decode()`` gives the polynomial.

    ``steps`` holds one pair (mu_k, nu_k) per step, or a run step (c, u, k)
    for k equal steps (below).  mu_k is a pair (c, u), the signed monomial
    c * t^(u/2) with c = +-1; nu_k is a triple (c, u, b) standing for
    c * t^(u/2) * [b]_q with q = -1/t and b >= 0, so b = 0 is the zero
    factor.  ``x_before`` and ``x_start`` are the two terms before the first
    step; with no steps the result is ``x_start``.  ``bound`` must bound the
    sum of the absolute values of the result's coefficients.

    The recurrence runs on packed integers (Kronecker substitution; Harvey
    2009, *Faster polynomial multiplication via multipoint Kronecker
    substitution*).  A term whose exponents share one grid is stored as a
    pair (n, h) and a sign c apart: the polynomial is c * t^(h/2) * N(t) and
    n = N(2^s), so a factor's sign goes into the add or subtract that joins
    the two products and never negates n.  Monomials, mu among them, only
    move h; nu's [b]_q is the one product of a step (:func:`_q_product`).

    A run step (c, u, k) is k >= 1 steps (else ``ValueError``) with
    nu = c t^(u/2) [2]_q and mu = t^(u-1).  x^2 = nu x + mu has the roots
    lam = c t^(u/2) and lam q, so with P = [k]_q lam^(k-1) (lam x_j + mu
    x_(j-1)) they give
    x_(j+k) = P + (lam q)^k x_j and x_(j+k-1) = P / lam + (lam q)^k x_(j-1).

    Packing is a ring homomorphism, so intermediate terms may overflow their
    slots; only the result is decoded, and it fits when
    s >= bound.bit_length() + 2, since every coefficient then lies well inside
    the balanced digit range [-2^(s-1), 2^(s-1)) (see :func:`_slot_width`).

    A result whose decoded coefficients exceed ``bound`` raises
    :class:`SlotOverflow` when it is decoded.  The decode is exact while
    every true coefficient is below 2^(s-1), more than twice ``bound``, so
    that check catches an understated bound up to that margin; beyond it the
    digits are wrong, so ``bound`` must be proven, not guessed.
    """
    s = _slot_width(bound)
    n2, h2 = _pack(HLPoly._coerce(x_before), s)
    n1, h1 = _pack(HLPoly._coerce(x_start), s)
    c2 = c1 = 1
    for step in steps:
        if len(step) > 2:
            cb, ub, k = step
            if k < 1:
                raise ValueError(f"not a run step: {step}")
            ck = cb if k & 1 else 1  # lam^k is ck t^(k ub / 2)
            pn, ph, pc = _join(n1, h1 + k * ub, ck * c1,
                               n2, h2 + (k + 1) * ub - 2, ck * cb * c2, s)
            pn, ph = _q_product(pn, k, s), ph - 2 * (k - 1)
            ck, uk = (-ck if k & 1 else ck), k * (ub - 2)  # (lam q)^k
            (n2, h2, c2), (n1, h1, c1) = (
                _join(pn, ph - ub, pc * cb, n2, h2 + uk, ck * c2, s),
                _join(pn, ph, pc, n1, h1 + uk, ck * c1, s))
            continue
        (ca, ua), (cb, ub, bb) = step
        na, ha = n2, h2 + ua
        nb, hb = n1, h1 + ub
        if bb != 1:
            nb = _q_product(nb, bb, s) if bb else 0
            hb -= 2 * (bb - 1)
        ca *= c2
        cb *= c1
        n2, h2, c2 = n1, h1, c1
        # :func:`_join`, inline: a call per step measured 1-2 % on the
        # benchmark's long_cf and sweep workloads
        if not na:
            n1, h1, c1 = nb, hb, cb
        elif not nb:
            n1, h1, c1 = na, ha, ca
        elif (ha - hb) & 1:
            raise MixedGrid("recurrence terms lie on different grids")
        elif ha > hb:
            na <<= s * ((ha - hb) >> 1)
            n1, h1, c1 = (na + nb if ca == cb else na - nb), hb, ca
        else:
            nb <<= s * ((hb - ha) >> 1)
            n1, h1, c1 = (na + nb if ca == cb else na - nb), ha, ca
    return Packed(n1 if c1 > 0 else -n1, h1, s, bound)


_DOUBLING_LIMIT = 32  # longest [b]_q built by doubling


def _q_product(n: int, b: int, s: int) -> int:
    """n t^(b-1) [b]_q = n (t^b - (-1)^b) / (t + 1) at t = 2^s, for b >= 0.
    Over 16-bit slots it doubles on the bits of b: r_2m = (r_m << s m) +-
    r_m, r_(m+1) = (r_m << s) + n for m even; else one exact division (the
    README's "Shared continuant kernel" gives the measured switch)."""
    if b == 2:
        return (n << s) - n
    if s > 16 and 2 < b <= _DOUBLING_LIMIT:
        r, m = n, 1
        for bit in bin(b)[3:]:
            r = (r << s * m) - r if m & 1 else (r << s * m) + r
            m <<= 1
            if bit == "1":
                r, m = (r << s) + n, m + 1
        return r
    if b < 0:
        raise ValueError(f"need b >= 0, got {b}")
    shifted = n << s * b
    return (shifted + n if b & 1 else shifted - n) // ((1 << s) + 1)


def _join(na, ha, ca, nb, hb, cb, s):
    """The sum (n, h, c) of the packed terms (na, ha, ca) and (nb, hb, cb);
    :class:`MixedGrid` when both are nonzero on different grids."""
    if not na:
        return nb, hb, cb
    if not nb:
        return na, ha, ca
    if (ha - hb) & 1:
        raise MixedGrid("recurrence terms lie on different grids")
    if ha > hb:
        na <<= s * ((ha - hb) >> 1)
        ha = hb
    else:
        nb <<= s * ((hb - ha) >> 1)
    return (na + nb if ca == cb else na - nb), ha, ca


class Packed:
    """c * t^(h/2) * N(t) held as n = c * N(2^s), with c = +-1.

    A result of :func:`continuant_packed`: ``s`` is the slot width and
    ``bound`` bounds the sum of the absolute values of the coefficients.
    Each coefficient is one balanced base-2^s digit of n, and every integer
    has exactly one string of such digits.  The constructor shifts zero low
    slots out of n into h, and stores zero as (0, 0), so two terms with equal
    s are one polynomial exactly when their (n, h) are equal: ``==``
    compares them without a decode.

    :meth:`read` is the one read of the digits; :meth:`bar` reverses the
    slots of the integer itself and needs no read.
    """

    __slots__ = ("n", "h", "s", "bound")

    def __init__(self, n: int, h: int, s: int, bound: int):
        if not n & ((1 << s) - 1):  # the lowest digit is zero
            if n:
                k = ((n & -n).bit_length() - 1) // s
                n >>= s * k
                h += 2 * k
            else:
                h = 0
        self.n, self.h, self.s, self.bound = n, h, s, bound

    def times(self, c: int, u: int) -> "Packed":
        """The product with the monomial c * t^(u/2), c = +-1."""
        return Packed(self.n if c > 0 else -self.n, self.h + u, self.s,
                      self.bound)

    def __eq__(self, other):
        """Whether both stand for one polynomial: on one slot width, whether
        their one forms are equal, else whether their decodes are."""
        if not isinstance(other, Packed):
            return NotImplemented
        if self.s != other.s:
            return self.decode() == other.decode()
        return self.n == other.n and self.h == other.h

    def read(self) -> "DigitRun":
        """:class:`SlotOverflow` when the digits exceed ``bound``."""
        return _read_digits(self.n, self.h, self.s, self.bound)

    def decode(self) -> HLPoly:
        """The polynomial; :class:`SlotOverflow` when it exceeds ``bound``."""
        return self.read().poly()

    def bar(self) -> "Packed":
        """The bar involution t^(1/2) -> t^(-1/2), without a read: the slots
        of :func:`_slot_bytes` reversed, read as u, give n' = u - ((u &
        top_bits) << 1) and h' = -h - 2(slots - 1).  The digits are the read
        ones reversed, so an overflow still raises when the result is read.
        """
        raw, top_bits = _slot_bytes(self.n, self.s)
        width = self.s // 8
        flipped = bytearray(len(raw))
        for i in range(width):  # byte i of every slot, slots reversed
            flipped[i::width] = raw[i::width][::-1]
        u = int.from_bytes(flipped, "little")
        slots = len(raw) // width
        return Packed(u - ((u & top_bits) << 1), -self.h - 2 * (slots - 1),
                      self.s, self.bound)

    def __repr__(self):
        return f"Packed({self.n}, {self.h}, {self.s}, {self.bound})"


def _pack(p: HLPoly, s: int):
    """(n, h) with p = t^(h/2) * N(t) and n = N(2^s); see :class:`Packed`."""
    if not p:
        return 0, 0
    h = min(p._terms)
    n = 0
    for u, c in p._terms.items():
        if (u - h) & 1:
            raise MixedGrid("exponents mix integers and half integers")
        n += c << (s * ((u - h) >> 1))
    return n, h


def _slot_width(bound: int) -> int:
    """Bits per packed coefficient for results bounded by ``bound``.

    At least bound.bit_length() + 2 (see :func:`continuant_packed`), rounded
    up to a struct field of 8, 16, 32 or 64 bits, or beyond 64 bits to whole
    bytes.
    """
    bits = bound.bit_length() + 2
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return -(-bits // 8) * 8


_FIELD_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _slot_bytes(n: int, s: int):
    """(raw, top_bits): the balanced base-2^s digits of n as little-endian
    s-bit signed fields, a zero slot or more on top, and bit s - 1 of each.

    Adding 2^(s-1) to every slot makes each slot hold its digit plus 2^(s-1)
    without borrows; flipping the top bit of every slot back turns that into
    the digit in two's complement, so each slot reads as a signed field.
    """
    width = s // 8
    slots = n.bit_length() // s + 2
    top_bits = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = ((n + top_bits) ^ top_bits).to_bytes(slots * width, "little")
    return raw, top_bits


def _read_digits(n: int, h: int, s: int, bound: int) -> "DigitRun":
    """The one digit read of the packed term (n, h), without the zero slots
    on top (the lowest is not zero): one ``struct.unpack`` up to 64 bits,
    else slice by slice.  The digits must sum in absolute value to at most
    ``bound``."""
    raw, _ = _slot_bytes(n, s)
    width = s // 8
    if s <= 64:
        digits = struct.unpack(f"<{len(raw) // width}{_FIELD_CODES[s]}", raw)
    else:
        digits = [int.from_bytes(raw[i:i + width], "little", signed=True)
                  for i in range(0, len(raw), width)]
    total = sum(map(abs, digits))
    if total > bound:
        raise SlotOverflow(f"coefficients sum to {total} in absolute value, "
                           f"beyond the bound {bound} the slots were sized for")
    high = len(digits)
    while high and not digits[high - 1]:
        high -= 1
    return DigitRun(h, digits[:high])


class DigitRun:
    """The coefficients of t^(h/2), t^(h/2 + 1), ..., lowest first, from one
    read; both ends nonzero, and none for the zero polynomial."""

    __slots__ = ("h", "digits")

    def __init__(self, h: int, digits):
        self.h, self.digits = h, digits

    def poly(self) -> HLPoly:
        digits = self.digits
        units = range(self.h, self.h + 2 * len(digits), 2)
        out = HLPoly.__new__(HLPoly)
        out._terms = dict(compress(zip(units, digits), digits))
        return out

    def leading_term(self):
        """(highest exponent, its coefficient); exponent as a Fraction."""
        if not self.digits:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return Fraction(self.h + 2 * len(self.digits) - 2, 2), self.digits[-1]

    def width(self) -> int:
        """Highest minus lowest exponent of a nonzero run, in half units."""
        return 2 * len(self.digits) - 2

    def exps_and_coeffs(self):
        """As :meth:`HLPoly.exps_and_coeffs`, zero slots left out."""
        digits = self.digits
        exps = _exp_strs(self.h, self.h + 2 * len(digits) - 2)
        coeffs = digits[::-1]
        if all(coeffs):  # no zero slot to leave out
            return exps, coeffs
        return list(compress(exps, coeffs)), list(filter(None, coeffs))


def specialize_y(F, d: int) -> HLPoly:
    """Substitute y_1 = t^(-2) and y_j = -t^(-1) for j >= 2 in the sum of
    the monomials of ``F``, an iterable of bitsets (bit j-1 for y_j).

    ``d`` is the tile count: a bitset outside 0..2^d - 1, a negative one
    included, raises ``ValueError``.
    """
    full = (1 << d) - 1
    terms = {}
    for mask in F:
        if mask & ~full:
            raise ValueError(f"height {mask} uses tiles beyond 1..{d}")
        k = bin(mask >> 1).count("1")
        units = -4 * (mask & 1) - 2 * k
        terms[units] = terms.get(units, 0) + (-1 if k % 2 else 1)
    return HLPoly(terms)
