"""Jones polynomials of 2-bridge links, by three engines.

Input is a continued fraction; output is an exact Laurent polynomial in
t^(1/2).  The engines:

* ``jones_recursive`` - the skein recursion, peeling one entry of the even
  continued fraction, or one run of equal +-2 entries, at a time;
* ``jones_direct`` - the closed continued-fraction-of-Laurent-polynomials
  formula evaluated on a positive continued fraction;
* ``jones_via_f`` - normalization data (degree and leading sign) times the
  specialized matching generating function: by the reflection identity,
  the barred direct formula on p/(p - q) for b_1 > 0 and on p/q for
  b_1 < 0, so it shares no kernel call with ``jones_direct`` but on 2/1.

All three agree exactly; :func:`cross_check` compares them for the CLI and
the verify sweeps alike.  The skein recursion, the direct formula's
numerator and the two-term recursion ``f_recursive`` are each one call of
the kernel :func:`laurent.continuant_packed`; they differ only in their step
factors.  Every route keeps its result packed (:class:`laurent.Packed`),
the closed forms and ``f_recursive`` included, so results compare with
``==`` as integers and a polynomial is read only where it is printed.

Orientation conventions.  An even continued fraction determines the link
*and* its orientation, so the even entries are the authoritative input;
:func:`cfrac.even_cf_for_link` gives the expansion that carries the link of
a rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cfrac import (EvenCF, PositiveCF, _value, even_cf_for_link,
                    numerator_rec, positive_cf, run_value, type_sequence)
from .errors import (CrossCheckMismatch, HypothesisViolated, SlotOverflow,
                     WrongOrientation, ZeroPolynomial)
from .laurent import DigitRun, Packed, _exp_str, continuant_packed

#: smallest hyperbolic volume bound per twist region, and the volume of a
#: regular ideal tetrahedron (for the upper bound 30*v3 per region)
VOLUME_LOWER_SLOPE = 0.35367
V3 = 1.0149

#: leading steps to (x_(-1), x_0) = (-t^(-1/2) - t^(1/2), 1)
_UNKNOTS = (((-1, 1), (-1, -1, 1)), ((1, 0), (1, 0, 0)))


@dataclass(frozen=True, eq=False)
class JonesResult:
    """A Jones polynomial, held packed, and the engine that made it.

    ``run``, the one read of the digits of ``packed``, is made on first use;
    it prints as the polynomial; ``degree`` and ``leading_sign`` read it.
    ``normalized`` is ``packed`` divided by its leading term, packed: it has
    constant term 1 and degree 0.  Results compare and hash by identity;
    two polynomials compare as ``a.packed == b.packed``.
    """

    packed: Packed
    engine: str

    @cached_property
    def run(self) -> DigitRun:
        return self.packed.read()

    @property
    def degree(self) -> Fraction:
        return self.run.leading_term()[0]

    @property
    def leading_sign(self) -> int:
        """+-1; :class:`ZeroPolynomial` when the leading coefficient is not
        a unit."""
        c = self.run.leading_term()[1]
        if c not in (1, -1):
            raise ZeroPolynomial(f"leading coefficient {c} is not a unit")
        return c

    @cached_property
    def normalized(self) -> Packed:
        run = self.run
        return self.packed.times(self.leading_sign, -run.h - run.width())


def cross_check(results, value) -> JonesResult:
    """The first of ``results`` once all agree as packed integers.

    Otherwise :class:`CrossCheckMismatch` names every engine and reads
    ``engines disagree on <value>: <engine>: <polynomial>; ...``; a result
    whose read raises :class:`SlotOverflow` reads as overflowing, so the
    report never fails on the faulty side.  Then come the highest exponent
    at which the first result and the first to disagree with it differ,
    with both coefficients, and a command that repeats the check; ``value``
    is the CLI's signed value, or verify's entry list.
    """
    first, *others = results
    differing = [r for r in others if r.packed != first.packed]
    if not differing:
        return first
    parts = []
    for res in results:
        try:
            parts.append(f"{res.engine}: {res.run}")
        except SlotOverflow as exc:
            parts.append(f"{res.engine}: overflows its slots ({exc})")
    other = differing[0]
    try:  # coefficients by exponent in half units, from the digit runs
        a, b = ({r.h + 2 * i: c for i, c in enumerate(r.digits)}
                for r in (first.run, other.run))
        u = max(u for u in a.keys() | b.keys() if a.get(u, 0) != b.get(u, 0))
        parts.append(f"first difference at t^({_exp_str(u)}): {first.engine} "
                     f"{a.get(u, 0)}, {other.engine} {b.get(u, 0)}")
    except SlotOverflow:
        pass
    parts.append("reproduce with: twobridge jones --engine all -- "
                 f"\"{str(value).replace(' ', '')}\"")
    raise CrossCheckMismatch(
        f"engines disagree on {value}: " + "; ".join(parts),
        engines=[res.engine for res in results], value=value)


# Step factors of :func:`continuant_packed`: mu is (c, u), the monomial
# c * t^(u/2); nu is (c, u, b), c * t^(u/2) * [b]_q.
def _q(e: int, b: int):
    """The factor q^e [b]_q, with q^e = (-1)^e t^(-e)."""
    return (-1 if e % 2 else 1), -2 * e, b


def _first_step(b1: int):
    """Step taking x_(-1) = x_0 = 1 to [b_1 + 1]_q - q = 1 + q^2 [b_1 - 1]_q."""
    return (1, 0), _q(2, b1 - 1)


def jones_recursive(cf: EvenCF) -> JonesResult:
    """Skein-recursion engine.

    Peeling the last entry b_m of the even continued fraction removes one
    braid; which smoothing applies depends on the braid sign, the last entry
    of the type sequence:

    * sign -: V_m = t^(-|b_m|) V_(m-2) - t^(-1/2) [|b_m|]_q V_(m-1)
    * sign +: V_m = t^(+|b_m|) V_(m-2) - t^(+1/2) [|b_m|]_qbar V_(m-1)

    with the conventions V(empty) = 1 (unknot) and V at index -1 equal to
    the two-unknot value -t^(-1/2) - t^(1/2).  A run of two or more entries
    of one type with |b| = 2, such as the p - 1 entries of an odd integer
    p, is one run step of :func:`continuant_packed`.  The groups are
    ``cf.runs``, and the slot bound is the numerator of :func:`run_value`.
    """
    steps = list(_UNKNOTS)
    # v = t |b|: mu is t^v, and nu is -t^(-1/2) [|b|]_q on a - type and
    # -t^(1/2) [b]_qbar = t^(v-1/2) [b]_q on a + type, since b is even
    for v, k in cf.runs:
        nu = (-1, -1, -v) if v < 0 else (1, 2 * v - 1, v)
        if k == 1:  # most groups: skip the list that a repeat would build
            steps.append(((1, 2 * v), nu))
        elif v in (2, -2):
            steps.append((nu[0], nu[1], k))  # mu = t^v = t^(u - 1)
        else:
            steps += [((1, 2 * v), nu)] * k
    packed = continuant_packed(steps, abs(run_value(cf)[0]))
    return JonesResult(packed, "recursive")


def degree_and_sign(cf: EvenCF):
    """Degree j and leading sign of the Jones polynomial, in closed form.

    j = sum over i of max((-1)^(i+1) b_i + sign(b_i b_(i-1))/2, -1/2) with
    the convention sign(b_0) = 1.  On the type sequence, with t_0 = -1, the
    i-th term is max(2 t_i |b_i| - t_(i-1) t_i, -1)/2: as |b_i| >= 2, it is
    -1/2 on a - type and |b_i| - t_(i-1)/2 on a + type, and over the P +
    types the t_(i-1) sum to 2 tau - P, with tau the number of (+, +) pairs.
    So 2j = 2 (sum over + types of (|b_i| + 1) - tau) - m, and the leading
    sign is (-1)^(m - tau).  Over the groups ``cf.runs``, a group (v, k) of
    + type adds k (v + 1) to the sum and k - 1 pairs, one more after a +
    group.
    """
    plus = pairs = last = 0
    for v, k in cf.runs:
        if v > 0:
            plus += k * (v + 1)
            pairs += k - 1 + (last > 0)
        last = v
    return Fraction(2 * (plus - pairs) - cf.m, 2), (-1) ** (cf.m - pairs)


def specialized_f_positive(cf: PositiveCF) -> Packed:
    """Specialized matching generating function of a positive CF, packed.

    The numerator of the continued fraction of Laurent polynomials whose
    entries are, with q = -t^(-1) and l_i = a_1 + ... + a_i:

        [a_1 + 1]_q - q,  [a_2]_q q^(-l_2),  [a_3]_q q^(l_2 + 1),  ...

    (even positions carry q^(-l_i), odd positions q^(l_(i-1) + 1)); for even
    n the numerator is further multiplied by q^(l_n).  The result has
    constant term 1, lowest term (-1)^(d+1) t^(-d-1) with d = sum(a_i) - 1,
    and equals the Jones polynomial divided by its leading term.
    """
    a = cf.entries
    ell = cf.partial_sums()
    steps = [_first_step(a[0])]
    for i in range(2, cf.n + 1):
        e = -ell[i - 1] if i % 2 == 0 else ell[i - 2] + 1
        steps.append(((1, 0), _q(e, a[i - 1])))
    result = continuant_packed(steps, _value(a)[0])
    if cf.n % 2 == 0:
        c, u, _ = _q(ell[-1], 1)
        result = result.times(c, u)
    return result


def specialized_f_even(cf: EvenCF) -> Packed:
    """Specialized matching generating function of an even CF, packed.

    It is (-t^(-1))^(d+1) times the bar involution of the positive-CF
    polynomial of |r/s| for negative value r/s, and of the partner r/(r - s)
    for positive value: the reflection identity F[a] = q^(d+1)
    bar(F[1, a_1 - 1, a_2, ...]), both sides with the same d.
    """
    r = abs(cf.value())
    if cf.entries[0] > 0:
        r = Fraction(r.numerator, r.numerator - r.denominator)
    pos = positive_cf(r)
    c, u, _ = _q(pos.d + 1, 1)
    return specialized_f_positive(pos).bar().times(c, u)


def f_recursive(cf: EvenCF) -> Packed:
    """Two-term recursion for the specialized generating function, b_1 > 0,
    packed.

    F_m = mu(t) F_(m-2) + nu(t) [|b_m|]_q F_(m-1), where mu and nu depend on
    the tail of the type sequence (extended by a leading sentinel minus, the
    braid-sign convention for index 0):

        tail (-,-):    nu = 1,        mu = t^(-|b_m|+1)
        tail (-,+,-):  nu = 1,        mu = t^(-|b_m|-|b_(m-1)|)
        tail (+,+,-):  nu = 1,        mu = -t^(-|b_m|-|b_(m-1)|+1)
        tail (-,+):    nu = -t^(-1),  mu = 1
        tail (-,+,+):  nu = 1,        mu = -t^(-|b_(m-1)|)
        tail (+,+,+):  nu = 1,        mu = t^(-|b_(m-1)|+1)

    Base cases: F of the empty prefix is 1, and F_(b_1) = [b_1 + 1]_q - q.
    """
    bs = cf.entries
    if bs[0] < 0:
        raise WrongOrientation("recursion requires b_1 > 0; mirror first")
    types = [-1, *type_sequence(cf)]  # sentinel at index 0
    steps = [_first_step(bs[0])]
    for k in range(2, cf.m + 1):
        t2, t1, t0 = types[k - 2], types[k - 1], types[k]
        ab, ab1 = abs(bs[k - 1]), abs(bs[k - 2])
        nu = (1, 0, ab)
        if (t1, t0) == (-1, -1):
            mu = (1, 2 * (1 - ab))
        elif (t1, t0) == (1, -1):
            mu = ((1, -2 * (ab + ab1)) if t2 == -1
                  else (-1, 2 * (1 - ab - ab1)))
        elif (t1, t0) == (-1, 1):
            nu = (-1, -2, ab)
            mu = (1, 0)
        else:
            mu = (-1, -2 * ab1) if t2 == -1 else (1, 2 * (1 - ab1))
        steps.append((mu, nu))
    return continuant_packed(steps, abs(numerator_rec(bs)))


def _placed(cf: EvenCF, F: Packed, engine: str) -> JonesResult:
    """delta * t^j * F, with the degree j and sign delta of the link of
    ``cf`` in closed form."""
    j, delta = degree_and_sign(cf)
    return JonesResult(F.times(delta, int(2 * j)), engine)


def jones_via_f(cf: EvenCF) -> JonesResult:
    """Normalization-times-generating-function engine."""
    return _placed(cf, specialized_f_even(cf), "fpoly")


def jones_direct(cf: PositiveCF) -> JonesResult:
    """Closed-formula engine on a positive continued fraction.

    The normalized polynomial is the continued-fraction numerator of
    :func:`specialized_f_positive`; degree and leading sign come from
    :func:`degree_and_sign` on the orientation-consistent even expansion of
    the value.
    """
    ev = even_cf_for_link(cf.value())
    return _placed(ev, specialized_f_positive(cf), "direct")


def mirror(res: JonesResult) -> JonesResult:
    """Mirror image: the bar involution on the packed polynomial."""
    return JonesResult(res.packed.bar(), res.engine)


def boundary_coefficients(cf: PositiveCF):
    """First three and last three coefficients of the Jones polynomial.

    For [a_1, ..., a_n] with a_1, a_n >= 2, write the normalized polynomial
    as sum of (-1)^i v_i t^(-i) with v_i >= 0 and l = a_1 + ... + a_n.
    Returns (v_0, v_1, v_2, v_(l-2), v_(l-1), v_l).  With alpha counting the
    entries equal to 1 and n = 2k or 2k+1, the closed forms are polynomial
    in k with Kronecker corrections for a_1 = 2 and a_n = 2.  For even n the
    v_2 correction comes from the q^2 term of [a_n]_q, which is present only
    when a_n >= 3 (peel the last entry: the polynomial is [a_n]_q times the
    one-shorter value plus a high-order remainder, so v_2 = v_1' + v_2' +
    [a_n >= 3]; unrolling gives the stated form).  The six formulas hold
    for l >= 4, where at most one position, v_2 = v_(l-2) at l = 4, is read
    from both ends; for l < 4 they overlap further and fail.
    """
    a = cf.entries
    if a[0] < 2 or a[-1] < 2:
        raise HypothesisViolated("first and last entries must be >= 2")
    if sum(a) < 4:
        raise HypothesisViolated("boundary coefficients need a_1 + ... + "
                                 "a_n >= 4")
    n = cf.n
    k = n // 2
    alpha = sum(1 for x in a if x == 1)
    d1 = 1 if a[0] == 2 else 0
    dn = 1 if a[-1] == 2 else 0
    v0 = vl = 1
    v1 = k
    if n % 2:
        vl1 = k + 1
        v2 = (k + 1) * (k + 2) // 2 - alpha
        vl2 = (k * k + 5 * k + 2) // 2 - alpha - d1 - dn
    else:
        vl1 = k
        v2 = k * (k + 3) // 2 - alpha - dn
        vl2 = k * (k + 3) // 2 - alpha - d1
    return v0, v1, v2, vl2, vl1, vl


def volume_bounds(cf: PositiveCF):
    """Bounds on the hyperbolic volume of the link complement.

    Valid when every entry is >= 3 and n >= 2: the volume lies strictly
    between 0.35367 (n - 2) and 30 * v3 * (n - 1) with v3 ~ 1.0149 the
    volume of a regular ideal tetrahedron.  A single entry is the (2, a)
    torus link, which is not hyperbolic.  These are the only floating-point
    values in the package.
    """
    if any(x < 3 for x in cf.entries):
        raise HypothesisViolated("volume bounds require every entry >= 3")
    n = cf.n
    if n < 2:
        raise HypothesisViolated("volume bounds require at least two entries; "
                                 "one entry is a torus link")
    return VOLUME_LOWER_SLOPE * (n - 2), 30 * V3 * (n - 1)
