"""Exact Jones polynomials of 2-bridge (rational) links.

A 2-bridge link is described by a rational number p/q > 1 through its
continued fraction.  This package computes the Jones polynomial of that
link exactly, by three mutually checking engines (skein recursion, a direct
continued-fraction formula, and a specialized matching generating function
of the associated snake graph), together with the continued-fraction and
snake-graph machinery they rest on.
"""

from .cfrac import (EvenCF, PositiveCF, Rat, eval_cf, even_cf,
                    even_cf_for_link, even_division, euler_minding,
                    numerator_rec, positive_cf, sign_sequence, tau,
                    type_sequence)
from .errors import (BothOdd, BudgetExceeded, CrossCheckMismatch,
                     HypothesisViolated, MixedGrid, NoEvenQuotient,
                     OutOfRange, ParseError, SlotOverflow, TwoBridgeError,
                     WrongOrientation, ZeroPolynomial, ZeroTail)
from .jones import (JonesResult, boundary_coefficients, degree_and_sign,
                    f_recursive, jones_direct, jones_recursive, jones_via_f,
                    mirror, specialized_f_even, specialized_f_positive,
                    volume_bounds)
from .laurent import HLPoly, q_integer, q_power, specialize_y
from .snake import (Matching, SnakeGraph, count_matchings,
                    enumerate_matchings, f_polynomial, isomorphic,
                    render_ascii, snake_from_even, snake_from_positive)

__version__ = "0.1.0"
