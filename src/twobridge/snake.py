"""Snake graphs: construction, matchings, and matching generating functions.

A snake graph is a chain of unit tiles, each successive tile glued to the
north or the east of the previous one.  We keep a canonical planar embedding:
the first tile sits at (0, 0) and the first step goes RIGHT.

The whole geometry is encoded by the signs on the interior edges.  Put a sign
function on the tiles (north = west, south = east, north opposite south);
then two consecutive interior edges carry *equal* signs exactly where the
snake *turns*.  A ``SnakeGraph`` is therefore stored as its interior sign
word alone, and both constructions below reduce to writing down that sign
word.  Counting matchings and deciding isomorphism read the sign word too;
the step word is derived only when drawing or listing matchings asks for it.

* From a positive continued fraction [a_1..a_n]: the interior sign word is
  runs of lengths (a_1 - 1, a_2, ..., a_(n-1), a_n - 1) with alternating
  signs.
* From an even continued fraction [b_1..b_m]: each block contributes
  |b_i| - 2 copies of its braid sign; a junction between blocks of equal
  entry sign contributes the two braid signs of its neighbours (a connecting
  tile whose west and east edges differ), while a junction between blocks of
  opposite entry sign contributes the single sign opposite to the left
  block's (the identified north edge of that block's last tile).

The perfect matchings are the order ideals of a fence poset on the tiles
(after Morier-Genoud and Ovsienko, and McConville, Sagan and Smyth): tile
t+1 lies above tile t when edge_signs[t] == first_sign and below it
otherwise.  The matching of an ideal is the minimal matching with each of
its tiles flipped, and its height is the ideal itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfrac import EvenCF, PositiveCF
from .errors import BudgetExceeded, CrossCheckMismatch

RIGHT = "R"
UP = "U"
_SIGNS = frozenset((1, -1))
# bound on a matching listing, matchings times tiles, and on a drawing, in
# characters; every check reads it when it runs
LISTING_BUDGET = 64 * 10 ** 6
# largest snake graph, in tiles, whose value the CLI expands or computes on
TILE_BUDGET = 1 << 20
# largest kernel run the CLI starts, as entries x (tiles + 2) x (numerator
# bits + 2): the product of the step count, the slot count and the slot
# width; at the limit ``jones`` takes 0.2 s on ones and 3-4 s on entries of
# 100 and more, whose products divide by a multi-digit 2^s + 1
WORK_BUDGET = 10 ** 9
# largest ``verify --max-sum``: its sweeps grow exponentially, 3.7 s at 16
# and 16 s at 18
MAX_SUM_BUDGET = 16


@dataclass(frozen=True)
class SnakeGraph:
    """Canonical snake graph with ``d`` tiles, given by its interior signs.

    ``edge_signs`` has length max(d - 1, 0): edge_signs[i] is the sign of
    the interior edge shared by tiles i+1 and i+2.  ``first_sign`` is the
    sign of the distinguished boundary edge of the first tile; d = 0 encodes
    the single edge on two vertices.
    """

    d: int
    edge_signs: tuple
    first_sign: int = 1

    def __post_init__(self):
        signs = tuple(self.edge_signs)
        object.__setattr__(self, "edge_signs", signs)
        if self.d < 0:
            raise ValueError("tile count must be >= 0")
        want = max(self.d - 1, 0)
        if len(signs) != want:
            raise ValueError(f"need {want} interior signs for d={self.d}")
        if not _SIGNS.issuperset(signs):
            raise ValueError("edge signs must be +1 or -1")
        if self.first_sign not in (1, -1):
            raise ValueError("first_sign must be +1 or -1")

    @property
    def steps(self) -> tuple:
        """The step word, derived when read: step i is the direction from
        tile i+1 to tile i+2, the first step is RIGHT, and equal consecutive
        signs mean a turn."""
        signs = self.edge_signs
        steps, step = [], RIGHT
        for a, b in zip(signs, signs[1:]):
            steps.append(step)
            if a == b:
                step = UP if step == RIGHT else RIGHT
        if signs:
            steps.append(step)
        return tuple(steps)

    def step_word(self) -> str:
        return "".join(self.steps)

    def tile_positions(self):
        """Lower-left corners of the tiles in the canonical embedding."""
        if self.d == 0:
            return []
        pos = [(0, 0)]
        x = y = 0
        for s in self.steps:
            if s == RIGHT:
                x += 1
            else:
                y += 1
            pos.append((x, y))
        return pos


@dataclass(frozen=True)
class Matching:
    """A perfect matching with its height (set of tiles flipped from minimal)."""

    edges: frozenset
    height: frozenset = field(default_factory=frozenset)


def snake_from_positive(cf: PositiveCF) -> SnakeGraph:
    """Snake graph of a positive continued fraction; d = a_1 + ... + a_n - 1."""
    a = cf.entries
    d = sum(a) - 1
    if d == 0:
        return SnakeGraph(0, ())
    if len(a) == 1:
        signs = [1] * (a[0] - 2)
    else:
        signs = [1] * (a[0] - 1)
        sign = -1
        for length in a[1:-1]:
            signs += [sign] * length
            sign = -sign
        signs += [sign] * (a[-1] - 1)
    if len(signs) != d - 1:
        raise CrossCheckMismatch(f"{len(signs)} interior signs for {d} tiles",
                                 engines=("sign word", "tile count"), value=a)
    return SnakeGraph(d, signs)


def snake_from_even(cf: EvenCF) -> SnakeGraph:
    """Snake graph of an even continued fraction via block gluing.

    With types t_i = (-1)^(i+1) sgn(b_i), neighbouring entries of equal sign
    have opposite types, so each junction reads off the types alone.  The
    types are computed in the same pass: t_1 = sgn(b_1), and t_(i+1) is
    -t_i after a junction of equal entry signs and t_i otherwise.
    """
    bs = cf.entries
    t = first = 1 if bs[0] > 0 else -1
    signs = []
    for b, c in zip(bs, bs[1:]):
        if b > 2 or b < -2:  # a block with |b| = 2 adds no signs
            signs += [t] * (abs(b) - 2)
        if (b > 0) == (c > 0):  # types t, -t: a connecting tile
            signs.append(t)
            t = -t
            signs.append(t)
        else:  # equal types: the identified north edge
            signs.append(-t)
    signs += [t] * (abs(bs[-1]) - 2)
    d = len(signs) + 1
    if d != cf.d:
        raise CrossCheckMismatch(f"gluing gives {d} tiles for {list(bs)}",
                                 engines=("gluing", "EvenCF.d"), value=bs)
    return SnakeGraph(d, signs, first)


def isomorphic(g: SnakeGraph, h: SnakeGraph) -> bool:
    """Graph isomorphism, decided on sign words.

    The plane symmetries that preserve snake graphs are generated by the
    180-degree rotation (reverses the step word) and the diagonal reflection
    (swaps RIGHT and UP), so two graphs are isomorphic exactly when their
    step words agree up to that 4-element group.  A step word starts with
    RIGHT and is fixed by its turns, the equal neighbouring signs, which
    reversing the sign word reverses and negating it keeps.  So the test is
    equality of sign words up to reversal and negation.  Graphs with d <= 1
    are isomorphic exactly when their tile counts agree.
    """
    if g.d != h.d:
        return False
    s, t = g.edge_signs, h.edge_signs
    if s == t or s == t[::-1]:
        return True
    t = tuple(-x for x in t)
    return s == t or s == t[::-1]


def count_matchings(g: SnakeGraph) -> int:
    """Number of perfect matchings, by a two-state transfer along the tiles.

    State after tile i: matchings of everything before the interior edge
    e_i that leave both of its endpoints free, versus those that cover both
    (mixed states never occur).  A middle tile is straight where its two
    interior edges carry unequal signs and a turn where they are equal.  A
    straight tile maps (free, covered) to (free + covered, free); a turn
    maps it to (free, free + covered); the last tile closes with
    2*free + covered.
    """
    if g.d <= 1:
        return g.d + 1
    free = covered = 1
    signs = g.edge_signs
    for a, b in zip(signs, signs[1:]):
        if a != b:
            free, covered = free + covered, free
        else:
            covered += free
    return 2 * free + covered


def check_budget(matchings: int, tiles: int):
    """Raise :class:`BudgetExceeded` when listing ``matchings`` heights of
    ``tiles`` tiles each is beyond :data:`LISTING_BUDGET`."""
    if matchings * tiles > LISTING_BUDGET:
        raise BudgetExceeded(f"{matchings} matchings x {tiles} tiles exceed "
                             f"budget {LISTING_BUDGET}")


def check_tiles(tiles: int):
    """Raise :class:`BudgetExceeded` when a snake graph of ``tiles`` tiles
    is beyond :data:`TILE_BUDGET`."""
    if tiles > TILE_BUDGET:
        raise BudgetExceeded(f"the snake graph has {tiles} tiles, beyond "
                             f"budget {TILE_BUDGET}")


def check_work(entries: int, tiles: int, p: int):
    """Raise :class:`BudgetExceeded` when the kernel estimate entries x
    (tiles + 2) x (bits of p + 2) of a value with numerator p is beyond
    :data:`WORK_BUDGET`."""
    slots, bits = tiles + 2, abs(p).bit_length() + 2
    if entries * slots * bits > WORK_BUDGET:
        raise BudgetExceeded(f"{entries} entries x {slots} slots x {bits} "
                             f"bits exceed budget {WORK_BUDGET}")


def _heights(g: SnakeGraph):
    """The height masks of all perfect matchings, one per matching.

    The heights are the order ideals of the fence on the tiles: tile t+1
    lies above tile t when edge_signs[t] == first_sign, and below it
    otherwise.  The ideals are built tile by tile in two lists, those with
    and those without the tile added last.  The next tile may join only the
    ideals with it when it lies above, and must join those and may join the
    others when it lies below.  The transfer count certifies completeness.
    Raises :class:`BudgetExceeded` before building anything when the
    listing, matchings times tiles, is beyond :data:`LISTING_BUDGET`.
    Needs d >= 1; both callers answer d = 0 themselves.
    """
    total = count_matchings(g)
    check_budget(total, g.d)
    without, with_ = [0], [1]
    for tile, sign in enumerate(g.edge_signs, 1):
        if sign == g.first_sign:  # above: needs the tile before
            without += with_
        else:  # below: needed by the tile before
            with_ += without
        bit = 1 << tile
        with_ = [h | bit for h in with_]
    heights = without + with_
    if len(heights) != total:
        raise CrossCheckMismatch(
            f"fence build missed matchings: {len(heights)} of {total}",
            engines=("fence ideals", "count_matchings"), value=g.steps)
    return heights


# -- explicit embedding ----------------------------------------------------


def _flip_data(g: SnakeGraph):
    """Edges, per-tile opposite pairs and the minimal matching, in one pass.

    Returns (edges, pairs, start): ``edges`` lists the edges as frozensets of
    their corners, ``pairs`` holds per tile the (south|north, east|west)
    bitmasks over that list, and ``start`` is the minimal matching's mask.
    A tile shares its west edge with the tile before after a RIGHT step and
    its south edge after an UP step.  The boundary is a lower path of south
    and east edges and an upper path of west and north edges, both from the
    first tile's lower-left corner to the last tile's upper-right one; the
    cycle they close has two perfect matchings, of alternate edges.  The
    minimal one holds the first tile's distinguished edge: its south edge,
    which shares its sign with the first interior (east) edge, when
    first_sign matches edge_signs[0] or d = 1, and its west edge otherwise.
    """
    edges, pairs, lower, upper = [], [], [], []

    def edge(a, b):
        edges.append(frozenset((a, b)))
        return 1 << len(edges) - 1

    east = north = 0
    steps = g.steps
    for (x, y), into, out in zip(g.tile_positions(), (None,) + steps,
                                 steps + (None,)):
        if into == UP:
            south = north
        else:
            south = edge((x, y), (x + 1, y))
            lower.append(south)
        if into == RIGHT:
            west = east
        else:
            west = edge((x, y), (x, y + 1))
            upper.append(west)
        east = edge((x + 1, y), (x + 1, y + 1))
        north = edge((x, y + 1), (x + 1, y + 1))
        if out != RIGHT:
            lower.append(east)
        if out != UP:
            upper.append(north)
        pairs.append((south | north, east | west))
    if g.d >= 2 and g.first_sign != g.edge_signs[0]:
        lower, upper = upper, lower
    return edges, pairs, sum(lower[0::2]) + sum(upper[1::2])


def enumerate_matchings(g: SnakeGraph):
    """All perfect matchings with their heights, minimal matching first.

    A matching is the minimal one with the flip ``ns ^ ew`` of each tile in
    its height applied.  Raises :class:`BudgetExceeded` when the matching
    count times the tile count is beyond :data:`LISTING_BUDGET`.
    """
    if g.d == 0:
        edge = frozenset(((0, 0), (0, 1)))
        return [Matching(edges=frozenset((edge,)), height=frozenset())]
    heights = _heights(g)
    edges, pairs, start = _flip_data(g)
    flips = [ns ^ ew for ns, ew in pairs]
    out = []
    for h in sorted(heights, key=lambda h: (bin(h).count("1"), h)):
        tiles = [t for t in range(g.d) if h >> t & 1]
        m = start
        for t in tiles:
            m ^= flips[t]
        chosen = frozenset(edges[i] for i in range(len(edges)) if m >> i & 1)
        out.append(Matching(edges=chosen,
                            height=frozenset(t + 1 for t in tiles)))
    return out


def f_polynomial(g: SnakeGraph) -> frozenset:
    """The matching generating function, as its set of height bitsets.

    F is the sum of the height monomials y(P) over all perfect matchings P,
    bit j-1 of a height standing for y_j.  Each height occurs once, so every
    coefficient is 1 and the set is F.  The minimal matching contributes
    the constant term 1 (height 0) and the maximal one the full product
    y_1 ... y_d.  Raises :class:`BudgetExceeded` when the matching count
    times the tile count is beyond :data:`LISTING_BUDGET`.
    """
    if g.d == 0:
        return frozenset((0,))
    return frozenset(_heights(g))


def height_subsets(F) -> list:
    """The tiles of each height bitset of ``F`` as a sorted list, fewest
    tiles first and ties in list order; each height is read through one
    ``bin``."""
    out = []
    for h in F:
        bits = bin(h)[:1:-1]  # bit 0 first
        out.append([j for j, bit in enumerate(bits, 1) if bit == "1"])
    out.sort(key=lambda tiles: (len(tiles), tiles))
    return out


def check_canvas(rows: int, cols: int):
    """Raise :class:`BudgetExceeded` when drawing tiles in ``rows`` rows and
    ``cols`` columns, (2*rows + 1) * (3*cols + 1) characters, is beyond
    :data:`LISTING_BUDGET`."""
    cells = (2 * rows + 1) * (3 * cols + 1)
    if cells > LISTING_BUDGET:
        raise BudgetExceeded(f"a drawing {rows} tiles high and {cols} wide "
                             f"has {cells} cells, beyond budget "
                             f"{LISTING_BUDGET}")


def render_ascii(g: SnakeGraph) -> str:
    """Unit-grid drawing of the tiles in the canonical embedding.

    Raises :class:`BudgetExceeded` before allocating the canvas when it
    would hold more than :data:`LISTING_BUDGET` characters.
    """
    if g.d == 0:
        return "+\n|\n+"
    positions = g.tile_positions()
    max_x = max(x for x, _ in positions)
    max_y = max(y for _, y in positions)
    check_canvas(max_y + 1, max_x + 1)
    rows = 2 * (max_y + 1) + 1
    cols = 3 * (max_x + 1) + 1
    canvas = [[" "] * cols for _ in range(rows)]
    for (x, y) in positions:
        top = 2 * (max_y - y)
        left = 3 * x
        for dc in (0, 3):
            canvas[top][left + dc] = "+"
            canvas[top + 1][left + dc] = "|"
            canvas[top + 2][left + dc] = "+"
        for dc in (1, 2):
            canvas[top][left + dc] = "-"
            canvas[top + 2][left + dc] = "-"
    return "\n".join("".join(row).rstrip() for row in canvas)
