"""Snake graphs: construction, matchings, and matching generating functions.

A snake graph is a chain of unit tiles, each successive tile glued to the
north or the east of the previous one.  We keep a canonical planar embedding:
the first tile sits at (0, 0) and the first step goes RIGHT.

The whole geometry is encoded by the signs on the interior edges.  Put a sign
function on the tiles (north = west, south = east, north opposite south);
then two consecutive interior edges carry *equal* signs exactly where the
snake *turns*.  Both constructions below therefore reduce to writing down an
interior sign word and replaying it into a step word.

* From a positive continued fraction [a_1..a_n]: the interior sign word is
  runs of lengths (a_1 - 1, a_2, ..., a_(n-1), a_n - 1) with alternating
  signs.
* From an even continued fraction [b_1..b_m]: each block contributes
  |b_i| - 2 copies of its braid sign; a junction between blocks of equal
  entry sign contributes the two braid signs of its neighbours (a connecting
  tile whose west and east edges differ), while a junction between blocks of
  opposite entry sign contributes the single sign opposite to the left
  block's (the identified north edge of that block's last tile).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .cfrac import EvenCF, PositiveCF, _sgn, type_sequence
from .errors import BudgetExceeded, CrossCheckMismatch, TooManyTiles
from .laurent import YPoly

RIGHT = "R"
UP = "U"


@dataclass(frozen=True)
class SnakeGraph:
    """Canonical snake graph with ``d`` tiles.

    ``steps`` and ``edge_signs`` both have length max(d - 1, 0): step i is
    the direction from tile i+1 to tile i+2, and edge_signs[i] is the sign of
    the interior edge they share.  ``first_sign`` is the sign of the
    distinguished boundary edge of the first tile; d = 0 encodes the single
    edge on two vertices.
    """

    d: int
    steps: tuple
    edge_signs: tuple
    first_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "edge_signs", tuple(self.edge_signs))
        if self.d < 0:
            raise ValueError("tile count must be >= 0")
        want = max(self.d - 1, 0)
        if len(self.steps) != want or len(self.edge_signs) != want:
            raise ValueError(f"need {want} steps and interior signs for d={self.d}")
        if any(s not in (RIGHT, UP) for s in self.steps):
            raise ValueError("steps must be RIGHT or UP")
        if any(s not in (1, -1) for s in self.edge_signs):
            raise ValueError("edge signs must be +1 or -1")
        if self.first_sign not in (1, -1):
            raise ValueError("first_sign must be +1 or -1")
        if self.steps and self.steps[0] != RIGHT:
            raise ValueError("canonical embedding starts with a RIGHT step")
        for i in range(len(self.steps) - 1):
            if (self.edge_signs[i] == self.edge_signs[i + 1]) != (
                    self.steps[i] != self.steps[i + 1]):
                raise ValueError("equal interior signs must match turns exactly")

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


def _graph_from_signs(signs, first_sign, d) -> SnakeGraph:
    steps = []
    if signs:
        steps.append(RIGHT)
        for a, b in zip(signs, signs[1:]):
            turn = a == b
            prev = steps[-1]
            steps.append((UP if prev == RIGHT else RIGHT) if turn else prev)
    return SnakeGraph(d=d, steps=tuple(steps), edge_signs=tuple(signs),
                      first_sign=first_sign)


def snake_from_positive(cf: PositiveCF) -> SnakeGraph:
    """Snake graph of a positive continued fraction; d = a_1 + ... + a_n - 1."""
    a = cf.entries
    d = sum(a) - 1
    if d == 0:
        return SnakeGraph(0, (), (), 1)
    if len(a) == 1:
        runs = [a[0] - 2]
    else:
        runs = [a[0] - 1, *a[1:-1], a[-1] - 1]
    signs = []
    sign = 1
    for length in runs:
        signs.extend([sign] * length)
        sign = -sign
    if len(signs) != d - 1:
        raise CrossCheckMismatch(f"{len(signs)} interior signs for {d} tiles",
                                 engines=("sign word", "tile count"), value=a)
    return _graph_from_signs(signs, first_sign=1, d=d)


def snake_from_even(cf: EvenCF) -> SnakeGraph:
    """Snake graph of an even continued fraction via block gluing."""
    bs = cf.entries
    ts = type_sequence(cf)
    signs = []
    for i, b in enumerate(bs):
        signs.extend([ts[i]] * (abs(b) - 2))
        if i + 1 < len(bs):
            if _sgn(b) == _sgn(bs[i + 1]):
                signs.extend([ts[i], ts[i + 1]])
            else:
                signs.append(-ts[i])
    d = len(signs) + 1
    if d != tile_count_even(cf):
        raise CrossCheckMismatch(f"gluing gives {d} tiles for {list(bs)}",
                                 engines=("gluing", "tile_count_even"), value=bs)
    return _graph_from_signs(signs, first_sign=_sgn(bs[0]), d=d)


def tile_count_even(cf: EvenCF) -> int:
    """sum |b_i| - 1 - (number of sign changes in b_1, ..., b_m)."""
    bs = cf.entries
    changes = sum(1 for x, y in zip(bs, bs[1:]) if _sgn(x) != _sgn(y))
    return sum(abs(b) for b in bs) - 1 - changes


def isomorphic(g: SnakeGraph, h: SnakeGraph) -> bool:
    """Graph isomorphism, decided on step words.

    The plane symmetries that preserve snake graphs are generated by the
    180-degree rotation (reverses the step word) and the diagonal reflection
    (swaps RIGHT and UP), so two graphs are isomorphic exactly when their
    step words agree up to that 4-element group.  Graphs with d <= 1 are
    isomorphic exactly when their tile counts agree.
    """
    if g.d != h.d:
        return False
    if g.d <= 1:
        return True
    w = g.steps
    swapped = tuple(UP if s == RIGHT else RIGHT for s in w)
    return h.steps in (w, w[::-1], swapped, swapped[::-1])


def count_matchings(g: SnakeGraph) -> int:
    """Number of perfect matchings, by a two-state transfer along the tiles.

    State after tile i: matchings of everything before the interior edge
    e_i that leave both of its endpoints free, versus those that cover both
    (mixed states never occur).  A straight middle tile maps (free, covered)
    to (free + covered, free); a turn maps it to (free, free + covered); the
    last tile closes with 2*free + covered.
    """
    if g.d == 0:
        return 1
    if g.d == 1:
        return 2
    free, covered = 1, 1
    for k in range(len(g.steps) - 1):
        if g.steps[k] == g.steps[k + 1]:
            free, covered = free + covered, free
        else:
            free, covered = free, free + covered
    return 2 * free + covered


# -- explicit embedding ----------------------------------------------------


def _tile_edges(x, y):
    """south, east, north, west edges of the tile at (x, y)."""
    sw, se, nw, ne = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
    return (frozenset((sw, se)), frozenset((se, ne)),
            frozenset((nw, ne)), frozenset((sw, nw)))


def _edge_index(g: SnakeGraph):
    """All edges plus, per tile, the two opposite boundary pairs as bitmasks.

    Returns (edges, pairs) with ``edges`` a list of frozensets of vertices
    and ``pairs`` a list of (south|north mask, east|west mask) per tile.
    """
    index = {}
    pairs = []
    for (x, y) in g.tile_positions():
        s, e, n, w = _tile_edges(x, y)
        bits = []
        for edge in (s, e, n, w):
            if edge not in index:
                index[edge] = len(index)
            bits.append(1 << index[edge])
        pairs.append((bits[0] | bits[2], bits[1] | bits[3]))
    edges = [None] * len(index)
    for edge, i in index.items():
        edges[i] = edge
    return edges, pairs


def _distinguished_edge(g: SnakeGraph):
    """The boundary edge whose sign is ``first_sign`` on the first tile.

    In the canonical embedding the first interior edge is the east edge of
    the first tile, which shares its sign with the south edge; so the
    distinguished edge is the south edge when first_sign matches the first
    interior sign and the west edge otherwise.  Single-tile graphs keep the
    south edge.
    """
    s, _, _, w = _tile_edges(0, 0)
    if g.d >= 2 and g.first_sign != g.edge_signs[0]:
        return w
    return s


def _minimal_matching_mask(g: SnakeGraph, edges, pairs):
    """Bitmask of the boundary matching containing the distinguished edge.

    Every vertex of a snake graph lies on the boundary cycle, and the cycle
    has exactly two perfect matchings (alternating edges); the minimal one
    contains the distinguished first-tile edge.
    """
    seen = {}
    for ns, ew in pairs:
        for mask in (ns, ew):
            for i in range(len(edges)):
                if mask >> i & 1:
                    seen[i] = seen.get(i, 0) + 1
    boundary = {i for i, c in seen.items() if c == 1}
    adj = {}
    for i in boundary:
        for v in edges[i]:
            adj.setdefault(v, []).append(i)
    e0 = _distinguished_edge(g)
    start = edges.index(e0)
    _, cur_v = sorted(e0)
    mask = 0
    take = True
    cur = start
    while True:
        if take:
            mask |= 1 << cur
        nxt = next(i for i in adj[cur_v] if i != cur)
        if nxt == start:
            break
        cur_v = next(v for v in edges[nxt] if v != cur_v)
        cur = nxt
        take = not take
    return mask


def _matching_masks(g: SnakeGraph, budget):
    """All perfect matchings as (edge mask, height mask) pairs via flip search.

    A flip applies at a tile whose two horizontal or two vertical edges are
    both matched; it swaps them for the opposite pair and toggles the tile in
    the height set.  Breadth-first search from the minimal matching reaches
    every matching; the transfer count certifies completeness.  Needs
    d >= 1; both callers answer d = 0 themselves.
    """
    total = count_matchings(g)
    if total > budget:
        raise BudgetExceeded(f"{total} matchings exceed budget {budget}")
    edges, pairs = _edge_index(g)
    start = _minimal_matching_mask(g, edges, pairs)
    heights = {start: 0}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        h = heights[m]
        for tile, (ns, ew) in enumerate(pairs):
            if m & ns == ns or m & ew == ew:
                m2 = m ^ ns ^ ew
                h2 = h ^ (1 << tile)
                if m2 not in heights:
                    heights[m2] = h2
                    queue.append(m2)
                elif heights[m2] != h2:
                    raise CrossCheckMismatch(
                        "height function is path dependent",
                        engines=("flip search",), value=g.steps)
    if len(heights) != total:
        raise CrossCheckMismatch(
            f"flip search missed matchings: {len(heights)} of {total}",
            engines=("flip search", "count_matchings"), value=g.steps)
    return sorted(heights.items()), edges


def enumerate_matchings(g: SnakeGraph, budget: int = 10 ** 6):
    """All perfect matchings with their heights, minimal matching first.

    Raises :class:`BudgetExceeded` when the matching count is beyond
    ``budget``.
    """
    if g.d == 0:
        edge = frozenset(((0, 0), (0, 1)))
        return [Matching(edges=frozenset((edge,)), height=frozenset())]
    masks, edges = _matching_masks(g, budget)
    out = []
    for m, h in sorted(masks, key=lambda mh: (bin(mh[1]).count("1"), mh[1])):
        chosen = frozenset(edges[i] for i in range(len(edges)) if m >> i & 1)
        height = frozenset(t + 1 for t in range(g.d) if h >> t & 1)
        out.append(Matching(edges=chosen, height=height))
    return out


def f_polynomial(g: SnakeGraph, budget: int = 10 ** 6) -> YPoly:
    """Sum of height monomials y(P) over all perfect matchings P.

    The minimal matching contributes the constant term 1 and the maximal one
    the full product y_1 ... y_d.
    """
    if g.d > YPoly.MAX_TILES:
        raise TooManyTiles(f"{g.d} tiles exceed {YPoly.MAX_TILES}")
    if g.d == 0:
        return YPoly.one()
    masks, _ = _matching_masks(g, budget)
    terms = {}
    for _, h in masks:
        terms[h] = terms.get(h, 0) + 1
    return YPoly(terms)


def render_ascii(g: SnakeGraph) -> str:
    """Unit-grid drawing of the tiles in the canonical embedding."""
    if g.d == 0:
        return "+\n|\n+"
    positions = g.tile_positions()
    max_x = max(x for x, _ in positions)
    max_y = max(y for _, y in positions)
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
