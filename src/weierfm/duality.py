"""Two-page bookkeeping engine for dualizing transformed sheaves.

Setting: E is a coherent sheaf on the elliptic threefold X (dim X = n in
the bookkeeping; the geometry has n = 3 but nothing below cares), of
codimension c, satisfying one of the two WIT conditions, and the
dimension of its surviving transform differs from dim E by a declared
shift in {-1, 0, +1}.  Comparing the derived dual of the transform with
the transform of the derived dual produces two spectral sequences with
the same abutment:

  Left   E2[p,q] = Ext^q(Φ^{-p}E, O_X)                 -1 <= p <= 0
  Right  E2[p,q] = ι*(Φ^{q+1} Ext^p(E, O_X)) ⊗ p*L      -1 <= q <= 0

The engine never computes sheaves.  Each term carries only a three-valued
status (Zero / NonZero / Unknown); its label, ι* and ⊗p*L decorations
included, is a function of side and position that only the relations naming
the term write out, so it never influences propagation.  The input facts are:

* transforms are concentrated in degrees 0 and 1, and the declared WIT
  type kills one Left column outright;
* the surviving transform has codimension exactly c - dim_shift, so its
  local Ext against O_X vanishes below that degree and is nonzero at it;
* Ext^p(E, O_X) vanishes for p < c, and E^D = Ext^c(E, O_X) is a nonzero
  sheaf, so its transform cannot vanish in both degrees: the two terms of
  the Right column p = c are jointly constrained.

Differentials move (p, q) to (p - r + 1, q + r) on these displays: they
shift the outer functor degree up by r, which leaves the two-row Right
band immediately (degeneration at page 2 always) and leaves the Left band
as soon as one column is dead.  After degeneration, equal total degree
p + q forces term-by-term relations between the two sides, which three
passes turn into Identification / ForcedZero / ShortExact facts, or into a
contradiction when the scenario is impossible:

1. Each total degree holding a term that is not Zero, in ascending order,
   reads its live terms on both pages.  A survivor facing an empty page
   vanishes (a contradiction if it is NonZero); one live term on each side
   gives an Identification, one against two a ShortExact.
2. Each jointly-nonzero group whose terms all vanished is forbidden; one
   with a single term left makes that term NonZero.
3. NonZero carries across each Identification, and from a ShortExact's sub
   or quot to its mid.

One pass of each reaches the fixpoint of these rules.  A term turns Zero
only in the first pass, on its own antidiagonal, and no status leaves Zero;
the second pass reads only which terms are Zero, so it is final too.  Each
term lies on one antidiagonal, which emits at most one Identification or
ShortExact, so no carry reaches another relation.

A page, ``PageGrid``, is a frozen value: its rectangle p_range × q_range
and one status per cell, in the tuple ``statuses``, column by column (p
ascending, then q ascending).  Its constructor checks every field against
its annotation and refuses an empty rectangle, a statuses tuple whose
length is not the rectangle's, and a jointly-nonzero group that is not a
non-empty tuple of positions of the rectangle; so every page is complete,
and the entry points check only its class.  ``build_pages`` concatenates
each page's runs of equal statuses and builds it through
:func:`weierfm.rationals.trusted`.  A solve copies both pages' statuses
into one list, which its passes refine, and groups both pages' live (not
Zero) cells by total degree in one walk of each page's statuses, reading
each cell's position off its index; column order gives each degree's cells
on a page larger q first, and the left page's cells come before the right
page's.  The first pass runs over the grouping's degrees in ascending
order, the second reads the jointly-nonzero groups, the third the
relations the first emitted.  Grouping before the first pass is exact: a
term turns Zero only while its own degree is processed, so each degree's
live terms are, until then, the ones the grouping found.  The grouping
and each pass are linear in the number of cells and groups, so for the
pages of a scenario, which hold one group, time and memory are linear in
n.  ``compare_limits`` returns the relations and leaves the
caller's pages as they were; ``solve_scenario`` returns the refined pages
with them.  The TermRefs the relations name, labels included, are made
once per process and shared by every solve.  The verdict a solve ends in,
``Conclusion`` of a ``ConclusionKind``, is defined in
:mod:`weierfm.verdicts`, so the layers that read it need not load this
module, and this module loads neither the ring nor the transform layer.

Each entry point refuses an argument of the wrong class with
:func:`weierfm.rationals.require`'s ValueError before reading it.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import operator
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import InfeasibleScenarioError, InternalCheckError
from .rationals import require, trusted, value_class
from .verdicts import Conclusion, ConclusionKind, WitType


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class TermStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


@value_class
class Term:
    """One E_2 cell's status, as ``PageGrid.terms`` shows it."""
    status: TermStatus


Pos = tuple[int, int]

# Largest dimension n a SheafScenario accepts.  A solve peaks at 0.1-2.3 KiB
# per unit of n (tracemalloc, n = 1 600 to 25 600; what it leaves held, the
# solution and the shared term references, is 0.03-2.0), so this keeps one
# solve under ~225 MiB.
MAX_SCENARIO_DIMENSION = 100_000


def left_label(p: int, q: int) -> str:
    return f"Ext^{q}(Φ^{-p}E, O_X)"


def right_label(p: int, q: int) -> str:
    return f"ι*(Φ^{q + 1}Ext^{p}(E, O_X)) ⊗ p*L"


@value_class
class SheafScenario:
    """Dimension bookkeeping for one sheaf E on X.

    n          -- dimension of X, a positive integer at most
                  MAX_SCENARIO_DIMENSION (a larger n is a ValueError)
    c          -- codimension of E, 0 <= c <= n
    wit        -- which single degree the transform of E lives in
    dim_shift  -- dim(surviving transform) - dim(E), in {-1, 0, +1};
                  this is an exact statement, not an inequality

    solve_scenario takes time and memory linear in n: it peaks at 0.1-2.3
    KiB per unit of n, and what it leaves held, the solution and the shared
    term references, is 0.03-2.0.
    """

    n: int
    c: int
    wit: WitType
    dim_shift: int

    def _check(self) -> None:
        if self.n < 1:
            raise InfeasibleScenarioError("n must be a positive integer")
        if self.n > MAX_SCENARIO_DIMENSION:
            raise ValueError(
                f"n={self.n} exceeds the scenario dimension cap "
                f"{MAX_SCENARIO_DIMENSION}"
            )
        if not 0 <= self.c <= self.n:
            raise InfeasibleScenarioError(
                f"codimension c={self.c!r} outside [0, {self.n}]"
            )
        if self.dim_shift not in (-1, 0, 1):
            raise InfeasibleScenarioError("dim_shift must be -1, 0 or +1")
        if not 0 <= self.transform_codim <= self.n:
            raise InfeasibleScenarioError(
                f"transform codimension {self.transform_codim} outside "
                f"[0, {self.n}]: no sheaf on X can realize this shift"
            )

    @property
    def transform_codim(self) -> int:
        return self.c - self.dim_shift

    @property
    def surviving_column(self) -> int:
        """Left-page column of the surviving transform (p = -wit degree)."""
        return 0 if self.wit is WitType.WIT0 else -1

    @property
    def wit_degree(self) -> int:
        return 0 if self.wit is WitType.WIT0 else 1


@value_class
class PageGrid:
    """One rectangular E_2 page: a status per (p, q) in p_range × q_range,
    listed in ``statuses`` column by column (p ascending, then q ascending).

    joint_nonzero lists groups of positions of which at least one must end
    up NonZero (used for the transform of E^D, which may vanish in either
    single degree but not both).
    """

    side: Side
    n: int
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    statuses: tuple[TermStatus, ...]
    joint_nonzero: tuple[tuple[Pos, ...], ...] = ()

    def _check(self) -> None:
        """That the rectangle is not empty, ``statuses`` holds one status
        per cell of it, and each jointly-nonzero group is a non-empty tuple
        of its positions."""
        side = self.side.value
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        if p0 > p1 or q0 > q1:
            raise ValueError(f"the {side} page's rectangle {self.p_range} × {self.q_range} is empty")
        cells = (p1 - p0 + 1) * (q1 - q0 + 1)
        if len(self.statuses) != cells:
            raise ValueError(
                f"the {side} page's rectangle {self.p_range} × {self.q_range} has "
                f"{cells} cells, got {len(self.statuses)} statuses"
            )
        for group in self.joint_nonzero:
            if not group:
                raise ValueError(
                    f"a joint_nonzero group of the {side} page must be a non-empty "
                    f"tuple of positions, got {group!r}"
                )
            for pos in group:
                if not self.in_region(pos):
                    raise ValueError(f"a joint_nonzero group names {pos}, outside the {side} page")

    def in_region(self, pos: Pos) -> bool:
        p, q = pos
        return (
            self.p_range[0] <= p <= self.p_range[1]
            and self.q_range[0] <= q <= self.q_range[1]
        )

    def index(self, pos: Pos) -> int:
        """The place in ``statuses`` of the cell at ``pos``, in the region."""
        p, q = pos
        (p0, _), (q0, q1) = self.p_range, self.q_range
        return (p - p0) * (q1 - q0 + 1) + q - q0

    def status(self, pos: Pos) -> TermStatus:
        if not self.in_region(pos):
            return TermStatus.ZERO
        return self.statuses[self.index(pos)]

    @property
    def terms(self) -> dict[Pos, Term]:
        """A fresh dict of the page's statuses by position, column by
        column, each in a frozen Term.  Each read builds the whole dict, so
        a reader of single cells calls ``status``; the solver reads
        ``statuses``."""
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        cells = itertools.product(range(p0, p1 + 1), range(q0, q1 + 1))
        return dict(zip(cells, map(trusted(Term), self.statuses)))

    def is_settled(self) -> bool:
        """No differential d_r (r >= 2) joins a term that is not Zero to a
        target that is not Zero, both in the rectangle.

        d_r moves (p, q) to (p - r + 1, q + r), so, counting the rectangle
        in cells, its target can stay in it only while r <= width and
        r < height: the two-row Right band has no r to check, the Left band
        only r = 2.  For each r, a column's sources with a target in the
        rectangle are its bottom height - r cells, and their targets the top
        height - r cells of the column r - 1 places to the left.
        """
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        width, height = p1 - p0 + 1, q1 - q0 + 1
        statuses = self.statuses
        for r in range(2, min(width, height - 1) + 1):
            for col in range(r - 1, width):
                sources = statuses[col * height:(col + 1) * height - r]
                targets = statuses[(col - r + 1) * height + r:(col - r + 2) * height]
                if any(_is_live(itertools.compress(targets, _is_live(sources)))):
                    return False
        return True

    def render(self) -> str:
        """Matrix display, top row = largest q, for CLI/demo output."""
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        height = q1 - q0 + 1
        lines = [f"{self.side.value} page (E_2)"]
        for row in range(height - 1, -1, -1):
            marks = map(_MARKS.__getitem__, self.statuses[row::height])
            cells = [f"{mark} ({p},{q0 + row})" for p, mark in zip(range(p0, p1 + 1), marks)]
            lines.append("  " + "   ".join(cells))
        return "\n".join(lines)


def _is_live(statuses: Iterable[TermStatus]) -> Iterator[bool]:
    """Whether each of ``statuses`` is not Zero, lazily and in C."""
    return map(operator.is_not, statuses, itertools.repeat(TermStatus.ZERO))


# The mark PageGrid.render shows for each status.
_MARKS = {TermStatus.ZERO: "0", TermStatus.NONZERO: "*", TermStatus.UNKNOWN: "?"}


# -- derived relations ----------------------------------------------------


@value_class
class TermRef:
    side: Side
    pos: Pos
    label: str

    def _check(self) -> None:
        """That the label is the one the side and position give."""
        p, q = self.pos
        label = left_label(p, q) if self.side is Side.LEFT else right_label(p, q)
        if self.label != label:
            raise ValueError(
                f"the {self.side.value} term at {self.pos} is {label!r}, "
                f"not {self.label!r}"
            )


# TermRefs the solver keeps made.  The pages of dimension n have 4(n + 1)
# terms, those of a smaller n among them, so this holds every ref of every
# solve up to n = 1 023.  Knocking the cache out costs duality 59 % of
# its throughput (BENCH_35.json).
TERM_REF_CACHE_SIZE = 4096


@lru_cache(maxsize=TERM_REF_CACHE_SIZE)
def _term_ref(is_left: bool, pos: Pos) -> TermRef:
    """The ref the solver names the term at ``pos`` by, shared by every solve:
    a TermRef is immutable and its label a function of side and position.
    Keyed on a bool, since hashing a Side member runs Enum.__hash__ in Python."""
    if is_left:
        return TermRef(Side.LEFT, pos, left_label(*pos))
    return TermRef(Side.RIGHT, pos, right_label(*pos))


def _check_degree(degree: int, *refs: TermRef) -> None:
    """Refuse a relation that names a term off its own antidiagonal.

    Each relation's ``_check`` holds the cross-field checks, the shape the
    solver always emits: its constructor and its JSON decoder run it for
    relations built elsewhere, while the solver builds its own through
    :func:`weierfm.rationals.trusted`.
    """
    for ref in refs:
        if sum(ref.pos) != degree:
            raise ValueError(
                f"the {ref.side.value} term at {ref.pos} is in total degree "
                f"{sum(ref.pos)}, not {degree}"
            )


@value_class
class Identification:
    """The two terms are the only survivors in their total degree, hence
    both compute the common limit and are identified."""

    degree: int
    left: TermRef
    right: TermRef

    def _check(self) -> None:
        if self.left.side is not Side.LEFT or self.right.side is not Side.RIGHT:
            raise ValueError("an Identification joins a left term to a right term")
        _check_degree(self.degree, self.left, self.right)

    def render(self) -> str:
        return f"[k={self.degree}] {self.left.label} ≅ {self.right.label}"


@value_class
class ForcedZero:
    degree: int
    term: TermRef

    def _check(self) -> None:
        _check_degree(self.degree, self.term)

    def render(self) -> str:
        return f"[k={self.degree}] {self.term.label} = 0"


@value_class
class ShortExact:
    """0 -> sub -> mid -> quot -> 0 from the two-step limit filtration."""

    degree: int
    sub: TermRef
    mid: TermRef
    quot: TermRef

    def _check(self) -> None:
        if self.sub.side is not self.quot.side or self.mid.side is self.sub.side:
            raise ValueError(
                "a ShortExact has its sub and quot on one page and its mid on the other"
            )
        if self.sub.pos[1] <= self.quot.pos[1]:
            raise ValueError("a ShortExact's sub is the term with the larger q")
        _check_degree(self.degree, self.sub, self.mid, self.quot)

    def render(self) -> str:
        return (
            f"[k={self.degree}] 0 → {self.sub.label} → {self.mid.label}"
            f" → {self.quot.label} → 0"
        )


@value_class
class Forbidden:
    degree: int
    reason: str

    def render(self) -> str:
        return f"[k={self.degree}] contradiction: {self.reason}"


DerivedRelation = Identification | ForcedZero | ShortExact | Forbidden


def _conclusion(scenario: SheafScenario, kind: ConclusionKind) -> Conclusion:
    """The DualIsWIT1 or DualIdentification conclusion for ``scenario``,
    built through its trusted constructor from the three fields computed
    here."""
    if kind is ConclusionKind.DUAL_IS_WIT1:
        return trusted(Conclusion)(kind, "Φ^0(E^D) = 0, so E^D is WIT1", scenario.c == 0)
    statement = f"ι*(Φ^0(E^D)) ⊗ p*L = (Φ^{scenario.wit_degree}E)^D"
    return trusted(Conclusion)(kind, statement, False)


# -- page construction ----------------------------------------------------


def build_pages(scenario: SheafScenario) -> tuple[PageGrid, PageGrid]:
    """E2 pages for one scenario, statuses seeded with the input facts."""
    require(scenario, SheafScenario, "scenario")
    n, c = scenario.n, scenario.c
    cT = scenario.transform_codim
    zero, unknown = TermStatus.ZERO, TermStatus.UNKNOWN
    dead = (zero,) * (n + 1)  # the dead WIT column
    surviving = (
        (zero,) * cT  # below the transform's codim
        # top local Ext of a sheaf of codim exactly cT: its dual, nonzero
        # because the transform of a nonzero sheaf survives
        + (TermStatus.NONZERO,)
        + (unknown,) * (n - cT)
    )
    left = dead + surviving if scenario.surviving_column == 0 else surviving + dead
    # Two cells per Right column; the columns p < c vanish.
    right = (zero,) * (2 * c) + (unknown,) * (2 * (n + 1 - c))
    page = trusted(PageGrid)
    return (
        page(Side.LEFT, n, (-1, 0), (0, n), left, ()),
        page(Side.RIGHT, n, (0, n), (-1, 0), right, (((c, -1), (c, 0)),)),
    )


# Live cells by total degree, as _live_by_degree fills them in: each
# cell's index in the solve's list of statuses and its position.
_LiveByDegree = dict[int, list[tuple[int, Pos]]]


def _live_by_degree(grid: PageGrid, offset: int, live: _LiveByDegree) -> None:
    """Add to ``live`` the cells of ``grid`` that are not Zero, each as
    ``offset`` plus its index in ``statuses`` and its position, grouped by
    total degree p + q in one walk of the statuses: within a degree a
    smaller p is a larger q, so column order gives each group larger q
    first."""
    (p0, _), (q0, q1) = grid.p_range, grid.q_range
    height = q1 - q0 + 1
    for i in itertools.compress(itertools.count(), _is_live(grid.statuses)):
        column, row = divmod(i, height)
        p, q = pos = p0 + column, q0 + row
        if (k := p + q) in live:
            live[k].append((offset + i, pos))
        else:
            live[k] = [(offset + i, pos)]


def _check_degenerated(grid: PageGrid) -> None:
    """Refuse a page on which a differential can still act."""
    if not grid.is_settled():
        raise InternalCheckError(
            f"a differential can act on the {grid.side.value} page, "
            "so it does not degenerate at E_2"
        )


def degenerate(grid: PageGrid) -> tuple[PageGrid, int]:
    """Check that the page has degenerated at E2; return it with page 2.

    In every scenario ``build_pages`` seeds, no differential can act (the
    Right band has two rows and the Left band a dead column), so the
    statuses already describe the limit.  A grid on which some d_r could
    still act breaks that invariant and raises ``InternalCheckError``.  A
    page is checked when it is built, so only an argument that is not a
    PageGrid is refused here, with ValueError.
    """
    require(grid, PageGrid, "page")
    _check_degenerated(grid)
    return grid, 2


# -- limit comparison ------------------------------------------------------


def _solve(left: PageGrid, right: PageGrid) -> tuple[list[DerivedRelation], PageGrid, PageGrid]:
    """The three passes of the module docstring over two settled pages:
    the relations, in the order the passes emit them, and the two pages
    with their refined statuses.

    Both pages' statuses are copied into one list, the left page's first,
    which the passes refine; a cell is its index there.  One grouping
    (``_live_by_degree``) holds both pages' live cells, each degree's left
    cells before its right ones, so the cells of a degree with an index
    below the right page's offset are its left cells.  The first pass
    takes each degree's group out of the grouping as it reads it, so a
    solve never holds both its grouping and all its relations.  It builds
    the relations through their trusted constructors; the public ones
    would cost duality 27 % of its throughput (BENCH_35.json).
    """
    identification, forced_zero = trusted(Identification), trusted(ForcedZero)
    short_exact = trusted(ShortExact)
    zero, nonzero = TermStatus.ZERO, TermStatus.NONZERO
    split = len(left.statuses)
    statuses = [*left.statuses, *right.statuses]
    live: _LiveByDegree = {}
    _live_by_degree(left, 0, live)
    _live_by_degree(right, split, live)
    relations: list[DerivedRelation] = []
    # (source, source, targets) of each Identification and ShortExact: the
    # third pass makes the targets NonZero when a source is.
    carries: list[tuple[int, int, tuple[int, ...]]] = []
    for k in sorted(live):
        cells = live.pop(k)
        # (split,) sorts after every left cell and before every right one.
        lefts = bisect.bisect_left(cells, (split,))
        if lefts in (0, len(cells)):
            # Every survivor faces an empty page.
            on_left = lefts > 0
            empty = Side.RIGHT if on_left else Side.LEFT
            for i, pos in cells:
                ref = _term_ref(on_left, pos)
                if statuses[i] is nonzero:
                    reason = (
                        f"{ref.label} is required nonzero but an empty "
                        f"{empty.value} page in total degree {k} forces it to vanish"
                    )
                    relations.append(Forbidden(k, reason))
                else:  # live, so Unknown
                    statuses[i] = zero
                    relations.append(forced_zero(k, ref))
        elif len(cells) == 2:  # one on each side
            (i_l, pos_l), (i_r, pos_r) = cells
            ref_l, ref_r = _term_ref(True, pos_l), _term_ref(False, pos_r)
            relations.append(identification(k, ref_l, ref_r))
            carries.append((i_l, i_r, (i_l, i_r)))
        elif len(cells) == 3:  # one against two
            # Each side's cells come larger q first; the deeper filtration
            # step (larger outer degree, i.e. larger q) is the subobject
            mid_on_left = lefts == 1
            if mid_on_left:
                (mid, mid_pos), (sub, sub_pos), (quot, quot_pos) = cells
            else:
                (sub, sub_pos), (quot, quot_pos), (mid, mid_pos) = cells
            sub_ref = _term_ref(not mid_on_left, sub_pos)
            mid_ref = _term_ref(mid_on_left, mid_pos)
            quot_ref = _term_ref(not mid_on_left, quot_pos)
            relations.append(short_exact(k, sub_ref, mid_ref, quot_ref))
            carries.append((sub, quot, (mid,)))
    # A page may repeat a group; its Forbidden is emitted once, the first
    # time, found in a set rather than by a scan of the relations.
    forbidden_groups: set[Forbidden] = set()
    for grid, offset in ((left, 0), (right, split)):
        for group in grid.joint_nonzero:
            cells = [offset + grid.index(pos) for pos in group]
            zeros = [statuses[i] for i in cells].count(zero)
            if zeros == len(group):
                is_left = grid.side is Side.LEFT
                labels = ", ".join(_term_ref(is_left, pos).label for pos in group)
                forbidden = Forbidden(
                    max(p + q for p, q in group),
                    "every term of a jointly-nonzero group vanished: " + labels,
                )
                if forbidden not in forbidden_groups:
                    forbidden_groups.add(forbidden)
                    relations.append(forbidden)
            elif zeros == len(group) - 1:
                for i in cells:
                    if statuses[i] is TermStatus.UNKNOWN:
                        statuses[i] = nonzero
    for one, other, targets in carries:
        if statuses[one] is nonzero or statuses[other] is nonzero:
            for i in targets:
                statuses[i] = nonzero
    page = trusted(PageGrid)
    return (
        relations,
        page(left.side, left.n, left.p_range, left.q_range, tuple(statuses[:split]),
             left.joint_nonzero),
        page(right.side, right.n, right.p_range, right.q_range, tuple(statuses[split:]),
             right.joint_nonzero),
    )


def compare_limits(left: PageGrid, right: PageGrid) -> list[DerivedRelation]:
    """Equate the two limits degree by degree; return the relations.

    Both grids must already be degenerate (no differential can act), since
    the comparison reads the pages as the limit's graded pieces; a page on
    which one can act is a ValueError.  The pages are frozen and stay as
    they were: the statuses the relations refine come with the relations
    from ``solve_scenario``.
    """
    require(left, PageGrid, "left page")
    require(right, PageGrid, "right page")
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("compare_limits takes (left page, right page)")
    if left.n != right.n:
        raise ValueError("pages disagree about the ambient dimension")
    for grid in (left, right):
        if not grid.is_settled():
            raise ValueError(
                "compare_limits requires degenerated pages; call degenerate() first"
            )
    return _solve(left, right)[0]


# -- closed form and the full pipeline -------------------------------------


# Closed-form verdict per (wit, dim_shift): the conclusion's kind, or why
# no sheaf has that transform.
_DECISIONS: dict[tuple[WitType, int], ConclusionKind | str] = {
    (WitType.WIT0, 1): ConclusionKind.DUAL_IDENTIFICATION,
    (WitType.WIT0, 0): ConclusionKind.DUAL_IS_WIT1,
    (WitType.WIT0, -1): "dimension drop under a WIT0 transform is impossible",
    (WitType.WIT1, 1): "dimension rise under a WIT1 transform is impossible",
    (WitType.WIT1, 0): ConclusionKind.DUAL_IDENTIFICATION,
    (WitType.WIT1, -1): ConclusionKind.DUAL_IS_WIT1,
}


def duality_decision(scenario: SheafScenario) -> Conclusion:
    """Closed-form verdict on the dual of the surviving transform."""
    require(scenario, SheafScenario, "scenario")
    decision = _DECISIONS[scenario.wit, scenario.dim_shift]
    if isinstance(decision, str):
        return Conclusion(ConclusionKind.FORBIDDEN, decision)
    return _conclusion(scenario, decision)


@value_class
class ScenarioSolution:
    scenario: SheafScenario
    left: PageGrid
    right: PageGrid
    left_page: int
    right_page: int
    relations: tuple[DerivedRelation, ...]
    conclusion: Conclusion


def _entailed_conclusion(
    scenario: SheafScenario, right: PageGrid, relations: list[DerivedRelation]
) -> Conclusion:
    for rel in relations:
        if isinstance(rel, Forbidden):
            return Conclusion(ConclusionKind.FORBIDDEN, rel.reason)
    anchor = (scenario.c, -1)  # ι*(Φ^0 E^D) ⊗ p*L
    if right.status(anchor) is TermStatus.ZERO:
        return _conclusion(scenario, ConclusionKind.DUAL_IS_WIT1)
    expected_partner = (scenario.surviving_column, scenario.transform_codim)
    for rel in relations:
        if isinstance(rel, Identification) and rel.right.pos == anchor:
            if rel.left.pos != expected_partner:
                raise InternalCheckError(
                    f"Φ^0(E^D) identified with {rel.left.label}, not with the "
                    "dual of the surviving transform"
                )
            return _conclusion(scenario, ConclusionKind.DUAL_IDENTIFICATION)
    raise InternalCheckError(
        "limit comparison resolved neither vanishing nor identification "
        f"for Φ^0(E^D) in scenario {scenario}"
    )


def solve_scenario(scenario: SheafScenario) -> ScenarioSolution:
    """build_pages -> degenerate -> compare_limits -> entailed conclusion;
    build_pages refuses a ``scenario`` that is not a SheafScenario."""
    left, right = build_pages(scenario)
    _check_degenerated(left)
    _check_degenerated(right)
    relations, left, right = _solve(left, right)
    conclusion = _entailed_conclusion(scenario, right, relations)
    # The public constructor would cost duality 9 % of its throughput (BENCH_35.json).
    return trusted(ScenarioSolution)(
        scenario, left, right, 2, 2, tuple(relations), conclusion
    )
