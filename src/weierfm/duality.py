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

Each solve builds both pages column by column from runs of equal statuses,
checks that no differential can act on either, and groups each page's live
(not Zero) terms by total degree in one walk of its dict; a dict filled
column by column gives each degree's terms larger q first.  That grouping
checks nothing.  A page a caller hands in, to ``degenerate``,
``compare_limits`` or ``PageGrid.render``, passes a boundary check first.
It refuses a page whose own fields are not of their annotated classes
(side, n, the two ranges, terms, joint_nonzero).  Then a walk of its
rectangle, column by column, refuses an empty rectangle, a missing term,
an entry that is not a Term or a status that is not a TermStatus, and a
jointly-nonzero group that is not a non-empty tuple of positions of the
rectangle, and returns the rectangle's terms, the page's own objects, in
that order.  Only where the dict holds more terms than the rectangle does
it walk the dict too, and refuse an extra key that is not a pair of ints
or an extra entry that is not a Term with a TermStatus, since
``is_settled`` reads those as sources.  ``build_pages`` makes its pages
complete and in that order, so a solve skips the boundary check.  The
first pass runs over the union of the two groupings' degrees in ascending
order, takes each degree's groups out of them and looks each term up by
its position; the second pass reads the jointly-nonzero groups, the third
the relations the first emitted.  Grouping before the first pass is exact: a term turns Zero
only while its own degree is processed, so each degree's live terms are,
until then, the ones the grouping found.  The grouping and each pass are
linear in the number of terms and groups, so for the pages of a scenario,
which hold one group, time and memory are linear in n.  The TermRefs the
relations name, labels included, are made once per process and shared by
every solve.  The verdict a solve ends in, ``Conclusion`` of a
``ConclusionKind``, is defined in :mod:`weierfm.fm`, so the layers that
read it need not load this module.

Each entry point refuses an argument of the wrong class with
:func:`weierfm.rationals.require`'s ValueError before reading it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InfeasibleScenarioError, InternalCheckError
from .fm import Conclusion, ConclusionKind, WitType
from .rationals import is_int, require, trusted, value_class


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class TermStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


@dataclass(slots=True)
class Term:
    """One E_2 cell; the solver refines its status in place."""
    status: TermStatus


Pos = tuple[int, int]

# Largest dimension n a SheafScenario accepts.  A solve peaks at 0.6-2.4 KiB
# per unit of n (tracemalloc, n = 1 600 to 25 600; what it leaves held, the
# solution and the shared term references, is 0.6-2.3), so this keeps one
# solve under ~240 MiB.
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

    solve_scenario takes time and memory linear in n: it peaks at 0.6-2.4
    KiB per unit of n, and what it leaves held, the solution and the shared
    term references, is 0.6-2.3.
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


@dataclass
class PageGrid:
    """One rectangular E_2 page: a Term per (p, q) in p_range × q_range.

    joint_nonzero lists groups of positions of which at least one must end
    up NonZero (used for the transform of E^D, which may vanish in either
    single degree but not both).
    """

    side: Side
    n: int
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    terms: dict[Pos, Term]
    joint_nonzero: tuple[tuple[Pos, ...], ...] = ()

    def in_region(self, pos: Pos) -> bool:
        p, q = pos
        return (
            self.p_range[0] <= p <= self.p_range[1]
            and self.q_range[0] <= q <= self.q_range[1]
        )

    def status(self, pos: Pos) -> TermStatus:
        if not self.in_region(pos):
            return TermStatus.ZERO
        return self.terms[pos].status

    def is_settled(self) -> bool:
        """No differential d_r (r >= 2) joins a term that is not Zero to a
        target in the region that is not Zero.

        d_r moves (p, q) to (p - r + 1, q + r), so its target can stay in
        the region only while r <= width + 1 and r <= height: the two-row
        Right band has no r to check, the Left band only r = 2.
        """
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        steps = range(2, min(p1 - p0 + 1, q1 - q0) + 1)
        if not steps:
            return True
        terms, zero = self.terms, TermStatus.ZERO
        for (p, q), term in terms.items():
            if term.status is not zero:
                for r in steps:
                    tp, tq = p - r + 1, q + r
                    if p0 <= tp <= p1 and q0 <= tq <= q1 and terms[tp, tq].status is not zero:
                        return False
        return True

    def render(self) -> str:
        """Matrix display, top row = largest q, for CLI/demo output; a
        malformed page is a ValueError, as ``degenerate`` refuses it."""
        terms = _page_terms(self)
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        lines = [f"{self.side.value} page (E_2)"]
        for q in range(q1, q0 - 1, -1):
            cells = [f"{_MARKS[terms[p, q].status]} ({p},{q})" for p in range(p0, p1 + 1)]
            lines.append("  " + "   ".join(cells))
        return "\n".join(lines)


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
# solve up to n = 1 023.  Knocking the cache out costs duality 36 % of
# its throughput (BENCH_17.json).
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


def _page(
    side: Side,
    n: int,
    p_range: tuple[int, int],
    q_range: tuple[int, int],
    runs: tuple[tuple[TermStatus, int], ...],
    joint_nonzero: tuple[tuple[Pos, ...], ...] = (),
) -> PageGrid:
    """A page whose cells, column by column (p ascending, then q ascending),
    take the statuses of ``runs``: (status, count) pairs covering the region,
    each cell its own Term."""
    (p0, p1), (q0, q1) = p_range, q_range
    cells = itertools.product(range(p0, p1 + 1), range(q0, q1 + 1))
    statuses = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, runs))
    terms = dict(zip(cells, map(Term, statuses), strict=True))
    return PageGrid(side, n, p_range, q_range, terms, joint_nonzero)


def build_pages(scenario: SheafScenario) -> tuple[PageGrid, PageGrid]:
    """E2 pages for one scenario, statuses seeded with the input facts."""
    require(scenario, SheafScenario, "scenario")
    n, c = scenario.n, scenario.c
    cT = scenario.transform_codim
    dead = ((TermStatus.ZERO, n + 1),)  # the dead WIT column
    surviving = (
        (TermStatus.ZERO, cT),  # below the transform's codim
        # top local Ext of a sheaf of codim exactly cT: its dual, nonzero
        # because the transform of a nonzero sheaf survives
        (TermStatus.NONZERO, 1),
        (TermStatus.UNKNOWN, n - cT),
    )
    left_runs = dead + surviving if scenario.surviving_column == 0 else surviving + dead
    left = _page(Side.LEFT, n, (-1, 0), (0, n), left_runs)
    # Two cells per Right column; the columns p < c vanish.
    right_runs = ((TermStatus.ZERO, 2 * c), (TermStatus.UNKNOWN, 2 * (n + 1 - c)))
    right = _page(
        Side.RIGHT, n, (0, n), (-1, 0), right_runs, joint_nonzero=(((c, -1), (c, 0)),)
    )
    return left, right


def _require_pair(value: object, what: str) -> None:
    """Refuse with :func:`require`'s ValueError a ``value`` that is not a
    pair of ints, the rule of a ``tuple[int, int]`` field."""
    require(value, tuple, what)
    if len(value) != 2:
        raise ValueError(f"{what} must have 2 entries, got {len(value)}")
    for x in value:
        require(x, int, f"an entry of {what}")


def _require_term(term: object, side: str, pos: object) -> None:
    """Refuse with ValueError an entry at ``pos`` of the ``side`` page that
    is not a Term with a TermStatus."""
    require(term, Term, f"the {side} page's entry at {pos}")
    require(term.status, TermStatus, f"the status of the {side} term at {pos}")


def _page_terms(grid: PageGrid) -> dict[Pos, Term]:
    """The boundary check of a page a caller hands in: its rectangle's
    terms, the page's own objects, keyed column by column (p ascending,
    then q ascending), the order ``_live_by_degree`` reads.

    It refuses (ValueError, naming the field) a page whose own fields are
    not of their annotated classes: a side that is not a Side, an n that is
    not an int, a range that is not a pair of ints, terms that are not a
    dict or a joint_nonzero that is not a tuple.  Then it refuses an empty
    rectangle, a position of the rectangle with no term (the first the walk
    reaches, so the smallest), an entry that is not a Term or whose status
    is not a TermStatus, and a joint_nonzero group that is not a non-empty
    tuple of positions of the rectangle.  Terms outside the rectangle are
    read only as ``is_settled``'s d_r sources; where the dict holds more
    terms than the rectangle, each extra key must be a pair of ints and
    each extra entry a Term with a TermStatus.
    """
    require(grid.side, Side, "a page's side")
    side = grid.side.value
    require(grid.n, int, f"the {side} page's n")
    _require_pair(grid.p_range, f"the {side} page's p_range")
    _require_pair(grid.q_range, f"the {side} page's q_range")
    require(grid.terms, dict, f"the {side} page's terms")
    require(grid.joint_nonzero, tuple, f"the {side} page's joint_nonzero")
    terms = grid.terms
    (p0, p1), (q0, q1) = grid.p_range, grid.q_range
    if p0 > p1 or q0 > q1:
        raise ValueError(f"the {side} page's rectangle {grid.p_range} × {grid.q_range} is empty")
    cells: dict[Pos, Term] = {}
    for pos in itertools.product(range(p0, p1 + 1), range(q0, q1 + 1)):
        try:
            term = cells[pos] = terms[pos]
        except KeyError:
            raise ValueError(f"the {side} page has no term at {pos}") from None
        # The exact types pass at once; anything else gets require's rules.
        if type(term) is not Term or type(term.status) is not TermStatus:
            _require_term(term, side, pos)
    if len(terms) > len(cells):
        for pos, term in terms.items():
            if pos not in cells:
                _require_pair(pos, f"a position of the {side} page's terms")
                _require_term(term, side, pos)
    for group in grid.joint_nonzero:
        is_group = isinstance(group, tuple) and all(isinstance(pos, tuple) for pos in group)
        if not is_group or not group:
            raise ValueError(
                f"a joint_nonzero group of the {side} page must be a non-empty "
                f"tuple of positions, got {group!r}"
            )
        for pos in group:
            if not all(map(is_int, pos)) or pos not in cells:
                raise ValueError(f"a joint_nonzero group names {pos}, outside the {side} page")
    return cells


# A page's live positions by total degree, as _live_by_degree returns them.
_LiveByDegree = dict[int, list[Pos]]


def _live_by_degree(terms: dict[Pos, Term]) -> _LiveByDegree:
    """The positions of the terms that are not Zero, each the dict's own
    key, grouped by total degree p + q in one walk of a dict filled column
    by column: within a degree a smaller p is a larger q, so each group
    comes larger q first."""
    zero = TermStatus.ZERO
    live: _LiveByDegree = {}
    for pos, term in terms.items():
        if term.status is not zero:
            p, q = pos
            if (k := p + q) in live:
                live[k].append(pos)
            else:
                live[k] = [pos]
    return live


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
    still act breaks that invariant and raises ``InternalCheckError``.
    Checked first, a malformed grid is a ValueError: a field that is not of
    its annotated class, an empty rectangle, a hole in it (the smallest is
    named), an entry that is not a Term or a status that is not a
    TermStatus, inside the rectangle or outside it, an extra key that is not
    a pair of ints, or a joint_nonzero group that is not a non-empty tuple
    of positions of the rectangle.
    """
    require(grid, PageGrid, "page")
    _page_terms(grid)
    _check_degenerated(grid)
    return grid, 2


# -- limit comparison ------------------------------------------------------


def _solve(
    left: PageGrid, right: PageGrid, terms_l: dict[Pos, Term], terms_r: dict[Pos, Term]
) -> list[DerivedRelation]:
    """The three passes of the module docstring over each page's rectangle,
    ``terms_l`` and ``terms_r``, column-ordered dicts of the pages' own
    terms; statuses refine in place.

    The first pass takes each degree's groups out of the two pages'
    groupings (``_live_by_degree``) as it reads them, so a solve never holds
    both its groupings and all its relations.  It builds the relations
    through their trusted constructors; the public ones would cost duality
    11 % of its throughput (BENCH_17.json).
    """
    identification, forced_zero = trusted(Identification), trusted(ForcedZero)
    short_exact = trusted(ShortExact)
    zero, nonzero = TermStatus.ZERO, TermStatus.NONZERO
    live_left, live_right = _live_by_degree(terms_l), _live_by_degree(terms_r)
    relations: list[DerivedRelation] = []
    # (source, source, targets) of each Identification and ShortExact: the
    # third pass makes the targets NonZero when a source is.
    carries: list[tuple[Term, Term, tuple[Term, ...]]] = []
    for k in sorted(live_left.keys() | live_right.keys()):
        lives_l, lives_r = live_left.pop(k, ()), live_right.pop(k, ())
        if not lives_l or not lives_r:
            # Every survivor faces an empty page.
            on_left = bool(lives_l)
            empty = Side.RIGHT if on_left else Side.LEFT
            terms = terms_l if on_left else terms_r
            for pos in lives_l or lives_r:
                ref = _term_ref(on_left, pos)
                term = terms[pos]
                if term.status is nonzero:
                    reason = (
                        f"{ref.label} is required nonzero but an empty "
                        f"{empty.value} page in total degree {k} forces it to vanish"
                    )
                    relations.append(Forbidden(k, reason))
                else:  # live, so Unknown
                    term.status = zero
                    relations.append(forced_zero(k, ref))
        elif len(lives_l) == 1 and len(lives_r) == 1:
            [pos_l], [pos_r] = lives_l, lives_r
            ref_l, ref_r = _term_ref(True, pos_l), _term_ref(False, pos_r)
            relations.append(identification(k, ref_l, ref_r))
            term_l, term_r = terms_l[pos_l], terms_r[pos_r]
            carries.append((term_l, term_r, (term_l, term_r)))
        elif len(lives_l) + len(lives_r) == 3:  # one against two
            mid_on_left = len(lives_l) == 1
            one, two = (lives_l, lives_r) if mid_on_left else (lives_r, lives_l)
            mid_terms, pair_terms = (terms_l, terms_r) if mid_on_left else (terms_r, terms_l)
            # The cells come larger q first; the deeper filtration step
            # (larger outer degree, i.e. larger q) is the subobject
            [mid_pos], [sub_pos, quot_pos] = one, two
            sub_ref = _term_ref(not mid_on_left, sub_pos)
            mid_ref = _term_ref(mid_on_left, mid_pos)
            quot_ref = _term_ref(not mid_on_left, quot_pos)
            relations.append(short_exact(k, sub_ref, mid_ref, quot_ref))
            carries.append((pair_terms[sub_pos], pair_terms[quot_pos], (mid_terms[mid_pos],)))
    for grid, page_terms in ((left, terms_l), (right, terms_r)):
        for group in grid.joint_nonzero:
            terms = [page_terms[pos] for pos in group]
            zeros = sum(term.status is zero for term in terms)
            if zeros == len(group):
                is_left = grid.side is Side.LEFT
                labels = ", ".join(_term_ref(is_left, pos).label for pos in group)
                forbidden = Forbidden(
                    max(p + q for p, q in group),
                    "every term of a jointly-nonzero group vanished: " + labels,
                )
                # A page may repeat a group; its Forbidden is emitted once.
                if forbidden not in relations:
                    relations.append(forbidden)
            elif zeros == len(group) - 1:
                for term in terms:
                    if term.status is TermStatus.UNKNOWN:
                        term.status = nonzero
    for one, other, targets in carries:
        if nonzero in (one.status, other.status):
            for term in targets:
                term.status = nonzero
    return relations


def compare_limits(left: PageGrid, right: PageGrid) -> list[DerivedRelation]:
    """Equate the two limits degree by degree; refine statuses in place.

    Both grids must already be degenerate (no differential can act), since
    the comparison reads the pages as the limit's graded pieces.  Each is
    refused first if malformed, as ``degenerate`` refuses it: a field that
    is not of its annotated class, an empty rectangle, a hole in it, an
    entry that is not a Term or a status that is not a TermStatus, an extra
    key that is not a pair of ints, or a joint_nonzero group that is not a
    non-empty tuple of positions of the rectangle.  Every refusal is a
    ValueError, raised before any status of either page changes.  Terms
    outside a rectangle are never read or written, except as sources of
    ``is_settled``'s differentials.
    """
    require(left, PageGrid, "left page")
    require(right, PageGrid, "right page")
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("compare_limits takes (left page, right page)")
    if left.n != right.n:
        raise ValueError("pages disagree about the ambient dimension")
    terms_l, terms_r = _page_terms(left), _page_terms(right)
    for grid in (left, right):
        if not grid.is_settled():
            raise ValueError(
                "compare_limits requires degenerated pages; call degenerate() first"
            )
    return _solve(left, right, terms_l, terms_r)


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
    if right.terms[anchor].status is TermStatus.ZERO:
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
    # build_pages fills each page's whole rectangle column by column, so
    # the solve reads the pages' own dicts without the boundary check.
    _check_degenerated(left)
    _check_degenerated(right)
    relations = _solve(left, right, left.terms, right.terms)
    conclusion = _entailed_conclusion(scenario, right, relations)
    # The public constructor would cost duality 4 % of its throughput (BENCH_18.json).
    return trusted(ScenarioSolution)(
        scenario, left, right, 2, 2, tuple(relations), conclusion
    )
