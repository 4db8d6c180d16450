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
p + q forces term-by-term relations between the two sides, which a small
fixpoint loop turns into Identification / ForcedZero / ShortExact facts,
or into a contradiction when the scenario is impossible.

A scan of degree k reads and writes only antidiagonal k, and rerun on what
it left there it emits only duplicates.  When one term lives on each side
it emits their Identification and carries NonZero from one to the other;
both stay live for the rest of the solve, since a term turns Zero only
while the other side of k has no live term.  Every status change marks its
own degree dirty.  The loop scans the dirty degrees in ascending order (at
first every degree holding a term that is not Zero: no status leaves Zero,
so a scan of any other degree does nothing), then checks the joint
constraints, which are the only status changes made outside a degree's own
scan, and stops when no degree is dirty.  A solve therefore makes at most
(number of degrees + number of status changes) scans, each over at most four
terms: time and memory are linear in n.

Each solve builds both pages column by column from runs of equal statuses
and indexes the scanned degrees' cells by antidiagonal once.  The TermRefs
its relations name, labels included, are made once per process and shared
by every solve.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InfeasibleScenarioError, InternalCheckError
from .fm import WitType
from .rationals import is_int, prevalidated


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

# Largest dimension n a SheafScenario accepts.  A solve peaks at 1.6-2.6 KiB
# per unit of n (its solution then holds 1.3-2.0), so this keeps one solve
# under ~260 MiB.
MAX_SCENARIO_DIMENSION = 100_000


def left_label(p: int, q: int) -> str:
    return f"Ext^{q}(Φ^{-p}E, O_X)"


def right_label(p: int, q: int) -> str:
    return f"ι*(Φ^{q + 1}Ext^{p}(E, O_X)) ⊗ p*L"


@dataclass(frozen=True)
class SheafScenario:
    """Dimension bookkeeping for one sheaf E on X.

    n          -- dimension of X, a positive integer at most
                  MAX_SCENARIO_DIMENSION (a larger n is a ValueError)
    c          -- codimension of E, 0 <= c <= n
    wit        -- which single degree the transform of E lives in
    dim_shift  -- dim(surviving transform) - dim(E), in {-1, 0, +1};
                  this is an exact statement, not an inequality

    solve_scenario takes time and memory linear in n: it peaks at 1.6-2.6
    KiB per unit of n, and the solution it returns holds 1.3-2.0.
    """

    n: int
    c: int
    wit: WitType
    dim_shift: int

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise InfeasibleScenarioError("n must be a positive integer")
        if self.n > MAX_SCENARIO_DIMENSION:
            raise ValueError(
                f"n={self.n} exceeds the scenario dimension cap "
                f"{MAX_SCENARIO_DIMENSION}"
            )
        if not is_int(self.c) or not 0 <= self.c <= self.n:
            raise InfeasibleScenarioError(
                f"codimension c={self.c!r} outside [0, {self.n}]"
            )
        if not isinstance(self.wit, WitType):
            raise InfeasibleScenarioError("wit must be a WitType")
        if not is_int(self.dim_shift) or self.dim_shift not in (-1, 0, 1):
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

    def degrees(self) -> range:
        return range(
            self.p_range[0] + self.q_range[0],
            self.p_range[1] + self.q_range[1] + 1,
        )

    def diagonal(self, k: int) -> list[tuple[Pos, Term]]:
        """The cells with p + q = k, Zero or not, larger q first."""
        (p0, p1), (q0, q1) = self.p_range, self.q_range
        terms = self.terms
        cells = []
        for q in range(min(q1, k - p0), max(q0, k - p1) - 1, -1):
            pos = (k - q, q)
            cells.append((pos, terms[pos]))
        return cells

    def live_on_diagonal(self, k: int) -> list[tuple[Pos, Term]]:
        """The terms with p + q = k that are not Zero, larger q first."""
        return [cell for cell in self.diagonal(k) if cell[1].status is not TermStatus.ZERO]

    def is_settled(self) -> bool:
        """No differential d_r (r >= 2) joins two terms that are not Zero.

        d_r moves (p, q) to (p - r + 1, q + r), so its target can stay in
        the region only while r <= width + 1 and r <= height: the two-row
        Right band has no r to check, the Left band only r = 2.
        """
        width = self.p_range[1] - self.p_range[0]
        height = self.q_range[1] - self.q_range[0]
        for r in range(2, min(width + 1, height) + 1):
            for (p, q), term in self.terms.items():
                if (
                    term.status is not TermStatus.ZERO
                    and self.status((p - r + 1, q + r)) is not TermStatus.ZERO
                ):
                    return False
        return True

    def render(self) -> str:
        """Matrix display, top row = largest q, for CLI/demo output."""
        lines = [f"{self.side.value} page (E_2)"]
        for q in range(self.q_range[1], self.q_range[0] - 1, -1):
            cells = []
            for p in range(self.p_range[0], self.p_range[1] + 1):
                term = self.terms[(p, q)]
                mark = {
                    TermStatus.ZERO: "0",
                    TermStatus.NONZERO: "*",
                    TermStatus.UNKNOWN: "?",
                }[term.status]
                cells.append(f"{mark} ({p},{q})")
            lines.append("  " + "   ".join(cells))
        return "\n".join(lines)


# -- derived relations ----------------------------------------------------


@dataclass(frozen=True)
class TermRef:
    side: Side
    pos: Pos
    label: str

    def __post_init__(self) -> None:
        p, q = self.pos
        label = left_label(p, q) if self.side is Side.LEFT else right_label(p, q)
        if self.label != label:
            raise ValueError(
                f"the {self.side.value} term at {self.pos} is {label!r}, "
                f"not {self.label!r}"
            )

    def __hash__(self) -> int:
        # Equal refs have equal labels; the label's hash is cached by str,
        # and hashing the Side member would run Enum.__hash__ in Python.
        return hash(self.label)


# TermRefs the solver keeps made.  The pages of dimension n have 4(n + 1)
# terms, those of a smaller n among them, so this holds every ref of every
# solve up to n = 1 023.
TERM_REF_CACHE_SIZE = 4096


@lru_cache(maxsize=TERM_REF_CACHE_SIZE)
def _term_ref(is_left: bool, pos: Pos) -> TermRef:
    """The ref the solver names the term at ``pos`` by, shared by every solve:
    a TermRef is immutable and its label a function of side and position.
    Keyed on a bool, since hashing a Side member runs Enum.__hash__ in Python."""
    if is_left:
        return prevalidated(TermRef, Side.LEFT, pos, left_label(*pos))
    return prevalidated(TermRef, Side.RIGHT, pos, right_label(*pos))


def _check_degree(degree: int, *refs: TermRef) -> None:
    """Refuse a relation that names a term off its own antidiagonal.

    Each relation's ``__post_init__`` checks the shape the solver always
    emits, for relations built elsewhere (decoded JSON); the solver builds
    its own through ``prevalidated``.
    """
    for ref in refs:
        if sum(ref.pos) != degree:
            raise ValueError(
                f"the {ref.side.value} term at {ref.pos} is in total degree "
                f"{sum(ref.pos)}, not {degree}"
            )


@dataclass(frozen=True)
class Identification:
    """The two terms are the only survivors in their total degree, hence
    both compute the common limit and are identified."""

    degree: int
    left: TermRef
    right: TermRef

    def __post_init__(self) -> None:
        if self.left.side is not Side.LEFT or self.right.side is not Side.RIGHT:
            raise ValueError("an Identification joins a left term to a right term")
        _check_degree(self.degree, self.left, self.right)

    def render(self) -> str:
        return f"[k={self.degree}] {self.left.label} ≅ {self.right.label}"


@dataclass(frozen=True)
class ForcedZero:
    degree: int
    term: TermRef

    def __post_init__(self) -> None:
        _check_degree(self.degree, self.term)

    def render(self) -> str:
        return f"[k={self.degree}] {self.term.label} = 0"


@dataclass(frozen=True)
class ShortExact:
    """0 -> sub -> mid -> quot -> 0 from the two-step limit filtration."""

    degree: int
    sub: TermRef
    mid: TermRef
    quot: TermRef

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Forbidden:
    degree: int
    reason: str

    def render(self) -> str:
        return f"[k={self.degree}] contradiction: {self.reason}"


DerivedRelation = Identification | ForcedZero | ShortExact | Forbidden


class ConclusionKind(enum.Enum):
    DUAL_IS_WIT1 = "DualIsWIT1"
    DUAL_IDENTIFICATION = "DualIdentification"
    FORBIDDEN = "Forbidden"


@dataclass(frozen=True)
class Conclusion:
    kind: ConclusionKind
    statement: str
    via_dimension_only: bool = False


def _conclusion(scenario: SheafScenario, kind: ConclusionKind) -> Conclusion:
    """The DualIsWIT1 or DualIdentification conclusion for ``scenario``."""
    if kind is ConclusionKind.DUAL_IS_WIT1:
        return Conclusion(
            kind, "Φ^0(E^D) = 0, so E^D is WIT1", via_dimension_only=scenario.c == 0
        )
    return Conclusion(kind, f"ι*(Φ^0(E^D)) ⊗ p*L = (Φ^{scenario.wit_degree}E)^D")


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


def degenerate(grid: PageGrid) -> tuple[PageGrid, int]:
    """Check that the page has degenerated at E2; return it with page 2.

    In every scenario ``build_pages`` seeds, no differential can act (the
    Right band has two rows and the Left band a dead column), so the
    statuses already describe the limit.  A grid on which some d_r could
    still act breaks that invariant and raises ``InternalCheckError``; a
    grid missing a Term it needs is a ValueError, checked first.
    """
    _check_shape(grid)
    if not grid.is_settled():
        raise InternalCheckError(
            f"a differential can act on the {grid.side.value} page, "
            "so it does not degenerate at E_2"
        )
    return grid, 2


# -- limit comparison ------------------------------------------------------


class _Solver:
    def __init__(self, left: PageGrid, right: PageGrid) -> None:
        self.left = left
        self.right = right
        self.relations: dict[DerivedRelation, None] = {}  # insertion-ordered set
        # The total degrees whose antidiagonal changed since its last scan;
        # at first every degree with a live term.  No status leaves Zero, so
        # the other degrees never hold one, and a scan of them does nothing.
        self._dirty = {
            p + q
            for grid in (left, right)
            for (p, q), term in grid.terms.items()
            if term.status is not TermStatus.ZERO
        }
        # Those degrees' (pos, term) pairs on both pages, larger q first,
        # Zero terms included: a scan filters them by their current status.
        self._cells = {k: (left.diagonal(k), right.diagonal(k)) for k in self._dirty}

    def _emit(self, relation: DerivedRelation) -> None:
        self.relations.setdefault(relation)  # one hash; `in` and a store take two

    def _set_status(self, term: Term, pos: Pos, status: TermStatus) -> None:
        term.status = status
        self._dirty.add(pos[0] + pos[1])

    def _set_nonzero(self, term: Term, pos: Pos) -> None:
        if term.status is TermStatus.UNKNOWN:
            self._set_status(term, pos, TermStatus.NONZERO)

    def _scan_degree(self, k: int) -> None:
        cells_l, cells_r = self._cells.get(k, ((), ()))
        lives_l = [cell for cell in cells_l if cell[1].status is not TermStatus.ZERO]
        lives_r = [cell for cell in cells_r if cell[1].status is not TermStatus.ZERO]
        if not lives_l or not lives_r:
            # Every survivor, if any, faces an empty page.
            on_left = bool(lives_l)
            for pos, term in lives_l or lives_r:
                ref = _term_ref(on_left, pos)
                if term.status is TermStatus.NONZERO:
                    empty = Side.RIGHT if on_left else Side.LEFT
                    self._emit(
                        Forbidden(
                            k,
                            f"{ref.label} is required nonzero but an empty "
                            f"{empty.value} page in total degree {k} forces it to vanish",
                        )
                    )
                else:  # live, so Unknown
                    self._set_status(term, pos, TermStatus.ZERO)
                    self._emit(prevalidated(ForcedZero, k, ref))
            return
        if len(lives_l) == 1 and len(lives_r) == 1:
            (pl, tl), (pr, tr) = lives_l[0], lives_r[0]
            self._emit(prevalidated(
                Identification, k, _term_ref(True, pl), _term_ref(False, pr)
            ))
            # Both stay live; a later change to either marks k dirty, so the
            # rescan carries NonZero across again.
            if TermStatus.NONZERO in (tl.status, tr.status):
                self._set_nonzero(tl, pl)
                self._set_nonzero(tr, pr)
            return
        if len(lives_l) + len(lives_r) == 3:  # one against two
            mid_on_left = len(lives_l) == 1
            if mid_on_left:
                (mid_pos, mid_term), pair = lives_l[0], lives_r
            else:
                (mid_pos, mid_term), pair = lives_r[0], lives_l
            # The cells come larger q first; the deeper filtration step
            # (larger outer degree, i.e. larger q) is the subobject
            (sub_pos, subs), (quot_pos, quots) = pair
            self._emit(
                prevalidated(
                    ShortExact,
                    k,
                    _term_ref(not mid_on_left, sub_pos),
                    _term_ref(mid_on_left, mid_pos),
                    _term_ref(not mid_on_left, quot_pos),
                )
            )
            if TermStatus.NONZERO in (subs.status, quots.status):
                self._set_nonzero(mid_term, mid_pos)
            # A vanishing mid (or a fully vanished pair) never reaches this
            # branch: the scan filters Zero terms, so those cases fall into
            # the empty-side or one-against-one branches instead.

    def _check_joint_constraints(self) -> None:
        for grid in (self.left, self.right):
            for group in grid.joint_nonzero:
                statuses = [grid.terms[pos].status for pos in group]
                if all(s is TermStatus.ZERO for s in statuses):
                    is_left = grid.side is Side.LEFT
                    labels = ", ".join(_term_ref(is_left, pos).label for pos in group)
                    degree = max(p + q for p, q in group)
                    self._emit(
                        Forbidden(
                            degree,
                            "every term of a jointly-nonzero group vanished: "
                            + labels,
                        )
                    )
                elif statuses.count(TermStatus.ZERO) == len(group) - 1:
                    for pos in group:
                        self._set_nonzero(grid.terms[pos], pos)

    def solve(self) -> list[DerivedRelation]:
        # Outside a degree's own scan only the joint constraints change
        # statuses, and they mark those degrees dirty.  They are checked at
        # least once, even on pages with no live term.
        while True:
            degrees, self._dirty = sorted(self._dirty), set()
            for k in degrees:
                self._scan_degree(k)
                self._dirty.discard(k)
            self._check_joint_constraints()
            if not self._dirty:
                return list(self.relations)


def _check_shape(grid: PageGrid) -> None:
    """Refuse a page the solver would read past: a Term must sit at every
    position of p_range × q_range and of every joint_nonzero group."""
    (p0, p1), (q0, q1) = grid.p_range, grid.q_range
    region = itertools.product(range(p0, p1 + 1), range(q0, q1 + 1))
    missing = list(itertools.filterfalse(grid.terms.__contains__, region))
    if missing:
        raise ValueError(f"the {grid.side.value} page has no term at {min(missing)}")
    for group in grid.joint_nonzero:
        for pos in group:
            if not grid.in_region(pos):
                raise ValueError(
                    f"a joint_nonzero group names {pos}, outside the "
                    f"{grid.side.value} page"
                )


def compare_limits(left: PageGrid, right: PageGrid) -> list[DerivedRelation]:
    """Equate the two limits degree by degree; refine statuses in place.

    Both grids must already be degenerate (no differential can act), since
    the comparison reads the pages as the limit's graded pieces, and each
    must hold a Term at every position of its rectangle and of its
    joint_nonzero groups; otherwise ValueError, before any status changes.
    """
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("compare_limits takes (left page, right page)")
    if left.n != right.n:
        raise ValueError("pages disagree about the ambient dimension")
    for grid in (left, right):
        _check_shape(grid)
    for grid in (left, right):
        if not grid.is_settled():
            raise ValueError(
                "compare_limits requires degenerated pages; call degenerate() first"
            )
    return _Solver(left, right).solve()


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
    decision = _DECISIONS[scenario.wit, scenario.dim_shift]
    if isinstance(decision, str):
        return Conclusion(ConclusionKind.FORBIDDEN, decision)
    return _conclusion(scenario, decision)


@dataclass(frozen=True)
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
    """build_pages -> degenerate -> compare_limits -> entailed conclusion."""
    left, right = build_pages(scenario)
    left, left_page = degenerate(left)
    right, right_page = degenerate(right)
    # degenerate() has checked both pages' shapes and that they are settled.
    relations = _Solver(left, right).solve()
    conclusion = _entailed_conclusion(scenario, right, relations)
    return ScenarioSolution(
        scenario,
        left,
        right,
        left_page,
        right_page,
        tuple(relations),
        conclusion,
    )
