import copy
import hashlib
import itertools
import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weierfm import (
    ConclusionKind,
    Forbidden,
    ForcedZero,
    Identification,
    InfeasibleScenarioError,
    InternalCheckError,
    SheafScenario,
    ShortExact,
    Side,
    TermStatus,
    WitType,
    build_pages,
    compare_limits,
    degenerate,
    duality_decision,
    serialize,
    solve_scenario,
)
from weierfm.duality import (
    TERM_REF_CACHE_SIZE,
    PageGrid,
    Term,
    TermRef,
    _live_by_degree,
    _page_terms,
    _term_ref,
    left_label,
    right_label,
)


def statuses(*grids):
    return [term.status for grid in grids for term in grid.terms.values()]


def feasible_scenarios(max_n=4):
    for n in range(1, max_n + 1):
        for c in range(0, n + 1):
            for wit in WitType:
                for shift in (-1, 0, 1):
                    if 0 <= c - shift <= n:
                        yield SheafScenario(n, c, wit, shift)


# -- scenario validation -------------------------------------------------------


def test_scenario_derived_quantities():
    sc = SheafScenario(3, 1, WitType.WIT0, 1)
    assert sc.transform_codim == 0
    assert sc.surviving_column == 0
    assert sc.wit_degree == 0
    sc = SheafScenario(3, 2, WitType.WIT1, -1)
    assert sc.transform_codim == 3
    assert sc.surviving_column == -1
    assert sc.wit_degree == 1


@pytest.mark.parametrize(
    "n,c,shift",
    [(3, 4, 0), (3, -1, 0), (0, 0, 0), (3, 0, 1), (3, 3, -1), (1, 1, -1)],
)
def test_dimensionally_impossible_scenarios_are_rejected(n, c, shift):
    with pytest.raises(InfeasibleScenarioError):
        SheafScenario(n, c, WitType.WIT0, shift)


def test_shift_must_be_small():
    with pytest.raises(InfeasibleScenarioError):
        SheafScenario(3, 1, WitType.WIT0, 2)
    with pytest.raises(ValueError, match="^wit must be a WitType, got str"):
        SheafScenario(3, 1, "WIT0", 0)


def test_dimension_is_capped():
    """A dimension past the cap is an input error (ValueError, CLI exit 1),
    not an infeasible scenario; the cap itself is accepted."""
    from weierfm.duality import MAX_SCENARIO_DIMENSION

    assert SheafScenario(MAX_SCENARIO_DIMENSION, 1, WitType.WIT0, 1).n == MAX_SCENARIO_DIMENSION
    with pytest.raises(ValueError, match="scenario dimension cap") as exc:
        SheafScenario(MAX_SCENARIO_DIMENSION + 1, 1, WitType.WIT0, 1)
    assert not isinstance(exc.value, InfeasibleScenarioError)


# -- page construction ---------------------------------------------------------


def test_built_pages_for_a_codim_one_wit0_sheaf():
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 1))

    assert (left.p_range, left.q_range) == ((-1, 0), (0, 3))
    for q in range(4):
        assert left.status((-1, q)) is TermStatus.ZERO  # dead WIT column
    assert left.status((0, 0)) is TermStatus.NONZERO  # codim of the transform
    for q in (1, 2, 3):
        assert left.status((0, q)) is TermStatus.UNKNOWN

    assert (right.p_range, right.q_range) == ((0, 3), (-1, 0))
    for q in (-1, 0):
        assert right.status((0, q)) is TermStatus.ZERO  # below codim of E
        for p in (1, 2, 3):
            assert right.status((p, q)) is TermStatus.UNKNOWN
    assert right.joint_nonzero == (((1, -1), (1, 0)),)


def test_row_trim_depends_on_the_shift():
    left, _ = build_pages(SheafScenario(4, 2, WitType.WIT1, -1))
    # transform codim 3: rows 0..2 of the surviving column vanish
    for q in (0, 1, 2):
        assert left.status((-1, q)) is TermStatus.ZERO
    assert left.status((-1, 3)) is TermStatus.NONZERO
    assert left.status((-1, 4)) is TermStatus.UNKNOWN


def _seeded_statuses(scenario):
    """build_pages' seeds, cell by cell from the three rules, in its order:
    the Left page column by column, then the Right page column by column."""
    n, c, cT = scenario.n, scenario.c, scenario.transform_codim
    left = {}
    for p in (-1, 0):
        for q in range(n + 1):
            if p != scenario.surviving_column:
                left[(p, q)] = TermStatus.ZERO  # the dead WIT column
            elif q < cT:
                left[(p, q)] = TermStatus.ZERO  # below the transform codim
            elif q == cT:
                left[(p, q)] = TermStatus.NONZERO  # at it
            else:
                left[(p, q)] = TermStatus.UNKNOWN
    right = {
        (p, q): TermStatus.ZERO if p < c else TermStatus.UNKNOWN  # Right columns p < c
        for p in range(n + 1)
        for q in (-1, 0)
    }
    return left, right


def test_build_pages_matches_the_per_cell_seeding():
    """Every feasible scenario with n <= 12: the pages built from status runs
    hold the per-cell statuses in the per-cell order, each in its own Term,
    since the solver refines them in place."""
    count = 0
    for scenario in feasible_scenarios(12):
        n = scenario.n
        left, right = build_pages(scenario)
        want_left, want_right = _seeded_statuses(scenario)
        assert [(pos, t.status) for pos, t in left.terms.items()] == list(want_left.items())
        assert [(pos, t.status) for pos, t in right.terms.items()] == list(want_right.items())
        assert (left.side, left.n, left.p_range, left.q_range) == (Side.LEFT, n, (-1, 0), (0, n))
        assert (right.side, right.n, right.p_range, right.q_range) == (Side.RIGHT, n, (0, n), (-1, 0))
        assert left.joint_nonzero == ()
        assert right.joint_nonzero == (((scenario.c, -1), (scenario.c, 0)),)
        terms = [*left.terms.values(), *right.terms.values()]
        assert len(terms) == 4 * (n + 1)
        assert len({id(term) for term in terms}) == len(terms)
        count += 1
    assert count == 492


def test_term_labels():
    assert left_label(0, 2) == "Ext^2(Φ^0E, O_X)"
    assert left_label(-1, 0) == "Ext^0(Φ^1E, O_X)"
    assert right_label(1, -1) == "ι*(Φ^0Ext^1(E, O_X)) ⊗ p*L"
    assert right_label(3, 0) == "ι*(Φ^1Ext^3(E, O_X)) ⊗ p*L"


def test_out_of_region_reads_as_zero():
    left, _ = build_pages(SheafScenario(2, 1, WitType.WIT0, 0))
    assert left.status((5, 5)) is TermStatus.ZERO
    assert not left.in_region((1, 0))


# -- degeneration ----------------------------------------------------------------


@pytest.mark.parametrize("scenario", list(feasible_scenarios(3)))
def test_engine_pages_settle_immediately(scenario):
    left, right = build_pages(scenario)
    settled_left, left_page = degenerate(left)
    settled_right, right_page = degenerate(right)
    assert left_page == 2
    assert right_page == 2
    assert settled_left.terms[(0, 0)].status is left.terms[(0, 0)].status


def test_two_live_columns_degenerate_later():
    """A live d_2 arrow breaks the E_2 degeneration that degenerate() checks."""
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    assert left.terms[(0, 1)].status is TermStatus.NONZERO
    left.terms[(-1, 3)].status = TermStatus.NONZERO  # resurrect the dead column
    assert not left.is_settled()
    with pytest.raises(InternalCheckError):
        degenerate(left)


def test_compare_limits_requires_settled_pages():
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    left.terms[(-1, 3)].status = TermStatus.NONZERO
    right, _ = degenerate(right)
    with pytest.raises(ValueError):
        compare_limits(left, right)


def test_compare_limits_checks_its_arguments():
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    left, _ = degenerate(left)
    right, _ = degenerate(right)
    with pytest.raises(ValueError):
        compare_limits(right, left)
    other_left, _ = degenerate(build_pages(SheafScenario(2, 1, WitType.WIT0, 0))[0])
    with pytest.raises(ValueError):
        compare_limits(other_left, right)


def test_compare_limits_refuses_malformed_pages():
    """A page with a hole in its rectangle, or a joint group naming a cell
    outside it, is a ValueError before any status changes."""
    with pytest.raises(ValueError, match=r"left page has no term at \(-1, 0\)"):
        compare_limits(
            PageGrid(Side.LEFT, 1, (-1, 0), (0, 1), {}),
            PageGrid(Side.RIGHT, 1, (0, 1), (-1, 0), {}),
        )
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    del right.terms[(3, 0)]
    with pytest.raises(ValueError, match=r"right page has no term at \(3, 0\)"):
        compare_limits(left, right)

    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    right.joint_nonzero = (((9, 9), (1, 0)),)
    before = statuses(left, right)
    with pytest.raises(ValueError, match=r"names \(9, 9\), outside the right page"):
        compare_limits(left, right)
    assert statuses(left, right) == before


def test_a_page_missing_several_terms_names_the_smallest_hole():
    """degenerate() and compare_limits() name the smallest missing position,
    and compare_limits() refuses a malformed right page before it changes any
    status of the good left page it was given with."""
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    for pos in ((0, 3), (-1, 2), (0, 1)):
        del left.terms[pos]
    for page in (left, copy.deepcopy(left)):
        with pytest.raises(ValueError, match=r"^the left page has no term at \(-1, 2\)$"):
            degenerate(page)
    with pytest.raises(ValueError, match=r"^the left page has no term at \(-1, 2\)$"):
        compare_limits(left, right)

    # A solve of this scenario turns left terms Zero.
    scenario = SheafScenario(3, 3, WitType.WIT1, 1)
    left, right = build_pages(scenario)
    for pos in ((3, 0), (3, -1), (2, -1)):
        del right.terms[pos]
    before = statuses(left, right)
    with pytest.raises(ValueError, match=r"^the right page has no term at \(2, -1\)$"):
        degenerate(right)
    with pytest.raises(ValueError, match=r"^the right page has no term at \(2, -1\)$"):
        compare_limits(left, right)
    assert statuses(left, right) == before
    full_left, full_right = build_pages(scenario)
    compare_limits(full_left, full_right)
    assert statuses(full_left) != statuses(left)


def test_degenerate_refuses_malformed_pages():
    """A hole in the rectangle is a ValueError from degenerate(), checked
    before the differentials, whose scan would read it as a KeyError."""
    page = PageGrid(Side.LEFT, 2, (-1, 0), (0, 2), {(0, 0): Term(TermStatus.NONZERO)})
    with pytest.raises(ValueError, match=r"left page has no term at \(-1, 0\)"):
        degenerate(page)


# (page index, spoiler, message) of pages the boundary check refuses.
_MALFORMED_PAGES = [
    pytest.param(0, lambda page: setattr(page.terms[0, 0], "status", "NonZero"),
                 r"^the status of the left term at \(0, 0\) must be a TermStatus, "
                 r"got str 'NonZero'$", id="status-string"),
    pytest.param(1, lambda page: setattr(page, "terms", dict.fromkeys(page.terms, Term("Zero"))),
                 r"^the status of the right term at \(0, -1\) must be a TermStatus, "
                 r"got str 'Zero'$", id="page-of-status-strings"),
    pytest.param(0, lambda page: page.terms.update({(0, 2): None}),
                 r"^the left page's entry at \(0, 2\) must be a Term, got NoneType None$",
                 id="entry-none"),
    pytest.param(1, lambda page: page.terms.update({(2, 0): TermStatus.UNKNOWN}),
                 r"^the right page's entry at \(2, 0\) must be a Term, got TermStatus ",
                 id="entry-bare-status"),
    pytest.param(0, lambda page: page.terms.pop((0, 2)),
                 r"^the left page has no term at \(0, 2\)$", id="hole"),
    pytest.param(1, lambda page: setattr(page, "joint_nonzero", ((0, 0),)),
                 r"^a joint_nonzero group of the right page must be a non-empty tuple "
                 r"of positions, got \(0, 0\)$", id="position-for-group"),
    pytest.param(1, lambda page: setattr(page, "joint_nonzero", ((),)),
                 r"^a joint_nonzero group of the right page must be a non-empty tuple "
                 r"of positions, got \(\)$", id="empty-group"),
    pytest.param(1, lambda page: setattr(page, "joint_nonzero", (((1, 0), (1, -1.0)),)),
                 r"^a joint_nonzero group names \(1, -1\.0\), outside the right page$",
                 id="float-position"),
    pytest.param(0, lambda page: setattr(page, "p_range", (0, -1)),
                 r"^the left page's rectangle \(0, -1\) × \(0, 3\) is empty$",
                 id="empty-rectangle"),
    pytest.param(0, lambda page: setattr(page, "p_range", (-1, 0.5)),
                 r"^an entry of the left page's p_range must be an int, got float 0\.5$",
                 id="float-range"),
    pytest.param(1, lambda page: setattr(page, "q_range", (-1, 0, 1)),
                 r"^the right page's q_range must have 2 entries, got 3$", id="long-range"),
    pytest.param(1, lambda page: setattr(page, "joint_nonzero", None),
                 r"^the right page's joint_nonzero must be a tuple, got NoneType None$",
                 id="groups-none"),
    pytest.param(0, lambda page: page.terms.update({(1, -2): None}),
                 r"^the left page's entry at \(1, -2\) must be a Term, got NoneType None$",
                 id="entry-none-outside"),
    pytest.param(1, lambda page: page.terms.update({(7, 7): Term("Zero")}),
                 r"^the status of the right term at \(7, 7\) must be a TermStatus, "
                 r"got str 'Zero'$", id="status-string-outside"),
    pytest.param(0, lambda page: page.terms.update({"(1, -2)": Term(TermStatus.ZERO)}),
                 r"^a position of the left page's terms must be a tuple, got str '\(1, -2\)'$",
                 id="string-key-outside"),
    pytest.param(0, lambda page: page.terms.update({(1, True): Term(TermStatus.ZERO)}),
                 r"^an entry of a position of the left page's terms must be an int, "
                 r"got bool True$", id="bool-key-outside"),
]


@pytest.mark.parametrize("index,spoil,message", _MALFORMED_PAGES)
def test_entry_points_refuse_malformed_pages(index, spoil, message):
    """degenerate(), compare_limits() and render() refuse a malformed page
    with ValueError, compare_limits() before it changes any status of either
    page (a solve of this scenario turns terms Zero)."""
    pages = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    spoil(pages[index])
    for call in (lambda: degenerate(pages[index]), pages[index].render):
        with pytest.raises(ValueError, match=message):
            call()
    def statuses_or_entries():
        return [getattr(term, "status", term) for grid in pages for term in grid.terms.values()]
    before = statuses_or_entries()
    with pytest.raises(ValueError, match=message):
        compare_limits(*pages)
    assert statuses_or_entries() == before


@pytest.mark.parametrize(
    "field,value,message",
    [("side", "left", r"^a page's side must be a Side, got str 'left'$"),
     ("terms", None, r"^the left page's terms must be a dict, got NoneType None$"),
     ("n", 3.0, r"^the left page's n must be an int, got float 3\.0$")],
    ids=["side", "terms", "n"],
)
def test_entry_points_refuse_a_page_whose_own_fields_are_malformed(field, value, message):
    """A page's own fields are checked before its terms: a side that is not
    a Side, terms that are not a dict and an n that is not an int are each a
    ValueError naming the field, from degenerate() and render(), not an
    AttributeError or TypeError met later; compare_limits() refuses them
    too, the side as the wrong order of pages."""
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    setattr(left, field, value)
    for call in (lambda: degenerate(left), left.render):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError):
        compare_limits(left, right)


def test_an_extra_zero_term_outside_the_rectangle_is_no_source():
    """An extra Zero term at (1, -1), outside the left page of (3, 1, WIT0,
    +1), is no d_r source: degenerate() passes the page and compare_limits()
    gives the relations of the page without it."""
    scenario = SheafScenario(3, 1, WitType.WIT0, 1)
    left, right = build_pages(scenario)
    left.terms[(1, -1)] = Term(TermStatus.ZERO)
    assert degenerate(left) == (left, 2)
    assert compare_limits(left, right) == compare_limits(*build_pages(scenario))


def _offset_right_page():
    """A Right page whose rows start below 0 (q₀ = -1): (1, -1) and (0, 1)
    are NonZero and d_2 joins them, since (1, -1) + (-1, 2) = (0, 1)."""
    cells = itertools.product((0, 1), (-1, 0, 1))
    live = {(1, -1), (0, 1)}
    terms = {pos: Term(TermStatus.NONZERO if pos in live else TermStatus.ZERO) for pos in cells}
    return PageGrid(Side.RIGHT, 3, (0, 1), (-1, 1), terms)


def test_a_page_below_row_zero_counts_its_full_height():
    """The page's height is q₁ - q₀ = 2, so d_2 is checked and found live:
    degenerate() and compare_limits() refuse it.  Reading the height as
    q₁ + q₀ = 0 would check no differential and pass it as settled."""
    page = _offset_right_page()
    assert not page.is_settled()
    with pytest.raises(InternalCheckError, match="right page"):
        degenerate(page)
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 1))
    with pytest.raises(ValueError, match="requires degenerated pages"):
        compare_limits(left, page)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: build_pages(None), "scenario must be a SheafScenario, got NoneType",
                     id="build_pages-scenario"),
        pytest.param(lambda: degenerate("x"), "page must be a PageGrid, got str 'x'",
                     id="degenerate-page"),
        pytest.param(lambda: compare_limits(None, _offset_right_page()),
                     "left page must be a PageGrid, got NoneType", id="compare_limits-left"),
        pytest.param(lambda: compare_limits(_offset_right_page(), None),
                     "right page must be a PageGrid, got NoneType", id="compare_limits-right"),
        pytest.param(lambda: duality_decision(1), "scenario must be a SheafScenario, got int 1",
                     id="duality_decision-scenario"),
        pytest.param(lambda: solve_scenario((3, 1)),
                     r"scenario must be a SheafScenario, got tuple \(3, 1\)",
                     id="solve_scenario-scenario"),
    ],
)
def test_duality_entry_points_refuse_arguments_of_the_wrong_type(call, message):
    """An argument that is not of its annotated class is refused with
    ValueError when the call starts, not met later as an AttributeError."""
    with pytest.raises(ValueError, match=message):
        call()


def test_solve_scenario_checks_each_page_once(monkeypatch):
    """degenerate() checks both pages; the comparison does not redo it."""
    calls = []
    real = PageGrid.is_settled
    monkeypatch.setattr(PageGrid, "is_settled", lambda grid: calls.append(grid.side) or real(grid))
    solve_scenario(SheafScenario(3, 1, WitType.WIT0, 0))
    assert calls == [Side.LEFT, Side.RIGHT]
    calls.clear()
    compare_limits(*build_pages(SheafScenario(3, 1, WitType.WIT0, 0)))
    assert calls == [Side.LEFT, Side.RIGHT]


def test_only_a_callers_pages_pass_the_boundary_check(monkeypatch):
    """solve_scenario() reads build_pages' pages unchecked; degenerate()
    checks the page it is given and compare_limits() each of its two."""
    calls = []
    monkeypatch.setattr(
        "weierfm.duality._page_terms", lambda grid: calls.append(grid.side) or _page_terms(grid)
    )
    solve_scenario(SheafScenario(3, 1, WitType.WIT0, 0))
    assert calls == []
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    degenerate(left)
    degenerate(right)
    assert calls == [Side.LEFT, Side.RIGHT]
    calls.clear()
    compare_limits(left, right)
    assert calls == [Side.LEFT, Side.RIGHT]


def test_build_pages_gives_pages_the_boundary_check_returns_unchanged():
    """What lets solve_scenario() skip the boundary check: for every scenario
    the duality benchmark solves (n <= 24) and five at n = 1000, the check
    returns each page's dict as it is (equal, in the same key order, holding
    the same Term objects and nothing else), and every jointly-nonzero
    position lies in the rectangle."""
    large = [(0, WitType.WIT0, 0), (1, WitType.WIT0, 1), (500, WitType.WIT1, 0),
             (999, WitType.WIT1, -1), (1000, WitType.WIT0, 0)]
    scenarios = [*feasible_scenarios(24), *(SheafScenario(1000, *args) for args in large)]
    assert len(scenarios) == 1848 + 5
    for scenario in scenarios:
        for grid in build_pages(scenario):
            region = _page_terms(grid)
            assert region == grid.terms
            assert list(region) == list(grid.terms)
            assert all(map(operator.is_, region.values(), grid.terms.values()))
            assert all(grid.in_region(pos) for group in grid.joint_nonzero for pos in group)


# -- derived relations ------------------------------------------------------------


def test_identification_route():
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    assert solution.conclusion.kind is ConclusionKind.DUAL_IDENTIFICATION
    assert solution.conclusion.statement == "ι*(Φ^0(E^D)) ⊗ p*L = (Φ^0E)^D"

    idents = [r for r in solution.relations if isinstance(r, Identification)]
    exacts = [r for r in solution.relations if isinstance(r, ShortExact)]
    assert [(r.degree, r.left.pos, r.right.pos) for r in idents] == [
        (0, (0, 0), (1, -1)),
        (3, (0, 3), (3, 0)),
    ]
    assert [(r.degree, r.sub.pos, r.mid.pos, r.quot.pos) for r in exacts] == [
        (1, (1, 0), (0, 1), (2, -1)),
        (2, (2, 0), (0, 2), (3, -1)),
    ]
    for r in exacts:
        assert r.sub.side is Side.RIGHT and r.quot.side is Side.RIGHT
        assert r.mid.side is Side.LEFT


def test_forced_zero_route():
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 0))
    assert solution.conclusion.kind is ConclusionKind.DUAL_IS_WIT1
    assert solution.conclusion.statement == "Φ^0(E^D) = 0, so E^D is WIT1"
    assert not solution.conclusion.via_dimension_only

    zeros = [r for r in solution.relations if isinstance(r, ForcedZero)]
    assert ((1, -1) in [r.term.pos for r in zeros])
    assert solution.right.terms[(1, -1)].status is TermStatus.ZERO
    # the joint constraint then forces the other transform degree to survive
    assert solution.right.terms[(1, 0)].status is TermStatus.NONZERO


def test_forbidden_route():
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, -1))
    assert solution.conclusion.kind is ConclusionKind.FORBIDDEN
    assert any(isinstance(r, Forbidden) for r in solution.relations)


def test_dimension_only_flag_marks_the_rank_zero_boundary():
    assert duality_decision(SheafScenario(3, 0, WitType.WIT0, 0)).via_dimension_only
    assert duality_decision(SheafScenario(3, 0, WitType.WIT1, -1)).via_dimension_only
    assert not duality_decision(SheafScenario(3, 1, WitType.WIT0, 0)).via_dimension_only
    assert not duality_decision(SheafScenario(3, 1, WitType.WIT0, 1)).via_dimension_only


def test_closed_form_table():
    rows = {
        (WitType.WIT0, 1): ConclusionKind.DUAL_IDENTIFICATION,
        (WitType.WIT0, 0): ConclusionKind.DUAL_IS_WIT1,
        (WitType.WIT0, -1): ConclusionKind.FORBIDDEN,
        (WitType.WIT1, 1): ConclusionKind.FORBIDDEN,
        (WitType.WIT1, 0): ConclusionKind.DUAL_IDENTIFICATION,
        (WitType.WIT1, -1): ConclusionKind.DUAL_IS_WIT1,
    }
    for (wit, shift), expected in rows.items():
        assert duality_decision(SheafScenario(3, 1, wit, shift)).kind is expected


def test_wit1_statement_names_the_degree_one_transform():
    conclusion = duality_decision(SheafScenario(3, 2, WitType.WIT1, 0))
    assert conclusion.statement == "ι*(Φ^0(E^D)) ⊗ p*L = (Φ^1E)^D"


@pytest.mark.parametrize("scenario", list(feasible_scenarios(4)))
def test_engine_reproduces_the_closed_form(scenario):
    solution = solve_scenario(scenario)
    expected = duality_decision(scenario)
    assert solution.conclusion.kind is expected.kind
    if expected.kind is not ConclusionKind.FORBIDDEN:
        assert solution.conclusion == expected
    assert solution.right_page == 2


@pytest.mark.parametrize("scenario", list(feasible_scenarios(4)))
def test_identifications_stay_on_their_antidiagonal(scenario):
    for relation in solve_scenario(scenario).relations:
        if isinstance(relation, Identification):
            assert sum(relation.left.pos) == relation.degree
            assert sum(relation.right.pos) == relation.degree
        elif isinstance(relation, ShortExact):
            assert {sum(relation.sub.pos), sum(relation.mid.pos),
                    sum(relation.quot.pos)} == {relation.degree}


def test_relations_render():
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    rendered = [r.render() for r in solution.relations]
    assert "[k=0] Ext^0(Φ^0E, O_X) ≅ ι*(Φ^0Ext^1(E, O_X)) ⊗ p*L" in rendered
    assert any(text.startswith("[k=1] 0 → ") for text in rendered)


def test_page_render_shows_status_marks():
    left, _ = build_pages(SheafScenario(2, 1, WitType.WIT0, 1))
    text = left.render()
    assert "left page (E_2)" in text
    assert "* (0,0)" in text
    assert "0 (-1,0)" in text


def test_solution_is_deterministic():
    a = solve_scenario(SheafScenario(4, 2, WitType.WIT1, 0))
    b = solve_scenario(SheafScenario(4, 2, WitType.WIT1, 0))
    assert a.relations == b.relations
    assert a.conclusion == b.conclusion


def _degree_range(grid):
    """The total degrees p + q of the grid's rectangle."""
    (p0, p1), (q0, q1) = grid.p_range, grid.q_range
    return range(p0 + q0, p1 + q1 + 1)


def test_relation_degrees_cover_every_occupied_antidiagonal():
    """Each total degree with any surviving term yields exactly one relation."""
    solution = solve_scenario(SheafScenario(3, 2, WitType.WIT1, 0))
    degrees = sorted(
        {r.degree for r in solution.relations if not isinstance(r, Forbidden)}
    )
    live = sorted(
        {
            k
            for grid in (solution.left, solution.right)
            for k in _degree_range(grid)
            if any(sum(pos) == k and term.status is not TermStatus.ZERO
                   for pos, term in grid.terms.items())
        }
    )
    assert live
    assert degrees == sorted(set(degrees))
    for k in live:
        assert k in degrees


def test_wit_and_conclusion_iteration_is_exhaustive():
    seen = set()
    for scenario in feasible_scenarios(4):
        seen.add(solve_scenario(scenario).conclusion.kind)
    assert seen == set(ConclusionKind)


@settings(deadline=None)
@given(st.data())
def test_live_on_diagonal_matches_a_scan_of_every_term(data):
    """On a page whose dict holds its rectangle and 0-3 terms outside it,
    filled in a shuffled order, the boundary check returns the rectangle's
    own Term objects column by column, and grouping them gives each total
    degree's live terms larger q first, as a scan of every term does.  On
    build_pages' own pages the grouping names each position by the page
    dict's own key."""
    p0, q0 = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    p1, q1 = p0 + data.draw(st.integers(0, 4)), q0 + data.draw(st.integers(0, 4))
    cells = list(itertools.product(range(p0, p1 + 1), range(q0, q1 + 1)))
    box = st.tuples(st.integers(p0 - 2, p1 + 2), st.integers(q0 - 2, q1 + 2))
    outside = data.draw(
        st.lists(box.filter(lambda pos: pos not in cells), max_size=3, unique=True)
    )
    order = data.draw(st.permutations(cells + outside))
    terms = {pos: Term(data.draw(st.sampled_from(TermStatus))) for pos in order}
    grid = PageGrid(Side.LEFT, 3, (p0, p1), (q0, q1), terms)
    region = _page_terms(grid)
    assert list(region) == cells
    assert all(region[pos] is terms[pos] for pos in cells)
    groups = _live_by_degree(region)
    for k in range(p0 + q0 - 2, p1 + q1 + 3):
        scan = sorted(
            (pos for pos in cells
             if sum(pos) == k and terms[pos].status is not TermStatus.ZERO),
            key=lambda pos: -pos[1],
        )
        assert groups.pop(k, []) == scan
    assert groups == {}

    for grid in build_pages(data.draw(st.sampled_from(list(feasible_scenarios(8))))):
        keys = {pos: pos for pos in grid.terms}
        for group in _live_by_degree(grid.terms).values():
            assert all(pos is keys[pos] for pos in group)


_ENGINE_PIN = (492, "e96a108464474aa0f0c927d551898cb38642385a65dbafd30ab8d5cdc04d3a5f")
# The same digest over every scenario the duality benchmark solves, n <= 24.
_ENGINE_PIN_24 = (1848, "aef92f43078ba8a68e2b5920e300f02ebc0cf0a6152277992e79f2f842415c7c")


def _engine_digests(*bounds):
    """For each bound, the scenario count and the sha256 of the relations,
    conclusions and both rendered pages of every feasible scenario with n at
    most that bound, hashed in feasible_scenarios order; one walk serves
    every bound."""
    digests = {bound: hashlib.sha256() for bound in bounds}
    counts = dict.fromkeys(bounds, 0)
    for scenario in feasible_scenarios(max(bounds)):
        solution = solve_scenario(scenario)
        texts = (serialize.dumps(solution), solution.left.render(), solution.right.render())
        data = "".join(text + "\n" for text in texts).encode()
        for bound in bounds:
            if scenario.n <= bound:
                digests[bound].update(data)
                counts[bound] += 1
    return [(counts[bound], digests[bound].hexdigest()) for bound in bounds]


def _engine_digest():
    """The digest of every feasible scenario with n <= 12."""
    [digest] = _engine_digests(12)
    return digest


def test_engine_output_is_pinned():
    assert _engine_digests(12, 24) == [_ENGINE_PIN, _ENGINE_PIN_24]


def test_shared_term_refs_give_the_same_relations():
    """Refs made by an earlier solve are the ones a cold cache makes: the
    492-scenario digest is the pin from a cleared cache and again from a
    warm one, and two solves name a term by one shared ref."""
    _term_ref.cache_clear()
    assert _engine_digest() == _ENGINE_PIN
    cold = _term_ref.cache_info()
    assert cold.misses == cold.currsize > 0
    assert _engine_digest() == _ENGINE_PIN
    warm = _term_ref.cache_info()
    assert warm.misses == cold.misses and warm.hits > cold.hits
    first, again = (solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1)) for _ in range(2))
    assert first.relations == again.relations
    assert first.relations[0].left is again.relations[0].left


def test_term_ref_cache_stays_bounded():
    """An n = 4000 solve names more terms than the cache holds; it evicts
    rather than grows."""
    solve_scenario(SheafScenario(4000, 1, WitType.WIT0, 1))
    info = _term_ref.cache_info()
    assert info.maxsize == TERM_REF_CACHE_SIZE
    assert info.currsize == info.maxsize


def test_every_emitted_relation_round_trips():
    """The relation checks refuse nothing the solver emits: each relation of
    the 492 feasible scenarios with n <= 12 decodes back to itself."""
    relations = [
        relation
        for scenario in feasible_scenarios(12)
        for relation in solve_scenario(scenario).relations
    ]
    for relation in relations:
        assert serialize.relation_from_json(serialize.to_jsonable(relation)) == relation
    assert {type(relation).__name__ for relation in relations} == {
        "Identification", "ForcedZero", "ShortExact", "Forbidden"
    }


def _rescan_every_degree(left, right):
    """The duality rules run to their fixpoint the slow way, as a reference.

    Every pass rescans every total degree of both pages in ascending order,
    then checks the jointly-nonzero groups, and the loop stops when a pass
    changes nothing.  A degree emits relations on its first scan only; a
    rescan carries NonZero again.
    """
    relations = []

    def ref(side, pos):
        label = left_label(*pos) if side is Side.LEFT else right_label(*pos)
        return TermRef(side, pos, label)

    def live(grid, k):
        cells = [(pos, term) for pos, term in grid.terms.items() if sum(pos) == k]
        cells.sort(key=lambda cell: -cell[0][1])
        return [cell for cell in cells if cell[1].status is not TermStatus.ZERO]

    def make_nonzero(*terms):
        for term in terms:
            if term.status is TermStatus.UNKNOWN:
                term.status = TermStatus.NONZERO

    def scan(k, first):
        lives = lives_l, lives_r = live(left, k), live(right, k)
        if not lives_l or not lives_r:
            side, empty = (Side.LEFT, Side.RIGHT) if lives_l else (Side.RIGHT, Side.LEFT)
            for pos, term in lives_l or lives_r:
                term_ref = ref(side, pos)
                if term.status is TermStatus.UNKNOWN:
                    term.status = TermStatus.ZERO
                    relation = ForcedZero(k, term_ref)
                else:
                    relation = Forbidden(
                        k,
                        f"{term_ref.label} is required nonzero but an empty "
                        f"{empty.value} page in total degree {k} forces it to vanish",
                    )
                if first:
                    relations.append(relation)
        elif len(lives_l) == len(lives_r) == 1:
            [(pos_l, term_l)], [(pos_r, term_r)] = lives_l, lives_r
            if first:
                relations.append(
                    Identification(k, ref(Side.LEFT, pos_l), ref(Side.RIGHT, pos_r))
                )
            if TermStatus.NONZERO in (term_l.status, term_r.status):
                make_nonzero(term_l, term_r)
        elif len(lives_l) + len(lives_r) == 3:
            if len(lives_l) == 1:
                mid_side, pair_side, [(mid_pos, mid)], pair = Side.LEFT, Side.RIGHT, *lives
            else:
                mid_side, pair_side, pair, [(mid_pos, mid)] = Side.RIGHT, Side.LEFT, *lives
            (sub_pos, sub), (quot_pos, quot) = pair
            if first:
                sub_ref, quot_ref = ref(pair_side, sub_pos), ref(pair_side, quot_pos)
                relations.append(ShortExact(k, sub_ref, ref(mid_side, mid_pos), quot_ref))
            if TermStatus.NONZERO in (sub.status, quot.status):
                make_nonzero(mid)

    def check_groups():
        for grid in (left, right):
            for group in grid.joint_nonzero:
                terms = [grid.terms[pos] for pos in group]
                zeros = [term.status for term in terms].count(TermStatus.ZERO)
                if zeros == len(group):
                    labels = ", ".join(ref(grid.side, pos).label for pos in group)
                    forbidden = Forbidden(
                        max(sum(pos) for pos in group),
                        "every term of a jointly-nonzero group vanished: " + labels,
                    )
                    if forbidden not in relations:
                        relations.append(forbidden)
                elif zeros == len(group) - 1:
                    make_nonzero(*terms)

    degrees = sorted(set(_degree_range(left)) | set(_degree_range(right)))
    first = True
    while True:
        before = (len(relations), statuses(left, right))
        for k in degrees:
            scan(k, first)
        check_groups()
        first = False
        if (len(relations), statuses(left, right)) == before:
            return relations


def _random_engine_pages(data):
    """Engine pages with random statuses off the dead WIT column (so
    contradictions and every branch of a scan occur); on some examples each
    page also gets 0-3 extra jointly-nonzero groups of 1-3 positions,
    repeated positions allowed."""
    scenario = data.draw(st.sampled_from(list(feasible_scenarios(8))))
    left, right = build_pages(scenario)
    for grid in (left, right):
        for (p, _), term in grid.terms.items():
            if grid is right or p == scenario.surviving_column:
                term.status = data.draw(st.sampled_from(TermStatus))
    if data.draw(st.booleans()):
        for grid in (left, right):
            group = st.lists(st.sampled_from(sorted(grid.terms)), min_size=1, max_size=3)
            extra = data.draw(st.lists(group.map(tuple), max_size=3))
            grid.joint_nonzero += tuple(extra)
    return left, right


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_three_passes_match_rescanning_every_degree(data):
    """Engine pages with random statuses, and on some examples random
    jointly-nonzero groups, give the relations of the slow fixpoint, in the
    same order, and the same final statuses."""
    left, right = _random_engine_pages(data)
    ref_left, ref_right = copy.deepcopy((left, right))
    expected = _rescan_every_degree(ref_left, ref_right)
    assert compare_limits(left, right) == expected
    assert statuses(left, right) == statuses(ref_left, ref_right)


def _arbitrary_settled_pages(data):
    """A Left page 2-4 columns wide, a two-row Right page, random statuses
    (Left d_r targets joining two live terms zeroed until the page is
    settled) and 0-2 jointly-nonzero groups of 1-3 positions."""
    n = data.draw(st.integers(1, 6))
    p0 = data.draw(st.integers(-3, 0))
    p_range = (p0, p0 + data.draw(st.integers(1, 3)))
    shapes = {Side.LEFT: (p_range, (0, n)), Side.RIGHT: ((0, n), (-1, 0))}
    cells = {
        side: list(itertools.product(range(p[0], p[1] + 1), range(q[0], q[1] + 1)))
        for side, (p, q) in shapes.items()
    }
    groups = {Side.LEFT: [], Side.RIGHT: []}
    for _ in range(data.draw(st.integers(0, 2))):
        side = data.draw(st.sampled_from(Side))
        positions = st.sampled_from(cells[side])
        groups[side].append(
            tuple(data.draw(st.lists(positions, min_size=1, max_size=3, unique=True)))
        )
    grids = []
    for side, (p, q) in shapes.items():
        terms = {pos: Term(data.draw(st.sampled_from(TermStatus))) for pos in cells[side]}
        grids.append(PageGrid(side, n, p, q, terms, tuple(groups[side])))
    left = grids[0]
    for r in (2, 3, 4):
        for (p, q), term in left.terms.items():
            target = (p - r + 1, q + r)
            if term.status is not TermStatus.ZERO and left.in_region(target):
                left.terms[target].status = TermStatus.ZERO
    assert left.is_settled()
    return grids


def _settled_by_definition(grid):
    """is_settled's rule read off its docstring: no d_r (r >= 2) joins a
    term of the page's dict that is not Zero to a term of its region that is
    not Zero."""
    width = grid.p_range[1] - grid.p_range[0]
    height = grid.q_range[1] - grid.q_range[0]
    return not any(
        term.status is not TermStatus.ZERO
        and grid.status((p - r + 1, q + r)) is not TermStatus.ZERO
        for r in range(2, min(width + 1, height) + 1)
        for (p, q), term in grid.terms.items()
    )


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_terms_outside_the_region_change_nothing_the_solver_reads(data):
    """Pages whose dicts also hold 0-4 terms outside their rectangles, some
    of them sources of a d_r into the rectangle, all in a shuffled order:
    is_settled gives its definition's answer, and settled
    pages give the relations and final region statuses of the same pages
    without the extra terms, which the solver leaves as they were."""
    if data.draw(st.booleans()):
        left, right = _random_engine_pages(data)
    else:
        left, right = _arbitrary_settled_pages(data)
    clean = copy.deepcopy((left, right))
    extras = {}
    for grid in (left, right):
        (p0, p1), (q0, q1) = grid.p_range, grid.q_range
        box = st.tuples(st.integers(p0 - 3, p1 + 3), st.integers(q0 - 3, q1 + 3))
        # Sources whose d_r (r = 2, 3, 4) lands on a cell of the region.
        source = st.tuples(st.sampled_from(sorted(grid.terms)), st.integers(2, 4)).map(
            lambda target_r: (target_r[0][0] + target_r[1] - 1, target_r[0][1] - target_r[1])
        )
        outside = st.one_of(box, source).filter(lambda pos, grid=grid: not grid.in_region(pos))
        for pos in data.draw(st.lists(outside, max_size=4, unique=True)):
            grid.terms[pos] = extras[grid.side, pos] = Term(data.draw(st.sampled_from(TermStatus)))
        order = data.draw(st.permutations(list(grid.terms)))
        grid.terms = {pos: grid.terms[pos] for pos in order}
    before = {key: term.status for key, term in extras.items()}
    settled = [grid.is_settled() for grid in (left, right)]
    assert settled == [_settled_by_definition(grid) for grid in (left, right)]
    if all(settled):
        assert compare_limits(left, right) == compare_limits(*clean)
        for grid, clean_grid in zip((left, right), clean):
            for pos, term in clean_grid.terms.items():
                assert grid.terms[pos].status is term.status
    else:
        with pytest.raises(ValueError, match="requires degenerated pages"):
            compare_limits(left, right)
    assert {key: term.status for key, term in extras.items()} == before


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_identified_terms_end_with_one_live_status(data):
    """Both terms of every Identification end non-Zero, and NonZero on one
    side is NonZero on the other: on engine pages with random statuses and
    on arbitrary settled pages, both with random jointly-nonzero groups."""
    if data.draw(st.booleans()):
        left, right = _random_engine_pages(data)
    else:
        left, right = _arbitrary_settled_pages(data)
    for rel in compare_limits(left, right):
        if isinstance(rel, Identification):
            pair = {left.terms[rel.left.pos].status, right.terms[rel.right.pos].status}
            assert len(pair) == 1 and TermStatus.ZERO not in pair, rel


@pytest.mark.parametrize(
    "n,c,wit,shift", [(4000, 2000, WitType.WIT1, 0), (4000, 1, WitType.WIT0, 1)]
)
def test_solve_scenario_stays_linear_in_n(n, c, wit, shift):
    """Each antidiagonal reads only its in-region cells, so n = 4000 is quick."""
    start = time.perf_counter()
    solve_scenario(SheafScenario(n, c, wit, shift))
    assert time.perf_counter() - start < 2.0
