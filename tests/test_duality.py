import copy
import dataclasses
import hashlib
import itertools
import json
import operator
import time

from types import SimpleNamespace

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
    _entailed_conclusion,
    _live_by_degree,
    _solve,
    _term_ref,
    left_label,
    right_label,
)


def statuses(*grids):
    return [status for grid in grids for status in grid.statuses]


def with_statuses(grid, changes):
    """``grid`` with the status at each position of ``changes`` replaced,
    built through the public constructor."""
    cells = list(grid.statuses)
    for pos, status in changes.items():
        cells[grid.index(pos)] = status
    return dataclasses.replace(grid, statuses=tuple(cells))


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
    hold the per-cell statuses in the per-cell order, column by column, and
    ``terms`` shows each at its position."""
    count = 0
    for scenario in feasible_scenarios(12):
        n = scenario.n
        left, right = build_pages(scenario)
        want_left, want_right = _seeded_statuses(scenario)
        assert left.statuses == tuple(want_left.values())
        assert right.statuses == tuple(want_right.values())
        assert [(pos, t.status) for pos, t in left.terms.items()] == list(want_left.items())
        assert [(pos, t.status) for pos, t in right.terms.items()] == list(want_right.items())
        assert (left.side, left.n, left.p_range, left.q_range) == (Side.LEFT, n, (-1, 0), (0, n))
        assert (right.side, right.n, right.p_range, right.q_range) == (Side.RIGHT, n, (0, n), (-1, 0))
        assert left.joint_nonzero == ()
        assert right.joint_nonzero == (((scenario.c, -1), (scenario.c, 0)),)
        assert len(left.statuses) + len(right.statuses) == 4 * (n + 1)
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
    assert left.status((0, 1)) is left.statuses[left.index((0, 1))] is TermStatus.NONZERO


# -- degeneration ----------------------------------------------------------------


@pytest.mark.parametrize("scenario", list(feasible_scenarios(3)))
def test_engine_pages_settle_immediately(scenario):
    left, right = build_pages(scenario)
    settled_left, left_page = degenerate(left)
    settled_right, right_page = degenerate(right)
    assert left_page == 2
    assert right_page == 2
    assert settled_left is left and settled_right is right


def test_two_live_columns_degenerate_later():
    """A live d_2 arrow breaks the E_2 degeneration that degenerate() checks."""
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    assert left.status((0, 1)) is TermStatus.NONZERO
    left = with_statuses(left, {(-1, 3): TermStatus.NONZERO})  # resurrect the dead column
    assert not left.is_settled()
    with pytest.raises(InternalCheckError):
        degenerate(left)


@pytest.mark.parametrize("left_pos", [None, (1, -1)], ids=["no-relations", "wrong-partner"])
def test_a_conclusion_the_relations_do_not_entail_is_an_internal_error(left_pos):
    """With Φ^0(E^D) neither zero nor identified, or identified with a left
    term other than the dual of the surviving transform at (0, 0), the
    conclusion step refuses with InternalCheckError."""
    scenario = SheafScenario(3, 1, WitType.WIT0, 1)
    _, right = build_pages(scenario)
    anchor = (scenario.c, -1)
    assert right.status(anchor) is not TermStatus.ZERO
    relations = [] if left_pos is None else [Identification(
        0, TermRef(Side.LEFT, left_pos, left_label(*left_pos)),
        TermRef(Side.RIGHT, anchor, right_label(*anchor)))]
    message = "resolved neither" if left_pos is None else "not with the dual"
    with pytest.raises(InternalCheckError, match=message):
        _entailed_conclusion(scenario, right, relations)


def test_compare_limits_requires_settled_pages():
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    left = with_statuses(left, {(-1, 3): TermStatus.NONZERO})
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
    outside it, is refused when it is built, so no entry point meets it;
    compare_limits() refuses an argument that is not a PageGrid, even one
    holding a page's fields."""
    with pytest.raises(
        ValueError, match=r"^the left page's rectangle \(-1, 0\) × \(0, 1\) has 4 cells, got 0 statuses$"
    ):
        PageGrid(Side.LEFT, 1, (-1, 0), (0, 1), ())
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    with pytest.raises(ValueError, match=r"names \(9, 9\), outside the right page"):
        dataclasses.replace(right, joint_nonzero=(((9, 9), (1, 0)),))
    with pytest.raises(ValueError, match="^right page must be a PageGrid, got SimpleNamespace"):
        compare_limits(left, SimpleNamespace(**vars(right)))


def test_a_page_missing_several_terms_names_the_smallest_hole():
    """Statuses with several cells left unfilled, each hole marked by a
    string naming it, are refused at the first hole in column order, the
    smallest; statuses that stop short are refused by their count.  Neither
    refusal changes the page the attempt started from."""
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    holes = {pos: f"no term at {pos}" for pos in ((0, 3), (-1, 2), (0, 1))}
    message = r"^an entry of statuses must be a TermStatus, got str 'no term at \(-1, 2\)'$"
    with pytest.raises(ValueError, match=message):
        with_statuses(left, holes)
    message = r"^the left page's rectangle \(-1, 0\) × \(0, 3\) has 8 cells, got 5 statuses$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(left, statuses=left.statuses[:5])
    assert left == build_pages(SheafScenario(3, 1, WitType.WIT0, 0))[0]


def test_degenerate_refuses_malformed_pages():
    """A page with one status for its six cells never reaches degenerate():
    its constructor refuses it.  degenerate() refuses an argument that is
    not a PageGrid, even one holding a page's fields, before reading it."""
    with pytest.raises(
        ValueError, match=r"^the left page's rectangle \(-1, 0\) × \(0, 2\) has 6 cells, got 1 statuses$"
    ):
        PageGrid(Side.LEFT, 2, (-1, 0), (0, 2), (TermStatus.NONZERO,))
    left, _ = build_pages(SheafScenario(2, 1, WitType.WIT0, 0))
    with pytest.raises(ValueError, match="^page must be a PageGrid, got SimpleNamespace"):
        degenerate(SimpleNamespace(**vars(left)))


def _set_status(pos, value):
    """A spoiler that puts ``value`` in place of the status at ``pos``."""
    def spoil(fields):
        (p0, _), (q0, q1) = fields["p_range"], fields["q_range"]
        cells = list(fields["statuses"])
        cells[(pos[0] - p0) * (q1 - q0 + 1) + pos[1] - q0] = value
        fields["statuses"] = tuple(cells)
    return spoil


# (page index, spoiler of the page's fields, message) of pages the
# constructor refuses.  The page is build_pages' left (0) or right (1) page
# of (3, 1, WIT0, 0): the left rectangle is (-1, 0) × (0, 3), the right
# one (0, 3) × (-1, 0), eight cells each.
_MALFORMED_PAGES = [
    pytest.param(0, _set_status((0, 0), "NonZero"),
                 r"^an entry of statuses must be a TermStatus, got str 'NonZero'$",
                 id="status-string"),
    pytest.param(1, lambda fields: fields.update(statuses=("Zero",) * 8),
                 r"^an entry of statuses must be a TermStatus, got str 'Zero'$",
                 id="page-of-status-strings"),
    pytest.param(0, _set_status((0, 2), None),
                 r"^an entry of statuses must be a TermStatus, got NoneType None$",
                 id="entry-none"),
    pytest.param(1, _set_status((2, 0), Term(TermStatus.UNKNOWN)),
                 r"^an entry of statuses must be a TermStatus, got Term Term\(\.\.\.\)$",
                 id="entry-term"),
    pytest.param(0, lambda fields: fields.update(statuses=fields["statuses"][:-1]),
                 r"^the left page's rectangle \(-1, 0\) × \(0, 3\) has 8 cells, got 7 statuses$",
                 id="hole"),
    pytest.param(1, lambda fields: fields.update(joint_nonzero=((0, 0),)),
                 r"^an entry of an entry of joint_nonzero must be a tuple, got int 0$",
                 id="position-for-group"),
    pytest.param(1, lambda fields: fields.update(joint_nonzero=((),)),
                 r"^a joint_nonzero group of the right page must be a non-empty tuple "
                 r"of positions, got \(\)$", id="empty-group"),
    pytest.param(1, lambda fields: fields.update(joint_nonzero=(((1, 0), (1, -1.0)),)),
                 r"^an entry of an entry of an entry of joint_nonzero must be an int, "
                 r"got float -1\.0$", id="float-position"),
    pytest.param(1, lambda fields: fields.update(joint_nonzero=(((1, 0), (1, 1)),)),
                 r"^a joint_nonzero group names \(1, 1\), outside the right page$",
                 id="position-outside"),
    pytest.param(0, lambda fields: fields.update(p_range=(0, -1)),
                 r"^the left page's rectangle \(0, -1\) × \(0, 3\) is empty$",
                 id="empty-rectangle"),
    pytest.param(0, lambda fields: fields.update(p_range=(-1, 0.5)),
                 r"^an entry of p_range must be an int, got float 0\.5$", id="float-range"),
    pytest.param(1, lambda fields: fields.update(q_range=(-1, 0, 1)),
                 r"^q_range must have 2 entries, got 3$", id="long-range"),
    pytest.param(1, lambda fields: fields.update(joint_nonzero=None),
                 r"^joint_nonzero must be a tuple, got NoneType None$", id="groups-none"),
    pytest.param(0, lambda fields: fields.update(statuses=fields["statuses"] + (None,)),
                 r"^an entry of statuses must be a TermStatus, got NoneType None$",
                 id="entry-none-outside"),
    pytest.param(1, lambda fields: fields.update(statuses=fields["statuses"] + ("Zero",)),
                 r"^an entry of statuses must be a TermStatus, got str 'Zero'$",
                 id="status-string-outside"),
    pytest.param(0, lambda fields: fields.update(statuses=fields["statuses"] + (TermStatus.ZERO,)),
                 r"^the left page's rectangle \(-1, 0\) × \(0, 3\) has 8 cells, got 9 statuses$",
                 id="status-outside"),
    pytest.param(0, lambda fields: fields.update(statuses={"(1, -2)": TermStatus.ZERO}),
                 r"^statuses must be a tuple, got dict ", id="string-key-outside"),
    pytest.param(0, lambda fields: fields.update(joint_nonzero=(((1, True),),)),
                 r"^an entry of an entry of an entry of joint_nonzero must be an int, "
                 r"got bool True$", id="bool-key-outside"),
]


@pytest.mark.parametrize("index,spoil,message", _MALFORMED_PAGES)
def test_entry_points_refuse_malformed_pages(index, spoil, message):
    """A page is checked when it is built: the constructor, and
    dataclasses.replace() on a good page, refuse a malformed one with
    ValueError, so degenerate(), compare_limits() and render() never meet
    one.  The good page stays as it was."""
    page = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))[index]
    fields = dict(vars(page))
    spoil(fields)
    with pytest.raises(ValueError, match=message):
        PageGrid(**fields)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(page, **fields)
    assert page == build_pages(SheafScenario(3, 1, WitType.WIT0, 0))[index]


@pytest.mark.parametrize(
    "field,value,message",
    [("side", "left", r"^side must be a Side, got str 'left'$"),
     ("statuses", None, r"^statuses must be a tuple, got NoneType None$"),
     ("n", 3.0, r"^n must be an int, got float 3\.0$")],
    ids=["side", "terms", "n"],
)
def test_entry_points_refuse_a_page_whose_own_fields_are_malformed(field, value, message):
    """A page's own fields are checked against their annotations when it is
    built: a side that is not a Side, statuses that are not a tuple and an
    n that is not an int are each a ValueError naming the field, not an
    AttributeError or TypeError met later by an entry point."""
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(left, **{field: value})
    with pytest.raises(ValueError, match=message):
        PageGrid(**{**vars(left), field: value})


def test_an_extra_zero_term_outside_the_rectangle_is_no_source():
    """A page holds no term outside its rectangle: a Zero status past its
    cells is refused when the page is built, so no such term can be a d_r
    source.  The page as built passes degenerate() and gives the relations
    of the scenario's solve."""
    scenario = SheafScenario(3, 1, WitType.WIT0, 1)
    left, right = build_pages(scenario)
    with pytest.raises(ValueError, match=r"has 8 cells, got 9 statuses$"):
        dataclasses.replace(left, statuses=left.statuses + (TermStatus.ZERO,))
    assert degenerate(left) == (left, 2)
    assert compare_limits(left, right) == list(solve_scenario(scenario).relations)


def test_page_grid_is_frozen():
    """A page cannot be changed once built, and ``terms`` is a fresh dict
    of frozen Terms each time it is read."""
    left, _ = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    for field, value in (("statuses", ()), ("joint_nonzero", ()), ("n", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(left, field, value)
    terms = left.terms
    with pytest.raises(dataclasses.FrozenInstanceError):
        terms[0, 0].status = TermStatus.ZERO
    terms.clear()
    assert len(left.terms) == 8 and left.terms is not left.terms
    assert hash(left) == hash(build_pages(SheafScenario(3, 1, WitType.WIT0, 0))[0])


def test_degenerate_and_compare_limits_leave_a_callers_pages_unchanged():
    """For every feasible scenario with n <= 4, degenerate() and
    compare_limits() leave the pages they are given equal to what they
    were; the refined pages come from solve_scenario(), with the same
    relations.  Some solves refine a status, so the two differ."""
    refined = 0
    for scenario in feasible_scenarios(4):
        left, right = build_pages(scenario)
        before = copy.deepcopy((left, right))
        assert degenerate(left) == (left, 2) and degenerate(right) == (right, 2)
        relations = compare_limits(left, right)
        assert (left, right) == before
        solution = solve_scenario(scenario)
        assert relations == list(solution.relations)
        assert (solution.left, solution.right) == _solve(left, right)[1:]
        refined += (solution.left, solution.right) != (left, right)
    assert refined > 0


def test_repeated_groups_are_deduplicated_in_linear_time(monkeypatch):
    """A right page with 300 all-Zero jointly-nonzero groups, each listed
    twice, forbids each group once, in the order the groups first appear,
    comparing Forbidden relations about once per repeat (a scan of the
    relations for each group would compare about 300² pairs)."""
    groups = 300
    right = PageGrid(
        Side.RIGHT, 3, (0, groups - 1), (-1, 0), (TermStatus.ZERO,) * (2 * groups),
        tuple(((p, -1), (p, 0)) for p in range(groups)) * 2,
    )
    left = PageGrid(Side.LEFT, 3, (-1, 0), (0, 3), (TermStatus.ZERO,) * 8)
    calls = []
    real = Forbidden.__eq__
    monkeypatch.setattr(Forbidden, "__eq__", lambda one, other: calls.append(1) or real(one, other))
    relations = compare_limits(left, right)
    assert [relation.degree for relation in relations] == list(range(groups))
    assert all(isinstance(relation, Forbidden) for relation in relations)
    assert len(calls) <= 2 * groups


# compare_limits on the unseeded page of ROADMAP item 2, rendered.
_UNSEEDED_GROUP_RELATIONS = [
    "[k=0] Ext^0(Φ^0E, O_X) ≅ ι*(Φ^0Ext^1(E, O_X)) ⊗ p*L",
    "[k=1] 0 → ι*(Φ^1Ext^1(E, O_X)) ⊗ p*L → Ext^1(Φ^0E, O_X) → ι*(Φ^0Ext^2(E, O_X)) ⊗ p*L → 0",
    "[k=2] 0 → ι*(Φ^1Ext^2(E, O_X)) ⊗ p*L → Ext^2(Φ^0E, O_X) → ι*(Φ^0Ext^3(E, O_X)) ⊗ p*L → 0",
    "[k=3] Ext^3(Φ^0E, O_X) ≅ ι*(Φ^1Ext^3(E, O_X)) ⊗ p*L",
]


def test_an_unseeded_group_keeps_its_relations_and_leaves_its_terms_open():
    """The right page of (3, 1, WIT0, +1) with its group replaced by
    ((2, 0), (3, -1)), a group inside degree 2 that build_pages never seeds:
    compare_limits() gives the pinned relations, and the solve leaves the
    k = 2 mid Ext^2(Φ^0E, O_X) at (0, 2) and both terms of the group
    Unknown.  Every model makes that mid NonZero, but the group rule fires
    only when all but one of a group's terms are Zero, so this is a known
    gap of the rules, pinned here so that closing it is a visible change."""
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 1))
    right = dataclasses.replace(right, joint_nonzero=(((2, 0), (3, -1)),))
    assert [relation.render() for relation in compare_limits(left, right)] == (
        _UNSEEDED_GROUP_RELATIONS
    )
    _, solved_left, solved_right = _solve(left, right)
    zero, nonzero, unknown = TermStatus.ZERO, TermStatus.NONZERO, TermStatus.UNKNOWN
    assert solved_left.statuses == (zero,) * 4 + (nonzero,) + (unknown,) * 3
    assert solved_right.statuses == (zero, zero, nonzero) + (unknown,) * 5
    assert solved_left.status((0, 2)) is unknown


def _offset_right_page():
    """A Right page whose rows start below 0 (q₀ = -1): (1, -1) and (0, 1)
    are NonZero and d_2 joins them, since (1, -1) + (-1, 2) = (0, 1)."""
    cells = itertools.product((0, 1), (-1, 0, 1))
    live = {(1, -1), (0, 1)}
    statuses = tuple(TermStatus.NONZERO if pos in live else TermStatus.ZERO for pos in cells)
    return PageGrid(Side.RIGHT, 3, (0, 1), (-1, 1), statuses)


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
    """The page checks run when a caller builds a page, by the constructor
    or dataclasses.replace(), and nowhere else: build_pages() and
    solve_scenario() build their pages unchecked, and degenerate() and
    compare_limits() do not check a page again."""
    calls = []
    real = PageGrid.__post_init__
    monkeypatch.setattr(PageGrid, "__post_init__", lambda grid: calls.append(grid.side) or real(grid))
    solve_scenario(SheafScenario(3, 1, WitType.WIT0, 0))
    left, right = build_pages(SheafScenario(3, 1, WitType.WIT0, 0))
    assert calls == []
    left = dataclasses.replace(left)
    right = PageGrid(**vars(right))
    assert calls == [Side.LEFT, Side.RIGHT]
    calls.clear()
    degenerate(left)
    degenerate(right)
    compare_limits(left, right)
    assert calls == []


def test_build_pages_gives_pages_the_boundary_check_returns_unchanged():
    """What lets build_pages() and solve_scenario() build their pages
    unchecked: for every scenario the duality benchmark solves (n <= 24) and
    five at n = 1000, the public constructor accepts the fields of each
    seeded page and each refined page of the solve and builds a page equal
    to it, field by field."""
    large = [(0, WitType.WIT0, 0), (1, WitType.WIT0, 1), (500, WitType.WIT1, 0),
             (999, WitType.WIT1, -1), (1000, WitType.WIT0, 0)]
    scenarios = [*feasible_scenarios(24), *(SheafScenario(1000, *args) for args in large)]
    assert len(scenarios) == 1848 + 5
    for scenario in scenarios:
        solution = solve_scenario(scenario)
        for grid in (*build_pages(scenario), solution.left, solution.right):
            rebuilt = PageGrid(**vars(grid))
            assert vars(rebuilt) == vars(grid)


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
    """On a page of random shape and statuses, grouping gives each total
    degree's live cells larger q first, each as the offset plus its index
    in ``statuses`` and its position, as a scan of every cell does; a
    second page grouped into the same dict puts its cells after them."""
    p0, q0 = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    p1, q1 = p0 + data.draw(st.integers(0, 4)), q0 + data.draw(st.integers(0, 4))
    cells = list(itertools.product(range(p0, p1 + 1), range(q0, q1 + 1)))
    page_statuses = tuple(data.draw(st.sampled_from(TermStatus)) for _ in cells)
    grid = PageGrid(Side.LEFT, 3, (p0, p1), (q0, q1), page_statuses)
    assert [grid.index(pos) for pos in cells] == list(range(len(cells)))
    offset = data.draw(st.integers(0, 50))

    def scan(k, offset):
        return sorted(
            ((offset + i, pos) for i, pos in enumerate(cells)
             if sum(pos) == k and page_statuses[i] is not TermStatus.ZERO),
            key=lambda cell: -cell[1][1],
        )

    groups, pair = {}, {}
    _live_by_degree(grid, offset, groups)
    _live_by_degree(grid, offset, pair)
    _live_by_degree(grid, offset + len(cells), pair)
    for k in range(p0 + q0 - 2, p1 + q1 + 3):
        assert groups.pop(k, []) == scan(k, offset)
        assert pair.pop(k, []) == scan(k, offset) + scan(k, offset + len(cells))
    assert groups == pair == {}


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
    the 492 feasible scenarios with n <= 12 decodes back to itself, and its
    JSON re-encodes to the same text."""
    relations = [
        relation
        for scenario in feasible_scenarios(12)
        for relation in solve_scenario(scenario).relations
    ]
    for relation in relations:
        doc = json.loads(json.dumps(serialize.to_jsonable(relation)))
        assert (decoded := serialize.relation_from_json(doc)) == relation
        assert json.dumps(serialize.to_jsonable(decoded)) == json.dumps(doc)
    assert {type(relation).__name__ for relation in relations} == {
        "Identification", "ForcedZero", "ShortExact", "Forbidden"
    }


@dataclasses.dataclass
class _Cell:
    """A status the reference fixpoint refines in place."""
    status: TermStatus


def _rescan_every_degree(left, right):
    """The duality rules run to their fixpoint the slow way, as a reference.

    Every pass rescans every total degree of both pages in ascending order,
    then checks the jointly-nonzero groups, and the loop stops when a pass
    changes nothing.  A degree emits relations on its first scan only; a
    rescan carries NonZero again.  Returns the relations and the final
    statuses of both pages, in the order ``statuses`` lists them.
    """
    relations = []
    cells = {
        grid.side: {pos: _Cell(term.status) for pos, term in grid.terms.items()}
        for grid in (left, right)
    }

    def ref(side, pos):
        label = left_label(*pos) if side is Side.LEFT else right_label(*pos)
        return TermRef(side, pos, label)

    def live(side, k):
        found = [(pos, cell) for pos, cell in cells[side].items() if sum(pos) == k]
        found.sort(key=lambda item: -item[0][1])
        return [item for item in found if item[1].status is not TermStatus.ZERO]

    def make_nonzero(*terms):
        for term in terms:
            if term.status is TermStatus.UNKNOWN:
                term.status = TermStatus.NONZERO

    def scan(k, first):
        lives = lives_l, lives_r = live(Side.LEFT, k), live(Side.RIGHT, k)
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
                terms = [cells[grid.side][pos] for pos in group]
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

    def final():
        return [cell.status for side in Side for cell in cells[side].values()]

    degrees = sorted(set(_degree_range(left)) | set(_degree_range(right)))
    first = True
    while True:
        before = (len(relations), final())
        for k in degrees:
            scan(k, first)
        check_groups()
        first = False
        if (len(relations), final()) == before:
            return relations, before[1]


# The scenarios the random engine pages are drawn from, built once.
_SCENARIOS_UP_TO_8 = list(feasible_scenarios(8))


def _random_engine_pages(data):
    """Engine pages with random statuses off the dead WIT column (so
    contradictions and every branch of a scan occur); on some examples each
    page also gets 0-3 extra jointly-nonzero groups of 1-3 positions,
    repeated positions allowed."""
    scenario = data.draw(st.sampled_from(_SCENARIOS_UP_TO_8))
    pages = []
    for grid in build_pages(scenario):
        pages.append(dataclasses.replace(grid, statuses=tuple(
            data.draw(st.sampled_from(TermStatus))
            if grid.side is Side.RIGHT or p == scenario.surviving_column else term.status
            for (p, _), term in grid.terms.items()
        )))
    if data.draw(st.booleans()):
        for i, grid in enumerate(pages):
            group = st.lists(st.sampled_from(sorted(grid.terms)), min_size=1, max_size=3)
            extra = data.draw(st.lists(group.map(tuple), max_size=3))
            pages[i] = dataclasses.replace(grid, joint_nonzero=grid.joint_nonzero + tuple(extra))
    return pages


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_three_passes_match_rescanning_every_degree(data):
    """Engine pages with random statuses, and on some examples random
    jointly-nonzero groups, give the relations of the slow fixpoint, in the
    same order, and the same final statuses."""
    left, right = _random_engine_pages(data)
    expected, final = _rescan_every_degree(left, right)
    relations, solved_left, solved_right = _solve(left, right)
    assert relations == expected
    assert statuses(solved_left, solved_right) == final
    assert compare_limits(left, right) == expected


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
    page_statuses = {
        side: {pos: data.draw(st.sampled_from(TermStatus)) for pos in cells[side]}
        for side in shapes
    }
    left = page_statuses[Side.LEFT]
    for r in (2, 3, 4):
        for (p, q), status in left.items():
            target = (p - r + 1, q + r)
            if status is not TermStatus.ZERO and target in left:
                left[target] = TermStatus.ZERO
    grids = [
        PageGrid(side, n, p, q, tuple(page_statuses[side].values()), tuple(groups[side]))
        for side, (p, q) in shapes.items()
    ]
    assert grids[0].is_settled()
    return grids


def _settled_by_definition(grid):
    """is_settled's rule read off its docstring, with no bound on r: no d_r
    (r >= 2) joins a term of the rectangle that is not Zero to a term that
    is not Zero, read through status(), which is Zero off the rectangle."""
    (p0, p1), (q0, q1) = grid.p_range, grid.q_range
    return not any(
        term.status is not TermStatus.ZERO
        and grid.status((p - r + 1, q + r)) is not TermStatus.ZERO
        for r in range(2, p1 - p0 + q1 - q0 + 3)
        for (p, q), term in grid.terms.items()
    )


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_terms_outside_the_region_change_nothing_the_solver_reads(data):
    """A page has no term outside its rectangle and reads Zero there.  On
    engine pages with random statuses and on arbitrary settled pages, with
    0-3 Left statuses then redrawn (which may unsettle the page):
    is_settled gives its definition's answer, in which a d_r target off the
    rectangle reads Zero; compare_limits() gives the solver's relations on
    settled pages and refuses the others; and both pages stay as they
    were."""
    if data.draw(st.booleans()):
        left, right = _random_engine_pages(data)
    else:
        left, right = _arbitrary_settled_pages(data)
    redrawn = st.dictionaries(st.sampled_from(sorted(left.terms)), st.sampled_from(TermStatus),
                              max_size=3)
    left = with_statuses(left, data.draw(redrawn))
    before = copy.deepcopy((left, right))
    settled = [grid.is_settled() for grid in (left, right)]
    assert settled == [_settled_by_definition(grid) for grid in (left, right)]
    if all(settled):
        assert compare_limits(left, right) == _solve(left, right)[0]
    else:
        with pytest.raises(ValueError, match="requires degenerated pages"):
            compare_limits(left, right)
    assert (left, right) == before


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
    relations, solved_left, solved_right = _solve(left, right)
    for rel in relations:
        if isinstance(rel, Identification):
            pair = {solved_left.status(rel.left.pos), solved_right.status(rel.right.pos)}
            assert len(pair) == 1 and TermStatus.ZERO not in pair, rel


@pytest.mark.parametrize(
    "n,c,wit,shift", [(4000, 2000, WitType.WIT1, 0), (4000, 1, WitType.WIT0, 1)]
)
def test_solve_scenario_stays_linear_in_n(n, c, wit, shift):
    """Each antidiagonal reads only its in-region cells, so n = 4000 is quick."""
    start = time.perf_counter()
    solve_scenario(SheafScenario(n, c, wit, shift))
    assert time.perf_counter() - start < 2.0
