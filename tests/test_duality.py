import copy
import hashlib
import itertools
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
    _Solver,
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
    with pytest.raises(InfeasibleScenarioError):
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


def test_degenerate_refuses_malformed_pages():
    """A hole in the rectangle is a ValueError from degenerate(), checked
    before the differentials, whose scan would read it as a KeyError."""
    page = PageGrid(Side.LEFT, 2, (-1, 0), (0, 2), {(0, 0): Term(TermStatus.NONZERO)})
    with pytest.raises(ValueError, match=r"left page has no term at \(-1, 0\)"):
        degenerate(page)


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


def test_relation_degrees_cover_every_occupied_antidiagonal():
    """Each total degree with any surviving term yields exactly one relation."""
    solution = solve_scenario(SheafScenario(3, 2, WitType.WIT1, 0))
    degrees = sorted(
        {r.degree for r in solution.relations if not isinstance(r, Forbidden)}
    )
    live = sorted(
        {
            k
            for k in range(-1, 8)
            for grid in (solution.left, solution.right)
            if grid.live_on_diagonal(k)
        }
    )
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
    """Only in-region cells are visited, and they come out larger q first."""
    p0, q0 = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    p1, q1 = p0 + data.draw(st.integers(0, 4)), q0 + data.draw(st.integers(0, 4))
    terms = {
        (p, q): Term(data.draw(st.sampled_from(TermStatus)))
        for p in range(p0, p1 + 1)
        for q in range(q0, q1 + 1)
    }
    grid = PageGrid(Side.LEFT, 3, (p0, p1), (q0, q1), terms)
    degrees = grid.degrees()
    for k in range(degrees.start - 2, degrees.stop + 2):
        scan = sorted(
            ((pos, term) for pos, term in terms.items()
             if sum(pos) == k and term.status is not TermStatus.ZERO),
            key=lambda item: -item[0][1],
        )
        live = grid.live_on_diagonal(k)
        assert live == scan
        assert all(term is terms[pos] for pos, term in live)


_ENGINE_PIN = (492, "e96a108464474aa0f0c927d551898cb38642385a65dbafd30ab8d5cdc04d3a5f")


def _engine_digest():
    """The scenario count and the sha256 of the relations, conclusions and
    both rendered pages of every feasible scenario with n <= 12, hashed in
    feasible_scenarios order."""
    digest = hashlib.sha256()
    count = 0
    for scenario in feasible_scenarios(12):
        solution = solve_scenario(scenario)
        for text in (serialize.dumps(solution), solution.left.render(),
                     solution.right.render()):
            digest.update((text + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def test_engine_output_is_pinned():
    assert _engine_digest() == _ENGINE_PIN


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


class _RescanEveryDegree(_Solver):
    """The fixpoint without dirty degrees: every pass rescans every total
    degree, in ascending order."""

    def solve(self):
        degrees = sorted(set(self.left.degrees()) | set(self.right.degrees()))
        while True:
            before = (len(self.relations), statuses(self.left, self.right))
            for k in degrees:
                self._scan_degree(k)
            self._check_joint_constraints()
            if (len(self.relations), statuses(self.left, self.right)) == before:
                return list(self.relations)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_dirty_degrees_match_rescanning_every_degree(data):
    """Settled pages with random statuses off the dead WIT column (so
    contradictions and every branch of a scan occur) give the same
    relations, in the same order, and the same final statuses."""
    scenario = data.draw(st.sampled_from(list(feasible_scenarios(8))))
    left, right = build_pages(scenario)
    for grid in (left, right):
        for (p, _), term in grid.terms.items():
            if grid is right or p == scenario.surviving_column:
                term.status = data.draw(st.sampled_from(TermStatus))
    ref_left, ref_right = copy.deepcopy((left, right))
    expected = _RescanEveryDegree(ref_left, ref_right).solve()
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


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_identified_terms_end_with_one_live_status(data):
    """Both terms of every Identification end non-Zero, and NonZero on one
    side is NonZero on the other: on engine pages with random statuses and
    on arbitrary settled pages with random jointly-nonzero groups."""
    if data.draw(st.booleans()):
        scenario = data.draw(st.sampled_from(list(feasible_scenarios(8))))
        left, right = build_pages(scenario)
        for grid in (left, right):
            for (p, _), term in grid.terms.items():
                if grid is right or p == scenario.surviving_column:
                    term.status = data.draw(st.sampled_from(TermStatus))
    else:
        left, right = _arbitrary_settled_pages(data)
    for rel in compare_limits(left, right):
        if isinstance(rel, Identification):
            pair = {left.terms[rel.left.pos].status, right.terms[rel.right.pos].status}
            assert len(pair) == 1 and TermStatus.ZERO not in pair, rel


def test_fixpoint_rescans_only_changed_degrees(monkeypatch):
    """Each degree is scanned once, and again only after a status on its
    antidiagonal changed: scans <= degrees + status changes."""
    calls = []
    scan = _Solver._scan_degree

    def counted(self, k):
        calls.append(k)
        scan(self, k)

    monkeypatch.setattr(_Solver, "_scan_degree", counted)
    count = 0
    for scenario in feasible_scenarios(12):
        left, right = build_pages(scenario)
        before = statuses(left, right)
        calls.clear()
        compare_limits(left, right)
        changes = sum(a is not b for a, b in zip(before, statuses(left, right)))
        degrees = len(set(left.degrees()) | set(right.degrees()))
        assert len(calls) <= degrees + changes, scenario
        count += 1
    assert count == 492


@pytest.mark.parametrize(
    "n,c,wit,shift", [(4000, 2000, WitType.WIT1, 0), (4000, 1, WitType.WIT0, 1)]
)
def test_solve_scenario_stays_linear_in_n(n, c, wit, shift):
    """Each antidiagonal reads only its in-region cells, so n = 4000 is quick."""
    start = time.perf_counter()
    solve_scenario(SheafScenario(n, c, wit, shift))
    assert time.perf_counter() - start < 2.0
