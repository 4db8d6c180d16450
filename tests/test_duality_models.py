"""An independent model checker for the duality engine on its own pages.

After degeneration at E_2, the live terms of one page in total degree k are
the graded pieces of a filtration of one common abutment H^k, so H^k != 0
iff some Left term of degree k is nonzero, iff some Right term is.  A model
gives Zero or NonZero to every Unknown term of the pages ``build_pages``
seeds, keeping every seeded status, so that in every degree some Left term
is NonZero iff some Right term is, and every jointly-nonzero group holds a
NonZero term.

Only a group ties two degrees together (the scenario's group joins degrees
c - 1 and c), so the models are a product over blocks of degrees: the
degrees of one group together, every other degree alone.  A degree holds
one live Left term and two Right terms at most, so a block has at most 2^6
assignments, and the checker enumerates each block alone.
"""

import dataclasses
import itertools

import pytest

from weierfm import (
    ConclusionKind,
    Forbidden,
    ForcedZero,
    Identification,
    SheafScenario,
    ShortExact,
    Side,
    TermStatus,
    WitType,
    build_pages,
    duality_decision,
    solve_scenario,
)

ZERO, NONZERO, UNKNOWN = TermStatus.ZERO, TermStatus.NONZERO, TermStatus.UNKNOWN


def feasible_scenarios(max_n):
    for n in range(1, max_n + 1):
        for c in range(0, n + 1):
            for wit in WitType:
                for shift in (-1, 0, 1):
                    if 0 <= c - shift <= n:
                        yield SheafScenario(n, c, wit, shift)


def block_models(left, right):
    """{degree: the models of its block}, each model a dict from (side, pos)
    to Zero or NonZero over every term of the block's degrees; a block with
    no model maps its degrees to []."""
    seeds = {
        (grid.side, pos): term.status
        for grid in (left, right)
        for pos, term in grid.terms.items()
    }
    groups = [
        [(grid.side, pos) for pos in group]
        for grid in (left, right)
        for group in grid.joint_nonzero
    ]
    block = {sum(pos): sum(pos) for _, pos in seeds}
    for group in groups:
        merged = {block[sum(pos)] for _, pos in group}
        for k, b in block.items():
            if b in merged:
                block[k] = min(merged)
    models = {}
    for b in set(block.values()):
        degrees = [k for k in block if block[k] == b]
        cells = [cell for cell in seeds if block[sum(cell[1])] == b]
        unknown = [cell for cell in cells if seeds[cell] is UNKNOWN]
        found = []
        for values in itertools.product((ZERO, NONZERO), repeat=len(unknown)):
            model = {**{cell: seeds[cell] for cell in cells}, **dict(zip(unknown, values))}
            live = {
                (side, k): any(
                    status is NONZERO
                    for (s, pos), status in model.items()
                    if s is side and sum(pos) == k
                )
                for side in Side
                for k in degrees
            }
            if all(live[Side.LEFT, k] == live[Side.RIGHT, k] for k in degrees) and all(
                any(model[cell] is NONZERO for cell in group)
                for group in groups
                if block[sum(group[0][1])] == b
            ):
                found.append(model)
        models.update(dict.fromkeys(degrees, found))
    return models


def check_solution(solution):
    """Assert that the relations, statuses and conclusion of ``solution`` are
    sound and complete for its scenario's models; return the conclusion's
    kind."""
    scenario = solution.scenario
    models = block_models(*build_pages(scenario))
    consistent = all(models.values())
    forbidden = [r for r in solution.relations if isinstance(r, Forbidden)]
    assert bool(forbidden) is not consistent, scenario
    if consistent:
        for rel in solution.relations:
            in_block = models[rel.degree]
            if isinstance(rel, ForcedZero):
                cell = (rel.term.side, rel.term.pos)
                assert all(m[cell] is ZERO for m in in_block), rel
            elif isinstance(rel, Identification):
                left, right = (Side.LEFT, rel.left.pos), (Side.RIGHT, rel.right.pos)
                assert all(m[left] is m[right] for m in in_block), rel
            elif isinstance(rel, ShortExact):
                sub, mid, quot = ((ref.side, ref.pos) for ref in (rel.sub, rel.mid, rel.quot))
                assert all(
                    (m[mid] is NONZERO) == (NONZERO in (m[sub], m[quot])) for m in in_block
                ), rel
        # Soundness and completeness at once: a term ends Zero or NonZero
        # iff it has that status in every model, and Unknown otherwise.
        for grid in (solution.left, solution.right):
            for pos, term in grid.terms.items():
                seen = {m[grid.side, pos] for m in models[sum(pos)]}
                expected = seen.pop() if len(seen) == 1 else UNKNOWN
                assert term.status is expected, (scenario, grid.side, pos)
    anchor = (Side.RIGHT, (scenario.c, -1))  # ι*(Φ^0 E^D) ⊗ p*L
    if not consistent:
        kind = ConclusionKind.FORBIDDEN
    elif all(m[anchor] is ZERO for m in models[scenario.c - 1]):
        kind = ConclusionKind.DUAL_IS_WIT1
    else:
        kind = ConclusionKind.DUAL_IDENTIFICATION
    assert solution.conclusion.kind is kind, scenario
    assert duality_decision(scenario).kind is kind, scenario
    return kind


def test_engine_agrees_with_its_models_up_to_n_8():
    """Every feasible scenario with n <= 8, checked block by block; each
    conclusion occurs."""
    kinds = [
        check_solution(solve_scenario(scenario)) for scenario in feasible_scenarios(8)
    ]
    assert len(kinds) == 232
    assert set(kinds) == set(ConclusionKind)


@pytest.mark.parametrize("status", [TermStatus.ZERO, TermStatus.NONZERO])
def test_checker_refuses_a_status_no_model_forces(status):
    """Negative control: deciding a term the models leave open fails the
    completeness check, whichever way it is decided."""
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1))
    open_terms = [
        (side, i)
        for side in ("left", "right")
        for i, term_status in enumerate(getattr(solution, side).statuses)
        if term_status is UNKNOWN
    ]
    assert open_terms
    side, i = open_terms[0]
    grid = getattr(solution, side)
    spoiled = dataclasses.replace(
        grid, statuses=grid.statuses[:i] + (status,) + grid.statuses[i + 1:]
    )
    with pytest.raises(AssertionError):
        check_solution(dataclasses.replace(solution, **{side: spoiled}))


def test_checker_refuses_a_missing_forbidden():
    """Negative control: a scenario with no model must carry a Forbidden."""
    solution = solve_scenario(SheafScenario(3, 1, WitType.WIT0, -1))
    kept = tuple(r for r in solution.relations if not isinstance(r, Forbidden))
    with pytest.raises(AssertionError):
        check_solution(dataclasses.replace(solution, relations=kept))
