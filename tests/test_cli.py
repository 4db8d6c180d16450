import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weierfm import cli, get_preset, serialize
from weierfm.errors import InternalCheckError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_lines(capsys, argv, patterns):
    """``argv`` exits 0 and each regular expression matches a whole line of its stdout."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    for pattern in patterns:
        assert any(re.fullmatch(pattern, line) for line in out.splitlines()), pattern


def test_transform_human_output(capsys):
    code, out, _ = run(capsys, "transform", "--preset", "k3_quartic", "-m", "-2")
    assert code == 0
    assert "O_X(-2Θ)" in out
    assert "WIT1" in out
    assert "locally free  yes" in out


def test_transform_json_round_trips(capsys, k3):
    payload = run_json(capsys, "transform", "--preset", "k3_quartic", "-m", "-2", "--json")
    result = serialize.transform_result_from_json(payload, k3.model)
    from weierfm import LineBundleX, transform_char

    assert result == transform_char(LineBundleX(k3.model, -2))


def test_transform_accepts_twists_and_kernels(capsys):
    payload = run_json(
        capsys, "transform", "--preset", "general_demo", "-m", "1",
        "--twist", "1,0", "--json",
    )
    assert payload["char"]["ch0"] == "1"
    assert payload["char"]["ch1"]["delta"] == ["0", "-1"]


def test_slope_plain_and_json(capsys):
    code, out, _ = run(
        capsys, "slope", "--preset", "k3_quartic", "-t", "1", "-s", "1",
        "--ch0", "-2", "--ch1-theta", "-1",
    )
    assert code == 0 and out.strip() == "2"
    payload = run_json(
        capsys, "slope", "--preset", "k3_quartic", "-t", "1", "-s", "1",
        "--ch0", "-2", "--ch1-theta", "-1", "--json",
    )
    assert payload == {"slope": "2"}


def test_dual_json(capsys):
    payload = run_json(
        capsys, "dual", "--preset", "k3_quartic",
        "--ch0", "3", "--ch1-theta", "-1", "--ch1-delta", "2", "--json",
    )
    assert payload == {"ch0": "3", "ch1": {"a": "1", "delta": ["-2"]}}
    assert_lines(capsys, ("dual", "--preset", "general_demo", "--ch0", "2", "--ch1-theta", "-1",
                          "--ch1-delta", "1,0"), [re.escape("ch1  Θ + p*[-1, 0]")])


def test_commute_human_and_negative_case(capsys):
    twisted = ("general_demo", "-m", "2", "--twist", "1,0", "--kernel")
    for argv, answer in [(("k3_quartic", "-m", "5"), "commutes     yes"),
                         (("general_demo", "-m", "1", "--kernel", "alternate"), "commutes *no"),
                         ((*twisted, "paper"), "commutes *yes"),
                         ((*twisted, "alternate"), "commutes *no"),
                         (("k3_quartic", "-m", "-3", "--kernel", "alternate"), "commutes *yes")]:
        assert_lines(capsys, ("commute", "--preset", *argv), [answer])


def test_ss_duality_json_matches_library(capsys):
    payload = run_json(
        capsys, "ss-duality", "-n", "3", "-c", "1", "--wit", "0",
        "--dim-shift", "1", "--json",
    )
    assert payload["conclusion"]["kind"] == "DualIdentification"
    assert payload["right_degeneration_page"] == 2
    for rel in payload["relations"]:
        serialize.relation_from_json(rel)


def test_ss_duality_accepts_wit_spellings(capsys):
    for spelling in ("1", "WIT1"):
        code, out, _ = run(
            capsys, "ss-duality", "-c", "2", "--wit", spelling, "--dim-shift", "0",
        )
        assert code == 0
        assert "DualIdentification" in out


@pytest.mark.parametrize(
    "n,c,wit,shift,kind",
    [(3, 0, 1, 0, "DualIdentification"), (3, 1, 0, 1, "DualIdentification"),
     (3, 1, 0, 0, "DualIsWIT1"), (3, 1, 0, -1, "Forbidden"),  # Forbidden: all three passes run
     # about 4 500 term refs each, more than TERM_REF_CACHE_SIZE = 4096
     (3000, 1500, 0, 1, "DualIdentification"), (3000, 1500, 1, -1, "DualIsWIT1")],
)
def test_ss_duality_ends_in_each_conclusion(capsys, n, c, wit, shift, kind):
    argv = ("ss-duality", "-n", str(n), "-c", str(c), "--wit", str(wit), "--dim-shift", str(shift))
    assert_lines(capsys, argv, [f"conclusion *{kind}"])
    assert run_json(capsys, *argv, "--json")["conclusion"]["kind"] == kind


def test_certify_json_round_trips(capsys, k3_pol):
    payload = run_json(
        capsys, "certify", "--preset", "k3_quartic", "-t", "1", "-s", "1",
        "-n", "2", "-r", "1", "--a", "1", "--e", "1", "--json",
    )
    report = serialize.stability_report_from_json(payload)
    assert report.verdict.value == "Certified"
    assert report.candidate_slope == 0
    assert report.target_slope == 2


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("-t", "1", "-s", "1", "--a", "0", "--e", "1"),
         ["verdict *Inadmissible", re.escape("  fiber-degree step: 4 (want <= 0) FAILS"),
          re.escape("  inadmissible: fiber degree +1 > 0")]),
        # slope numerator 0 whatever the functionals: only their check sees a wrong one
        (("-t", "1", "-s", "1", "--a", "1", "--e", "1"),
         ["target slope *2", "candidate slope *0", "verdict *Certified"]),
        # denominators 3 and 7, which no scan grid builds
        (("-t", "1", "-s", "1", "--a=1/3", "--delta=2/7", "--e=1"), ["candidate slope *8/21"]),
        # t != s; the trace is the closed form's (e - a)·s²H², -2ts·(δ·H) and 0
        (("-t", "1/2", "-s", "2", "--a=1/3", "--delta=2/7", "--e=1"),
         ["candidate slope *176/21", "target slope *8",
          re.escape("  fiber-degree step: 32/3 (want <= 0) FAILS"),
          re.escape("  effectivity step: -16/7 (want <= 0) ok"),
          re.escape("  section-part step: 0 (want == 0) ok")]),
        # the a < 0 proxy, and 2ts = 1/4 whose denominator the scan's, 2, does not hold
        (("-t", "1/4", "-s", "1/2", "--a=-1/2", "--delta=-1", "--e=0"),
         ["proxy *a≥0: no, delta·H = -4", re.escape("  effectivity step: 1 (want <= 0) FAILS"),
          re.escape("  inadmissible: effectivity proxy fails: a = -1/2 < 0")]),
    ],
    ids=["inadmissible", "certified", "off-grid", "t-not-s", "negative-a"],
)
def test_certify_human_shows_trace(capsys, argv, expected):
    assert_lines(capsys, ("certify", "--preset", "k3_quartic", "-n", "2", "-r", "1", *argv),
                 expected)


def test_scan_human_output(capsys):
    code, out, _ = run(
        capsys, "scan", "--preset", "k3_quartic", "-m", "-2", "-t", "1", "-s", "1",
        "--a-max", "2", "--delta-max", "2",
    )
    assert code == 0
    assert "candidates       50" in out
    assert "any violation    no" in out
    assert "stable           yes" in out


def test_scan_json_with_and_without_reports(capsys):
    argv = ["scan", "--preset", "k3_quartic", "-m", "2", "-t", "1", "-s", "1",
            "--a-max", "1", "--delta-max", "1", "--json"]
    bare = run_json(capsys, *argv)
    assert "reports" not in bare
    assert bare["stable"] is True
    assert bare["duality_step"]["kind"] == "DualIdentification"
    full = run_json(capsys, *argv, "--full-reports")
    assert len(full["reports"]) == full["candidate_count"]


def test_model_file_input(capsys, tmp_path, k3):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(serialize.to_jsonable(k3.model)))
    payload = run_json(
        capsys, "slope", "--model-file", str(path), "-t", "1", "-s", "1",
        "--h", "1", "--ch0", "-2", "--ch1-theta", "-1", "--json",
    )
    assert payload == {"slope": "2"}
    for preset in ("k3_quartic", "enriques", "general_demo"):  # each through its own dump
        (tmp_path / preset).write_text(serialize.dumps(get_preset(preset).model))
        want = run(capsys, "transform", "--preset", preset, "-m", "2", "--json")
        got = run(capsys, "transform", "--model-file", str(tmp_path / preset), "-m", "2", "--json")
        assert got == want and want[0] == 0 and json.loads(want[1])
    run_json(capsys, "scan", "--model-file", str(tmp_path / "k3_quartic"), "-m", "-2", "-t", "1",
             "-s", "1", "--h", "1", "--json")
    # the file carries no default polarization direction
    code, _, err = run(
        capsys, "slope", "--model-file", str(path), "-t", "1", "-s", "1",
        "--ch0", "-2",
    )
    assert code == 1 and "--h is required" in err


_DROP = object()


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param({"gram": [[4.9]]}, "expected an integer, got float", id="float-gram"),
        pytest.param({"picard_rank": True}, "expected an integer, got bool", id="bool-rank"),
        pytest.param({"gram": [4]}, "expected a list", id="flat-gram"),
        pytest.param({"k_trivial": "false"}, "expected a boolean, got str", id="string-bool"),
        pytest.param({"k_trivial": 1}, "expected a boolean, got int", id="int-bool"),
        pytest.param({"canonical": [0]}, "must be a 'p/q' string", id="number-rational"),
        pytest.param({"canonical": "0"}, "expected a list", id="string-vector"),
        pytest.param({"omega_class": _DROP}, "missing key 'omega_class'", id="missing-key"),
        pytest.param({"canonical": ["٠"]}, "malformed rational '٠'", id="unicode-digit"),
    ],
)
def test_malformed_model_files_exit_one(capsys, tmp_path, k3, edit, message):
    doc = serialize.to_jsonable(k3.model)
    for key, value in edit.items():
        if value is _DROP:
            del doc[key]
        else:
            doc[key] = value
    with pytest.raises(ValueError) as exc:
        serialize.surface_model_from_json(doc)
    assert message in str(exc.value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "slope", "--model-file", str(path), "-t", "1", "-s", "1",
        "--h", "1", "--ch0", "-2", "--json",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


def test_deeply_nested_model_file_exits_one(capsys, tmp_path):
    """JSON nested past the decoder's recursion limit is an input error."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "transform", "--model-file", str(path), "-m", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "nested too deeply" in err


def test_missing_model_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "slope", "--model-file", str(tmp_path / "nope.json"),
        "-t", "1", "-s", "1", "--ch0", "1",
    )
    assert code == 1 and err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("transform", "--preset", "bogus", "-m", "1"), 1),
        (("transform",), 1),  # missing -m
        (("slope", "--preset", "k3_quartic", "-t", "0", "-s", "1", "--ch0", "1"), 1),
        (("slope", "--preset", "k3_quartic", "-t", "1", "-s", "1", "--ch0", "0"), 2),
        (("slope", "--preset", "k3_quartic", "-t", "0.5", "-s", "1", "--ch0", "1"), 1),
        (("commute", "--preset", "k3_quartic", "-m", "0"), 2),
        (("ss-duality", "-c", "4", "--wit", "0", "--dim-shift", "0"), 2),
        (("ss-duality", "-c", "1", "--wit", "2", "--dim-shift", "0"), 1),
        (("scan", "--preset", "k3_quartic", "-m", "0", "-t", "1", "-s", "1"), 2),
        (("scan", "--preset", "general_demo", "-m", "-2", "-t", "1", "-s", "1"), 2),
        (("--help",), 0),
        (("ss-duality", "--help"), 0),
        (("slope", "--preset", "k3_quartic", "-t", "١", "-s", "1", "--ch0", "1"), 1),
        (("transform", "--preset", "k3_quartic", "-m", "٣"), 1),
        (("transform", "--preset", "k3_quartic", "-m", "1_0"), 1),
        (("certify", "--preset", "k3_quartic", "-t", "1", "-s", "1", "-n", "2", "-r", "1",
          "--a", "1", "--e", "١"), 1),
        (("scan", "--preset", "k3_quartic", "-m", "-2", "-t", "1", "-s", "1", "--h", "0"), 1),
    ],
)
def test_exit_codes(capsys, argv, expected):
    code, _, _ = run(capsys, *argv)
    assert code == expected


def test_fractional_integer_flag_names_the_rule(capsys):
    code, out, err = run(capsys, "certify", "--preset", "k3_quartic", "-t", "1", "-s", "1",
                         "-n", "2", "-r", "1", "--a", "1", "--e", "1/2")
    assert (code, out) == (1, "")
    assert "argument --e: expected an integer in ASCII digits (got '1/2')" in err


def test_forbidden_scenario_text_shows_its_contradiction(capsys):
    from weierfm import Forbidden, SheafScenario, WitType, solve_scenario

    code, out, err = run(capsys, "ss-duality", "-n", "3", "-c", "1", "--wit", "0",
                         "--dim-shift", "-1")
    assert code == 0, err
    (forbidden,) = [rel for rel in solve_scenario(SheafScenario(3, 1, WitType.WIT0, -1)).relations
                    if isinstance(rel, Forbidden)]
    assert forbidden.render().startswith("[k=1] contradiction: ")
    assert f"  {forbidden.render()}\n" in out


@pytest.mark.parametrize(
    "gram,h,rule",
    [
        pytest.param(((1,),), "1", "an even base lattice", id="odd-rho1"),
        pytest.param(((2, 0), (0, 2)), "1,0", "signature (1, 1) by the Hodge index theorem",
                     id="positive-definite-rho2"),
    ],
)
@pytest.mark.parametrize("command", ["scan", "certify"])
def test_lattices_no_surface_has_exit_two(capsys, tmp_path, gram, h, rule, command):
    """A K-trivial model whose lattice no surface has is refused with exit 2."""
    from weierfm import SurfaceModel

    zero = (0,) * len(gram)
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(SurfaceModel(len(gram), gram, zero, True, zero)))
    argv = {
        "scan": ("-m", "-3"),
        "certify": ("-n", "3", "-r", "1", "--a", "0", "--delta", ",".join("0" * len(gram)),
                    "--e", "0"),
    }[command]
    code, out, err = run(capsys, command, "--model-file", str(path), "-t", "1", "-s", "1",
                         "--h", h, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and rule in err


def test_internal_errors_exit_three(capsys, monkeypatch):
    def explode(scenario):
        raise InternalCheckError("synthetic failure")

    from weierfm import duality

    monkeypatch.setattr(duality, "solve_scenario", explode)
    code, _, err = run(capsys, "ss-duality", "-c", "1", "--wit", "0", "--dim-shift", "0")
    assert code == 3
    assert "internal error" in err


def test_ss_duality_refuses_a_dimension_past_the_cap(capsys, monkeypatch):
    """The cap is checked when the scenario is built, before any page."""

    def unreachable(scenario):
        raise AssertionError("solve_scenario ran past the dimension cap")

    from weierfm import duality

    monkeypatch.setattr(duality, "solve_scenario", unreachable)
    code, out, err = run(
        capsys, "ss-duality", "-n", "100000001", "-c", "1", "--wit", "0",
        "--dim-shift", "1",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "scenario dimension cap" in err


def test_scan_refuses_a_grid_past_the_cap(capsys, monkeypatch):
    """The candidate count is checked before any cell of the grid is built."""
    from weierfm import stability

    def unreachable(*args):
        raise AssertionError("a cell was built past the scan cap")

    monkeypatch.setattr(stability, "_cells", unreachable)
    code, out, err = run(
        capsys, "scan", "--preset", "k3_quartic", "-m", "-4", "-t", "1", "-s", "1",
        "--a-max", "1000000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "above the cap 500000" in err


def test_negative_flag_values_parse(capsys):
    code, out, _ = run(
        capsys, "ss-duality", "-n", "4", "-c", "2", "--wit", "1", "--dim-shift", "-1",
    )
    assert code == 0
    assert "DualIsWIT1" in out


# A ρ = 2 base: the hyperbolic lattice U, K-trivial, omega class 0.
_RHO2_MODEL = str(Path(__file__).parent / "data" / "hyperbolic_rho2.json")

# sha256 of the exact stdout of one run per case, with --json and without,
# covering all seven subcommands.  The pins hold key order, indentation,
# table alignment and the rational string forms to the byte: any change
# here changes the public output.
_PINS = {
    "transform": (
        ("transform", "--preset", "k3_quartic", "-m", "-2"),
        "69799f90c63af754a88ceefb6e2076d257c7d2a8a5d3f7a7055efde727d5bc70",
        "702e90528062e93417c5f200a74696cf4646dba2fd921a4fc1bfc76bfae21ebd",
    ),
    "transform-twisted": (
        ("transform", "--preset", "general_demo", "-m", "1", "--twist", "1,0"),
        "5f6e2473c75fed09f216961024daf305e6e1e949cc7487e9871c2fb994e0d535",
        "a3b23d0642885bc394bb1f5cefda05308d2e015d998c325d2864defcecb3979c",
    ),
    "slope": (
        ("slope", "--preset", "k3_quartic", "-t", "1", "-s", "1", "--ch0", "-2",
         "--ch1-theta", "-1"),
        "15ba914cb5934590dcd439d124e5f55d9ae0e4e7b7bd512384489c999b3bde31",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    "dual": (
        ("dual", "--preset", "general_demo", "--ch0", "3", "--ch1-theta=-1/2",
         "--ch1-delta", "2,1/3"),
        "3b21ea4b7ec79131b889af108c2e4f98c5f5d8a535c5d588318e5a39454d3fc8",
        "d1ef74031866bd5c5159e670f755e52c3445e13860a6d44a2d26dac8eaa0f926",
    ),
    "commute": (
        ("commute", "--preset", "enriques", "-m", "-3", "--twist", "1/2"),
        "4aa6a8dbf5b60d3af82438131cd8839baf2e4415bafa6a9552400a0a72264ea0",
        "da3ff7b67da2081d7bfdc37942e49a5aaf392fa7cb6782e1e21d7b3eef45789d",
    ),
    "ss-duality-n5": (
        ("ss-duality", "-n", "5", "-c", "2", "--wit", "1", "--dim-shift=-1"),
        "51b6deffefa7a102796d2c1443b13df1dedff39273f304c4b3e3ad7414671595",
        "565768ff3cac60a1e03b49867018e946cca6418c33179abb09defb4c3afb2990",
    ),
    "ss-duality-n3": (
        ("ss-duality", "-n", "3", "-c", "1", "--wit", "0", "--dim-shift", "1"),
        "7883c73fd86ba78f26f179f30770311a23d73b620ece13e38999ef44ea876a97",
        "117d82097c6212390d5907cb9f40675cbb20872b6995ef50b49e9c7135760a9c",
    ),
    "certify-inadmissible": (
        ("certify", "--preset", "k3_quartic", "-t", "1", "-s", "1", "-n", "2",
         "-r", "1", "--a", "0", "--e", "1"),
        "953de867b1e1a4da49f96dfb1077b3519ebd5bff3929b39ce45bb967e3f2816a",
        "508762cc8bcf45f46d0cd71ad1c93b3f643396ab732e5c24f52f23f73de4235c",
    ),
    "certify-enriques": (
        ("certify", "--preset", "enriques", "-t", "2", "-s", "1/2", "-n", "3",
         "-r", "2", "--a", "1/2", "--delta=-1", "--e", "0"),
        "f0f2c5a2e2a304fc2be7ac60c36b6226a02880a10b8dce60a78ff52f4ee1d7b0",
        "bf1c849a1ca59be9518049d4ddb261fdaa12f2e6b4ee74601e9590d2d2d719f9",
    ),
    "scan-full-reports": (
        ("scan", "--preset", "k3_quartic", "-m", "-3", "-t", "1/2", "-s", "1",
         "--a-max", "2", "--delta-max", "2", "--full-reports"),
        "950fd660624d2942c788a4bed8d184a4b0eb98cc416e3215e341a23dd9a69a15",
        "03bcce637018810e127bf9dd0873b8c35424f7339ab740b6ab65391977f8d235",
    ),
    "scan-dual-route": (
        ("scan", "--preset", "enriques", "-m", "2", "-t", "1", "-s", "1",
         "--a-max", "1", "--delta-max", "1"),
        "381353e91d5446cd3c66d072034f3672107801c39537a712ee87698c972bd638",
        "b630f82ea240489c30938c363c7fafdba9f2cc381a3ce42b58597e75e717cb01",
    ),
    # Every per-candidate report of three scans, ρ = 1 and ρ = 2.
    "scan-k3-full-reports": (
        ("scan", "--preset", "k3_quartic", "-m", "-4", "-t", "1", "-s", "1",
         "--full-reports"),
        "75de3dd123d9d5b6074cabaac1efec86cbead4bce96b38d7faa0ce6c118de3ff",
        "91b4bbb1feebc34c8ee7822e87b9f13817362547ad9331990d841c4ed47052f3",
    ),
    "scan-enriques-full-reports": (
        ("scan", "--preset", "enriques", "-m", "3", "-t", "1", "-s", "1/2",
         "--full-reports"),
        "a27ff2db0ac0178629e65534463a8f6936fed092746776155df9e1145780a20f",
        "664a2bc82d0a9310ef1fb4540eb3e28492780f0d28078eb2a780e0a766107c06",
    ),
    "scan-rho2-full-reports": (
        ("scan", "--model-file", _RHO2_MODEL, "--h", "1,2", "-m", "-3", "-t", "1/2",
         "-s", "1", "--a-max", "2", "--delta-max", "2", "--full-reports"),
        "4387cc69063bbeb816ea0d731864137e343b4c12adb7a41596696e874a01f7f9",
        "052259f3eebd85a84d5d41243f36339bd3190d940b095afd2b9716dcd3783116",
    ),
}


@pytest.mark.parametrize(
    "argv,digest", [pytest.param(argv, pin, id=key) for key, (argv, pin, _) in _PINS.items()]
)
def test_json_output_is_byte_stable(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest", [pytest.param(argv, pin, id=key) for key, (argv, _, pin) in _PINS.items()]
)
def test_text_output_is_byte_stable(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_subcommand_is_pinned():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert set(action.choices) == {argv[0] for argv, _, _ in _PINS.values()}


def test_negative_values_read_as_separate_arguments(capsys, tmp_path):
    """A value such as -1/2 or -1,3 after its flag means the same as --flag=value."""
    from weierfm import SurfaceModel

    path = tmp_path / "hyperbolic.json"
    path.write_text(serialize.dumps(SurfaceModel(2, ((0, 1), (1, 0)), (0, 0), True, (0, 0))))
    cases = [
        (("dual", "--preset", "k3_quartic", "--ch0", "2"), "--ch1-theta", "-1/2"),
        (("transform", "--preset", "general_demo", "-m", "1"), "--twist", "-1/2,3"),
        (("certify", "--model-file", str(path), "--h", "1,1", "-t", "1", "-s", "1",
          "-n", "2", "-r", "1", "--a", "1", "--e", "0"), "--delta", "-1,3"),
    ]
    for head, flag, value in cases:
        separate = run(capsys, *head, flag, value, "--json")
        joined = run(capsys, *head, f"{flag}={value}", "--json")
        assert separate[0] == 0, separate[2]
        assert separate == joined
