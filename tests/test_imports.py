"""What needs a fresh interpreter: which modules it holds after an import
or one CLI call, the lazy names, peak memory, and pip's launcher."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weierfm
from weierfm import serialize

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = {"duality", "stability", "serialize"}


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with the arguments ``argv`` in a new interpreter that
    imports weierfm from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, encoding="utf-8", timeout=60,
    )


def fresh_run(code: str) -> set[str]:
    """Run ``code`` in a new interpreter; return the weierfm submodules it
    left loaded (short names)."""
    proc = child(
        f"{code}\nimport sys\n"
        "print('loaded', *sorted(m for m in sys.modules if m.startswith('weierfm.')))"
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded"
    return {name.removeprefix("weierfm.") for name in last[1:]}


def cli_run(*argv: str) -> set[str]:
    return fresh_run(f"from weierfm import cli\nassert cli.main({list(argv)!r}) == 0")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "k3.json"
    path.write_text(serialize.dumps(weierfm.get_preset("k3_quartic").model), encoding="utf-8")
    return str(path)


def test_import_weierfm_loads_no_submodule():
    assert fresh_run("import weierfm") == set()


def test_import_cli_loads_no_computing_layer_or_codec():
    assert fresh_run("import weierfm.cli") & LAYERS == set()


@pytest.mark.parametrize("module", ["cli", "stability", "duality", "serialize"])
def test_import_generates_no_trusted_constructor(module):
    """Each class's trusted constructor and each value class's check table
    are made on first use, so their ``exec`` and annotation reads stay out
    of an import (and of a CLI child's start-up).  The two exceptions are
    the tables of Preset and SurfaceModel: the CLI loads the presets, which
    build themselves and their models."""
    held = 2 if module == "cli" else 0
    fresh_run(
        f"import weierfm.{module}\n"
        "from weierfm.rationals import _field_checks, trusted\n"
        "from weierfm.ring import SurfaceModel\n"
        "assert trusted.cache_info().currsize == 0, trusted.cache_info()\n"
        "before = _field_checks.cache_info()\n"
        "_field_checks(SurfaceModel)\n"
        "after = _field_checks.cache_info()\n"
        f"assert (before.currsize, after.misses - before.misses) == ({held}, {int(not held)}), before"
    )


def test_slope_loads_no_codec():
    loaded = cli_run("slope", "-t", "1", "-s", "1", "--ch0", "2", "--ch1-theta", "1", "--json")
    assert loaded & LAYERS == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "-m", "-2", "--json"),
        ("dual", "--ch0", "1", "--ch1-theta", "1/2", "--json"),
        ("commute", "-m", "3", "--twist", "1", "--json"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("source", ["preset", "model-file"])
def test_transform_commands_load_neither_engine(argv, source, model_file):
    flags = ("--preset", "enriques") if source == "preset" else ("--model-file", model_file)
    loaded = cli_run(*argv[:1], *flags, *argv[1:])
    assert "duality" not in loaded and "stability" not in loaded
    assert "serialize" in loaded  # for the JSON document (and the model file)


def test_duality_solves_without_the_ring_or_the_transform_layer():
    """The engine reads term statuses only; its verdict types live in
    verdicts, so a solve loads neither ring nor fm."""
    code = (
        "from weierfm.duality import SheafScenario, WitType, solve_scenario\n"
        "assert solve_scenario(SheafScenario(3, 1, WitType.WIT0, 1)).relations"
    )
    assert fresh_run(code) == {"duality", "verdicts", "rationals", "errors"}


def test_ss_duality_loads_no_stability():
    loaded = cli_run("ss-duality", "-c", "1", "--wit", "0", "--dim-shift", "1", "--json")
    assert "stability" not in loaded and {"duality", "serialize"} <= loaded


@pytest.mark.parametrize(
    "argv,duality",
    [
        (("certify", "-t", "1", "-s", "1", "-n", "2", "-r", "1", "--a", "1", "--e", "1"), False),
        (("scan", "-m", "-2", "-t", "1", "-s", "1"), False),
        (("scan", "-m", "2", "-t", "1", "-s", "1"), True),
    ],
    ids=["certify", "scan-negative-m", "scan-positive-m"],
)
def test_stability_commands_load_duality_only_for_positive_m(argv, duality):
    loaded = cli_run(*argv, "--json")
    assert ("duality" in loaded) is duality and {"stability", "serialize"} <= loaded


def test_conclusion_decodes_without_the_engine():
    """The verdict types live in verdicts, so decoding a conclusion loads
    neither engine nor the transform layer."""
    code = (
        "from weierfm import serialize\n"
        "doc = {'kind': 'DualIdentification', 'statement': 's', 'via_dimension_only': False}\n"
        "assert serialize.conclusion_from_json(doc).kind.value == 'DualIdentification'"
    )
    loaded = fresh_run(code)
    assert "verdicts" in loaded and loaded & {"fm", "duality", "stability"} == set()


def test_submodules_resolve_as_attributes():
    code = (
        "import weierfm\n"
        "assert weierfm.stability.certify is weierfm.certify\n"
        "assert weierfm.serialize.__name__ == 'weierfm.serialize'"
    )
    assert {"stability", "serialize"} <= fresh_run(code)


@pytest.mark.parametrize("encode_first", [False, True], ids=["before", "after"])
def test_every_decoder_resolves_before_and_after_an_encode(encode_first):
    """Each ``serialize.*_from_json`` works whether its first access comes
    before the codec has registered any layer or after it has."""
    code = """
import json
from fractions import Fraction
import weierfm
from weierfm import serialize

def names():
    return sorted(n for n in dir(serialize) if n.endswith("_from_json"))

def encode():
    preset = weierfm.get_preset("k3_quartic")
    pol = weierfm.Polarization(preset.model, Fraction(1), Fraction(1), preset.ample)
    cand = weierfm.DestabilizerCandidate(1, Fraction(1, 2), (Fraction(-1),), 1)
    report = weierfm.certify(2, pol, cand)
    return report, json.loads(json.dumps(serialize.to_jsonable(report))), preset.model

if ENCODE_FIRST:
    report, doc, model = encode()
decoders = {name: getattr(serialize, name) for name in names()}
if not ENCODE_FIRST:
    report, doc, model = encode()
assert len(decoders) == 17 and all(map(callable, decoders.values()))
assert all(getattr(serialize, name) is decode for name, decode in decoders.items())
assert decoders["stability_report_from_json"](doc, model) == report
""".replace("ENCODE_FIRST", str(encode_first))
    fresh_run(code)


def test_every_public_name_is_its_defining_modules_object():
    for name in weierfm.__all__:
        module = importlib.import_module(f"weierfm.{weierfm._OWNERS[name]}")
        value = getattr(weierfm, name)
        assert value is getattr(module, name), name
        if callable(value):  # a class or function, not PRESETS
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from weierfm import *", namespace)
    assert set(weierfm.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(weierfm, name) for name in weierfm.__all__)


def test_dir_lists_every_public_name():
    assert set(weierfm.__all__) <= set(dir(weierfm))


@pytest.mark.parametrize("module", [weierfm, serialize], ids=["weierfm", "serialize"])
def test_unknown_attributes_raise_attribute_error(module):
    with pytest.raises(AttributeError):
        module.no_such_name
    assert not hasattr(module, "x_from_json")



def test_every_layer_imports_with_warnings_as_errors():
    """So a deprecation this Python raises while a value class is defined fails."""
    fresh_run("import warnings; warnings.simplefilter('error')\nimport weierfm.cli, "
              "weierfm.stability, weierfm.duality, weierfm.serialize, weierfm.verdicts")


def test_solve_at_the_dimension_cap_peaks_under_250_mib():
    """The cap n = 100000 is sized to keep a solve under about 225 MiB.  The
    child reads its own peak; RUSAGE_CHILDREN would take pytest's largest child."""
    fresh_run("import contextlib, os, resource\nfrom weierfm import cli\n"
              "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
              "    assert cli.main(['ss-duality', '-n', '100000', '-c', '50000', '--wit', '0',"
              " '--dim-shift', '1']) == 0\n"
              "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "assert peak < 250 * 1024, peak")


def test_k3_transforms_stay_stable_up_to_rank_59():
    """About 578 000 candidates over 58 grids, which leave with the child."""
    fresh_run("from fractions import Fraction\n"
              "from weierfm import LineBundleX, Polarization, get_preset, transform_stability\n"
              "k3 = get_preset('k3_quartic')\n"
              "pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)\n"
              "assert all(transform_stability(LineBundleX(k3.model, -n), pol).stable"
              " for n in range(2, 60))")


def test_entry_point_matches_main(monkeypatch):
    """pip's launcher for ``[project.scripts]`` passes main's exit codes
    through; ``python -m weierfm.cli`` calls ``run()`` bare, so it must exit."""
    toml = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^weierfm = "([\w.]+):(\w+)"$', toml, re.MULTILINE).groups()
    slope = ("slope", "--preset", "k3_quartic", "-t", "1", "-s", "1", "--ch0")
    for ch0, code in (("-2", 0), ("0", 2)):
        proc = child(f"import sys; from {module} import {func}; sys.exit({func}())", *slope, ch0)
        assert proc.returncode == code, proc.stderr
    monkeypatch.setattr(sys, "argv", ["weierfm", *slope, "0"])
    with pytest.raises(SystemExit, match="^2$"):
        weierfm.cli.run()
