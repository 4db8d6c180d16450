"""What needs a fresh interpreter: which modules it holds after an import
or one CLI call, the lazy names, peak memory, and pip's launcher."""

import importlib
import json
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


# weierfm loads these only to build dataclasses' own field table of a value
# class, or to raise FrozenInstanceError.
DATACLASS_MODULES = {"dataclasses", "inspect"}


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with the arguments ``args``, importing weierfm
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, encoding="utf-8", timeout=60,
    )


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with the arguments ``argv`` in a new interpreter."""
    return python("-c", code, *argv)


def loaded_modules(code: str) -> set[str]:
    """Run ``code`` in a new interpreter; return every module it left loaded."""
    proc = child(f"{code}\nimport sys\nprint('loaded', *sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded"
    return set(last[1:])


def fresh_run(code: str) -> set[str]:
    """Run ``code`` in a new interpreter; return the weierfm submodules it
    left loaded (short names)."""
    return {name.removeprefix("weierfm.") for name in loaded_modules(code)
            if name.startswith("weierfm.")}


def cli_code(*argv: str) -> str:
    return f"from weierfm import cli\nassert cli.main({list(argv)!r}) == 0"


def cli_run(*argv: str) -> set[str]:
    return fresh_run(cli_code(*argv))


# One call of each subcommand on the default preset.
COMMANDS = {
    "transform": ("transform", "-m", "-2"),
    "slope": ("slope", "-t", "1", "-s", "1", "--ch0", "2", "--ch1-theta", "1"),
    "dual": ("dual", "--ch0", "1", "--ch1-theta", "1/2"),
    "commute": ("commute", "-m", "3", "--twist", "1"),
    "ss-duality": ("ss-duality", "-c", "1", "--wit", "0", "--dim-shift", "1"),
    "certify": ("certify", "-t", "1", "-s", "1", "-n", "2", "-r", "1", "--a", "1", "--e", "1"),
    "scan": ("scan", "-m", "2", "-t", "1", "-s", "1"),
}


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


def test_import_cli_loads_no_dataclasses():
    assert loaded_modules("import weierfm.cli") & DATACLASS_MODULES == set()


@pytest.mark.parametrize("command", COMMANDS)
def test_text_commands_load_no_codec_and_no_dataclasses(command):
    """A text table needs no JSON document, so no codec either."""
    loaded = loaded_modules(cli_code(*COMMANDS[command]))
    assert loaded & (DATACLASS_MODULES | {"weierfm.serialize"}) == set()


@pytest.mark.parametrize("command", COMMANDS)
def test_json_children_load_no_dataclasses(command):
    """``python -m weierfm.cli ... --json``, every module it imports listed by
    ``-X importtime``."""
    proc = python("-X", "importtime", "-m", "weierfm.cli", *COMMANDS[command], "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "weierfm.fm" in imported and imported & DATACLASS_MODULES == set()


def test_transform_stability_loads_no_dataclasses():
    code = ("from fractions import Fraction\n"
            "from weierfm import LineBundleX, Polarization, get_preset, transform_stability\n"
            "k3 = get_preset('k3_quartic')\n"
            "pol = Polarization(k3.model, Fraction(1), Fraction(1), k3.ample)\n"
            "assert transform_stability(LineBundleX(k3.model, 2), pol).stable")
    assert loaded_modules(code) & DATACLASS_MODULES == set()


def test_the_first_dataclass_read_builds_the_table():
    """``dataclasses.fields`` builds dataclasses' table on its first read, in
    the descriptor's place, with the value class's own field names."""
    code = ("import sys\n"
            "from weierfm.rationals import _DataclassFields, value_fields\n"
            "from weierfm.stability import StabilityReport\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert type(vars(StabilityReport)['__dataclass_fields__']) is _DataclassFields\n"
            "import dataclasses\n"
            "names = [f.name for f in dataclasses.fields(StabilityReport)]\n"
            "assert type(vars(StabilityReport)['__dataclass_fields__']) is dict\n"
            "assert names == [name for name, _, _ in value_fields(StabilityReport)]\n"
            "assert tuple(names) == StabilityReport.__match_args__")
    assert "dataclasses" in loaded_modules(code)


# Read in a child whose first read of any value class's dataclass table is
# the dataclasses.replace of its sample (test_rationals._SAMPLES).
SAMPLES = f"""
import copy, dataclasses, sys, threading
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_rationals import _SAMPLES, _hash
from weierfm.rationals import NO_DEFAULT, _DataclassFields, is_value_class, value_fields
"""


def test_the_lazily_built_tables_are_the_value_classes_own():
    """Each value class's dataclass table, built by a first read through
    ``replace``, lists its annotations and class defaults in order, as plain
    constructor arguments; ``asdict`` and ``astuple`` give what the classes'
    own tables give; and ``==``, hash, repr and the frozen errors are what
    they were before the read."""
    code = SAMPLES + '''
def behaviour(x):
    errors = []
    for name in [*x.__match_args__, "not_a_field"]:
        for change in (lambda: setattr(x, name, None), lambda: delattr(x, name)):
            try:
                change()
            except dataclasses.FrozenInstanceError as exc:
                errors.append((type(exc), str(exc)))
    return x == copy.copy(x), _hash(x), repr(x), errors

def plain(value, build):
    """What asdict (build=dict) or astuple (build=values) makes of value."""
    if is_value_class(type(value)):
        return build([(name, plain(getattr(value, name), build))
                      for name, _, _ in value_fields(type(value))])
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item, build) for item in value)
    if isinstance(value, dict):
        return {plain(k, build): plain(v, build) for k, v in value.items()}
    return copy.deepcopy(value)

def values(pairs):
    return tuple(value for _, value in pairs)

before = {cls: behaviour(x) for cls, x in _SAMPLES.items()}
for cls, x in _SAMPLES.items():
    assert type(vars(cls)["__dataclass_fields__"]) is _DataclassFields, cls
    assert dataclasses.replace(x) == x, cls
for cls, x in _SAMPLES.items():
    fields = dataclasses.fields(cls)
    declared = [(name, text, getattr(cls, name, dataclasses.MISSING))
                for name, text in cls.__annotations__.items()]
    assert [(f.name, f.type, f.default) for f in fields] == declared, cls
    assert [(name, text, dataclasses.MISSING if default is NO_DEFAULT else default)
            for name, text, default in value_fields(cls)] == declared, cls
    assert all(f.init and f.default_factory is dataclasses.MISSING for f in fields), cls
    assert dataclasses.asdict(x) == plain(x, dict), cls
    assert dataclasses.astuple(x) == plain(x, values), cls
    assert behaviour(x) == before[cls], cls
'''
    proc = child(code)
    assert proc.returncode == 0, proc.stderr


def test_first_reads_from_four_threads_give_equal_tables():
    code = SAMPLES + '''
sys.setswitchinterval(1e-6)

def read(cls, barrier, tables):
    barrier.wait()
    tables.append([(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare,
                    f.kw_only, f.metadata, f._field_type) for f in dataclasses.fields(cls)])

for cls in _SAMPLES:
    barrier, tables = threading.Barrier(4), []
    threads = [threading.Thread(target=read, args=(cls, barrier, tables)) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    own = [(name, text, dataclasses.MISSING if default is NO_DEFAULT else default)
           for name, text, default in value_fields(cls)]
    assert len(tables) == 4 and all(table == tables[0] for table in tables), cls
    assert [entry[:3] for entry in tables[0]] == own, cls
'''
    proc = child(code)
    assert proc.returncode == 0, proc.stderr


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
