"""The package namespace: its public names, where they load from, and which
commands run without numpy."""
import subprocess
import sys

import pytest

import etamix
import etamix.construction
import etamix.fileio
import etamix.measures
import etamix.mixing
import etamix.process
from etamix import errors

SUBMODULES = ("cli", "concentration", "construction", "errors", "fileio", "measures",
              "mixing", "process", "products")


def test_all_is_the_library_names():
    assert len(etamix.__all__) == len(set(etamix.__all__)) == 48
    assert not set(etamix.__all__) & set(SUBMODULES)
    assert all(not name.startswith("_") for name in etamix.__all__)


def test_every_name_resolves():
    for name in etamix.__all__:
        assert getattr(etamix, name) is not None, name
    assert set(etamix.__all__) <= set(dir(etamix))


def test_star_import_binds_every_name():
    ns = {}
    exec("from etamix import *", ns)
    assert set(ns) - {"__builtins__"} == set(etamix.__all__)
    assert all(ns[name] is getattr(etamix, name) for name in etamix.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'find_nk'"):
        etamix.find_nk  # noqa: B018
    assert not hasattr(etamix, "PhiVector")


def test_exit_code_exceptions_are_one_class_each():
    assert etamix.measures.StateCapExceeded is etamix.StateCapExceeded is errors.StateCapExceeded
    assert etamix.mixing.TargetInvalid is etamix.TargetInvalid is errors.TargetInvalid
    assert etamix.construction.SolveError is etamix.SolveError is errors.SolveError
    assert etamix.process.HorizonTooSmall is etamix.HorizonTooSmall is errors.HorizonTooSmall
    assert etamix.fileio.FileFormatError is errors.FileFormatError
    assert etamix.measures.DEFAULT_STATE_CAP == etamix.DEFAULT_STATE_CAP == 1 << 24


ENGINES = ("numpy", "etamix.measures", "etamix.mixing", "etamix.products",
           "etamix.construction", "etamix.concentration")

LOADED = """
import sys
{run}
print(",".join(m for m in {engines!r} if m in sys.modules))
"""


def _loaded(run: str, engines=ENGINES) -> tuple[str, str]:
    r = subprocess.run([sys.executable, "-c", LOADED.format(run=run, engines=engines)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1], r.stdout


def test_import_loads_no_engine():
    assert _loaded("import etamix")[0] == ""


def test_version_loads_no_engine():
    loaded, out = _loaded(
        "from etamix.cli import main\n"
        "try:\n    main(['--version'])\nexcept SystemExit as exc:\n    assert exc.code == 0")
    assert loaded == "" and out.startswith(etamix.fileio.FORMAT_VERSION)


def test_rate_loads_no_engine(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "cp.csv"
    spec.write_text('{"rate": {"kind": "builtin", "name": "linear"}, '
                    '"k_max": 100, "n_max": 10100}')
    loaded, stdout = _loaded(
        f"from etamix.cli import main\nassert main(['rate', {str(spec)!r}, '-o', {str(out)!r}]) == 0")
    assert loaded == ""
    assert "100/100 checkpoints pass" in stdout


def test_rate_error_loads_no_engine(tmp_path):
    # the exceptions main catches live outside the engines
    spec = tmp_path / "spec.json"
    spec.write_text('{"rate": {"kind": "builtin", "name": "linear"}, "k_max": 10, "n_max": 20}')
    loaded, _ = _loaded(
        f"from etamix.cli import main\nassert main(['rate', {str(spec)!r}, '-o', 'x.csv']) == 5")
    assert loaded == ""


def test_only_rate_loads_the_rate_engine(tmp_path):
    target, out, pm = tmp_path / "h.json", tmp_path / "bounds.json", tmp_path / "pm.json"
    target.write_text('{"n": 2, "entries": [[0, 0.5], [0, 0]]}')
    bounds = f"assert main(['bounds', {str(target)!r}, '--t', '1', '-o', {str(out)!r}]) == 0"
    construct = f"assert main(['construct', {str(target)!r}, '-o', {str(pm)!r}]) == 0"
    version = "try:\n    main(['--version'])\nexcept SystemExit as exc:\n    assert exc.code == 0"
    for run in (bounds, construct, version):
        assert _loaded(f"from etamix.cli import main\n{run}", ("etamix.process",))[0] == "", run
