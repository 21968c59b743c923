"""A fresh process loads only the geb modules its command runs.

``geb`` and ``geb.cli`` import a submodule when one of its names is first
read. The loading tests each start a new interpreter, since the test
process has loaded every module already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geb
import geb.cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
REPORT = ["bounds", "cli", "errors", "graph6", "graphs", "spectral"]
CORPUS = REPORT + ["harness"]
# what ``geb.cli.main(sys.argv[1:])`` loaded: the geb modules, which of csv and json,
# and the dataclasses that those geb modules define
PROBE = """
import sys
from geb.cli import main
main(sys.argv[1:])
optional = [name for name in ("csv", "json") if name in sys.modules]
import dataclasses, json
geb = sorted(name for name in sys.modules if name.startswith("geb."))
print(json.dumps([[name[4:] for name in geb], optional, sorted(
    cls.__name__ for name in geb for cls in vars(sys.modules[name]).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == name)]),
    file=sys.stderr)
"""


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` with this checkout's geb on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return proc


def loaded_by_command(*argv: str) -> tuple[str, list[str], list[str], list[str]]:
    """stdout of ``geb.cli.main(argv)``, then the geb modules, which of csv and json
    are loaded, and the dataclasses of those geb modules."""
    proc = fresh("-c", PROBE, *argv)
    return proc.stdout, *json.loads(proc.stderr.splitlines()[-1])


def test_import_geb_loads_no_submodule():
    proc = fresh("-c", "import sys, geb; "
                 "print(sorted(m for m in sys.modules if m.startswith('geb.'))); "
                 "print(geb.harness.run_verify is geb.run_verify)")
    assert proc.stdout == "[]\nTrue\n"


def test_report_loads_only_the_report_modules():
    out, modules, optional, dataclasses = loaded_by_command("report", "Bw")
    assert json.loads(out)["energy"] == pytest.approx(4.0)
    assert modules == REPORT
    assert optional == ["json"]
    assert dataclasses == ["Graph"]


def test_report_csv_loads_csv():
    out, modules, optional, _ = loaded_by_command("report", "Bw", "--format", "csv")
    assert out.splitlines()[0].startswith("graph6,n,m,")
    assert modules == REPORT
    assert optional == ["csv"]


def test_report_table_loads_neither_csv_nor_json():
    out, modules, optional, _ = loaded_by_command("report", "Bw", "--format", "table")
    assert out.splitlines()[0].split() == ["graph6", "Bw"]
    assert modules == REPORT
    assert optional == []


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--enumerate", "4"], CORPUS + ["enumeration"]),
    (["conjectures", "--enumerate", "4"], CORPUS + ["enumeration"]),
    (["equality", "--bound", "main", "--enumerate", "4"], CORPUS + ["enumeration"]),
    (["verify", "--corpus", str(DATA / "gnp_small.g6")], CORPUS),
])
def test_corpus_commands_load_the_harness(argv, expected):
    out, modules, optional, dataclasses = loaded_by_command(*argv)
    assert "graphs seen:" in out
    assert modules == sorted(expected)
    assert optional == []
    assert dataclasses == ["CorpusSummary", "Graph"]


def test_every_public_name_is_its_modules_own_object():
    for name in geb.__all__:
        home = importlib.import_module(f"geb.{geb._HOME[name]}")
        value = getattr(geb, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_and_star_import_cover_all():
    assert set(geb.__all__) | {"bounds", "harness"} <= set(dir(geb))
    namespace = {}
    exec("from geb import *", namespace)
    assert set(geb.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", [geb, geb.cli])
def test_an_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "run_everything")


def test_tracer_records_the_harness_and_enumeration_calls(tmp_path):
    out = tmp_path / "trace.json"
    fresh(str(ROOT / "perfbench" / "tracing.py"), str(out), "--", "verify", "--enumerate", "5")
    calls = json.loads(out.read_text())["calls"]
    assert calls["harness.run_verify"] == 1
    assert calls["enumeration.enumerate_connected"] == 1


def test_each_parser_constant_is_defined_once_in_a_report_module():
    """The parser prints these, so a report must not load harness or enumeration for them."""
    import geb.enumeration
    import geb.harness

    homes = {"DEFAULT_TOL": "bounds", "DEFAULT_EQUALITY_EPS": "bounds",
             "EQUALITY_BOUNDS": "bounds", "MAX_ENUMERATION_N": "graphs"}
    for name, home in homes.items():
        defined = [path.stem for path in (ROOT / "src" / "geb").glob("*.py")
                   if any(isinstance(node, ast.Assign) and name in
                          {t.id for t in node.targets if isinstance(t, ast.Name)}
                          for node in ast.parse(path.read_text(encoding="utf-8")).body)]
        assert defined == [home], name
        value = getattr(importlib.import_module(f"geb.{home}"), name)
        for module in (geb.cli, geb.harness, geb.enumeration):
            assert getattr(module, name, value) is value, (module.__name__, name)
