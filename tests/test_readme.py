"""README's library example runs, its commented values are what it computes, and its
list of checks is the one ``verify`` takes."""

import re
from pathlib import Path

from geb.enumeration import enumerate_connected
from geb.harness import run_verify

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The first ```python block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_its_values_hold():
    code = library_block()
    namespace = {}
    exec(compile(code, "README.md ## Library", "exec"), namespace)
    # a line "expression   # value ..." documents the expression's value
    documented = {expr: float(value) for expr, value in
                  re.findall(r"^(\S[^#\n]*?)\s+#\s+(-?\d+\.\d+)\b", code, re.M)}
    assert documented == {"report.energy": 16.0, "report.main": 15.0,
                          "report.cor_nice": 10.0, "report.slack_main": 1.0}
    for expr, value in documented.items():
        assert abs(eval(expr, namespace) - value) <= 1e-9, expr


def test_readme_lists_every_check_verify_notes():
    text = README.read_text(encoding="utf-8")
    section = text.split("Each `VIOLATION` line of `verify` names one check.", 1)[1]
    section = section.split("\nThe bound and invariant rows compare", 1)[0]
    listed = re.findall(r"^- `([^`]+)`:", section, re.M)
    assert len(listed) == len(set(listed)) == 21
    assert set(listed) == set(run_verify(enumerate_connected(5)).extremes)
