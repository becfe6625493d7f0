"""The README against the package: its trace example and the names it cites.

The README's trace example is taken from the trace of the empty document
`{}` at its seed 0, so each of its lines must appear verbatim in that
trace. Every backticked dotted name the README cites must resolve on the
package, so a rename that leaves a dangling name fails here.
"""

from __future__ import annotations

import importlib
import io
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import collabtrust
from collabtrust import Report, Scenario, run_simulation

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _trace_example() -> list[str]:
    """The lines of the first fenced block under the README's "Trace format" heading."""
    section = README.split("\n## Trace format\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M)
    assert block is not None
    return block.group(1).splitlines()


def test_the_trace_example_is_from_the_empty_documents_trace():
    sink = io.StringIO()
    run_simulation(Scenario(), trace=sink)
    trace = set(sink.getvalue().splitlines())
    example = _trace_example()
    assert len(example) >= 6
    assert [line for line in example if line not in trace] == []
    assert "empty document `{}` at its seed 0" in " ".join(README.split())


_MODULES = [
    importlib.import_module(f"collabtrust.{m.name}")
    for m in pkgutil.iter_modules(collabtrust.__path__)
    if m.name != "__main__"
]
# Instances whose attributes the README names on their class, like `Scenario.plan`.
_INSTANCES = (Scenario(), Scenario().plan, Report(Scenario()))
# Backticked text that starts with a dotted name; a call's arguments are not part of it.
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[^`]*`")
# Dotted names that are not the package's: report keys and file names.
_NOT_NAMES = re.compile(r"global\.\w+|\w+\.(json|py|txt)")
_MISSING = object()


def _cited_names() -> list[str]:
    names = dict.fromkeys(m.group(1) for m in _DOTTED.finditer(README))
    return [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names and not _NOT_NAMES.fullmatch(name)
    ]


def _roots(first: str):
    """What the first part of a dotted name can stand for: a package module, a
    package class or an instance of it, or an attribute of one of _INSTANCES."""
    try:
        yield importlib.import_module(f"collabtrust.{first}")
    except ModuleNotFoundError:
        pass
    for module in _MODULES:
        cls = getattr(module, first, None)
        if isinstance(cls, type):
            yield cls
            yield from (obj for obj in _INSTANCES if isinstance(obj, cls))
    for obj in _INSTANCES:
        if hasattr(obj, first):
            yield getattr(obj, first)


def _resolves(name: str) -> bool:
    first, *rest = name.split(".")
    for root in _roots(first):
        obj = root
        for part in rest:
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        else:
            return True
    return False


def test_the_readme_cites_names():
    assert len(_cited_names()) >= 10


@pytest.mark.parametrize("name", _cited_names())
def test_each_dotted_name_the_readme_cites_resolves(name):
    assert _resolves(name), f"README cites `{name}`, which the package does not define"
