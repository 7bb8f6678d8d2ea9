"""Every ``benchmarks/*.py`` module imports cleanly.

The benchmarks are not collected by the tier-1 suite, so a library
name they import could disappear without any test failing.  This
imports each module (without running it) so such breakage is caught
here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(BENCH_DIR.glob("*.py"))


def test_benchmarks_found():
    assert any(p.stem.startswith("bench_") for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_bench_module_imports(path, monkeypatch):
    # The benches import their shared helpers as ``conftest``, a name the
    # test suite's own conftest already holds in ``sys.modules``.
    monkeypatch.delitem(sys.modules, "conftest", raising=False)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
