"""The names the traced benchmark patches must exist in the library.

``perfbench/spans.py`` times library calls by replacing module attributes
listed in its ``PATCHES`` table.  A renamed or removed name passes every
other test and only breaks the traced benchmark run, so this test checks
the table against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr, span", _patches())
def test_patched_name_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{module_name}.{attr} (span {span}) is missing"
