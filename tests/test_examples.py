"""Every script under ``examples/`` runs to completion.

Each example runs as ``__main__`` in a forked child of the test
process, inside ``tmp_path`` (``tracing.py`` writes its trace file to
the working directory).  The modules the examples import are imported
once, in the test process, so a child costs its example's own work
rather than a fresh interpreter's start-up, and whatever an example
registers globally (the custom workload example adds a function to the
registry) dies with its child.
"""

import ast
import importlib
import multiprocessing
import os
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.fixture(scope="module", autouse=True)
def imported_example_dependencies():
    for path in EXAMPLES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                importlib.import_module(node.module)


def _run_example(path: str, cwd: str) -> None:
    os.chdir(cwd)
    runpy.run_path(path, run_name="__main__")


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(example, tmp_path):
    child = multiprocessing.get_context("fork").Process(
        target=_run_example, args=(str(example), str(tmp_path))
    )
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"{example.name} did not finish within 120 s")
    assert child.exitcode == 0, f"{example.name} exited {child.exitcode}"
