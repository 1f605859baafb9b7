"""Every public def under ``src/`` is named by code outside the tests.

A public top-level function or class, or a public method of a public
top-level class, must be named somewhere in ``src/``, ``examples/``,
``simbench/`` or ``tools/``: the code that artifacts, examples and
benchmarks run.  Code that only ``tests/`` name is a model no artifact
runs; it costs reading and upkeep and misleads about what the
simulator does.

A name counts as read when it appears as a ``Name`` node, as an
attribute, or as a string constant that is exactly an identifier
(``simbench/layers.py`` and the CLI table name code by string).  The
definition itself does not count: neither its ``def``/``class``
statement nor any use inside its own body.  Neither do ``__all__``
lists, nor the imports a package ``__init__.py`` re-exports (an import
binds a name; it does not read one).  A def decorated with
``@register`` is read through the registry it joins.

:data:`ALLOWLIST` names the defs kept on purpose although only tests
read them, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "examples", "simbench", "tools")

#: Decorators that hand the decorated def to a registry, which reads it.
REGISTERING_DECORATORS = frozenset({"register"})

#: ``module path:qualified name`` -> why it stays although only tests
#: name it.
ALLOWLIST = {
    # Observations that invariant tests compare across run paths.
    "repro/core/telemetry.py:TelemetryCollector.functions_seen":
        "streaming == exact, merged == whole and SDK == direct compare it",
    "repro/core/telemetry.py:TelemetryCollector.first_start":
        "streaming == exact and merged == whole compare the window start",
    "repro/core/telemetry.py:TelemetryCollector.last_completion":
        "streaming == exact and merged == whole compare the window end",
    "repro/core/telemetry.py:QuantileSketch.relative_error_bound":
        "the sketch's documented error bound the sketch tests hold it to",
    "repro/virt/hypervisor.py:Hypervisor.context_switches":
        "the booked == per-phase differential compares quanta started",
    "repro/virt/hypervisor.py:Hypervisor.cpu_seconds_executed":
        "the booked == per-phase differential compares guest CPU seconds",
    "repro/hardware/power.py:PowerTrace.change_points":
        "the booked-timeline differential compares every trace point",
    "repro/hardware/power.py:PowerTrace.power_at":
        "the power-trace tests read recorded draws at chosen instants",
    "repro/core/policies.py:WorkerHealthTracker.state_of":
        "the circuit-breaker tests check each transition through it",
    "repro/sim/kernel.py:Environment.peek":
        "batched run == per-event step drives step() until peek() is inf",
    "repro/net/wan.py:WanFabric.single":
        "the one-region fabric of the federation == bare-cluster pins",
    # Inputs to code that runs.
    "repro/energy/controlplane.py:CarbonSignal":
        "the signal CarbonAwarePolicy reads; simbench wraps that policy",
    # Paper models the tests check against published values.
    "repro/cluster/matching.py:match_vm_count":
        "derives the paper's 6-VM throughput match (test_paper_constants)",
    "repro/bootos/image.py:build_worker_image":
        "the Sec. IV-A worker-OS image the image tests size-check",
    "repro/bootos/image.py:WorkerOsImage.total_size_bytes":
        "the Sec. IV-A image size the image tests check against the board",
    "repro/experiments/table2_tco.py:Table2Result.cell":
        "Table II to the dollar, pinned by test_experiments and its bench",
}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _names(tree):
    """Every name a tree reads, with multiplicity, ``__all__`` aside."""
    skipped = {
        id(node)
        for statement in ast.walk(tree)
        if _is_all(statement)
        for node in ast.walk(statement)
    }
    names = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names[node.value] += 1
    return names


def _registered(node):
    return any(
        isinstance(decorator, ast.Name)
        and decorator.id in REGISTERING_DECORATORS
        for decorator in node.decorator_list
    )


def _definitions(tree):
    """``(qualified name, node)`` of each public top-level def and each
    public method of a public top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def public(node, kinds):
        return isinstance(node, kinds) and not node.name.startswith("_")

    for node in tree.body:
        if not public(node, (*functions, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if public(item, functions):
                    yield f"{node.name}.{item.name}", item


def unread_definitions(sources, readers):
    """``path:qualified name`` of each definition in ``sources`` that no
    file in ``readers`` names (both map a path to its source text)."""
    read = Counter()
    for text in readers.values():
        read.update(_names(ast.parse(text)))
    unread = []
    for path, text in sorted(sources.items()):
        for qualname, node in _definitions(ast.parse(text)):
            if _registered(node):
                continue
            name = node.name
            if read[name] - _names(node)[name] <= 0:
                unread.append(f"{path}:{qualname}")
    return unread


def _sources(root):
    return {
        str(path.relative_to(root)): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }


def scan(root=ROOT):
    """The unread definitions of the tree at ``root``."""
    readers = {}
    for directory in READERS:
        for path, text in _sources(root / directory).items():
            readers[f"{directory}/{path}"] = text
    return unread_definitions(_sources(root / "src"), readers)


def test_every_public_def_is_read_outside_the_tests():
    unread = scan()
    flagged = sorted(set(unread) - set(ALLOWLIST))
    assert not flagged, "named only by tests, or by nothing:\n" + "\n".join(
        flagged
    )
    stale = sorted(set(ALLOWLIST) - set(unread))
    assert not stale, "allowlisted but read or gone:\n" + "\n".join(stale)


def test_scan_flags_an_unread_method():
    sources = {
        "pkg/mod.py": (
            "class Model:\n"
            "    def used(self):\n"
            "        return self.unused_helper\n"
            "    def unused(self):\n"
            "        return self.unused()\n"
        ),
    }
    readers = dict(sources, **{"run.py": "Model().used()\n"})
    assert unread_definitions(sources, readers) == ["pkg/mod.py:Model.unused"]


def test_scan_counts_a_name_read_only_as_a_string():
    sources = {"pkg/mod.py": "class Model:\n    def step(self): ...\n"}
    readers = dict(
        sources, **{"layers.py": 'WRAP = (("pkg.mod", "Model", "step"),)\n'}
    )
    assert unread_definitions(sources, readers) == []


def test_scan_ignores_all_lists_and_init_reexports():
    sources = {
        "pkg/mod.py": "def helper(): ...\n__all__ = ['helper']\n",
        "pkg/__init__.py": (
            "from pkg.mod import helper\n__all__ = ['helper']\n"
        ),
    }
    assert unread_definitions(sources, dict(sources)) == ["pkg/mod.py:helper"]
