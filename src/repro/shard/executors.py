"""Shard execution backends.

The coordinator speaks two verbs — ``advance`` / ``finish`` — against
N shards.  :class:`InlineExecutor` runs them in the coordinator's own
process (zero parallelism, bit-identical to the process backend; the
determinism tests and tiny sharded points use it).
:class:`ProcessExecutor` forks one child per shard and pipes pickled
commands: each child builds its :class:`~repro.shard.runtime.ShardRuntime`
locally (cluster construction parallelizes too, which matters at 100k
workers) and the coordinator overlaps all shards' windows.

The protocol is one message per shard per rendezvous.  ``advance``
carries the placements the coordinator decided since the previous one,
each arrival with its time; the shard injects those at its clock at
once (salvages first) and each later arrival instant's batch from one
``timeout_at``, then runs its window.  A placement is exact however far
ahead of the shard's clock it was decided: the coordinator only places
an arrival before every shard's reported ``horizon``, a lower bound on
every completion the shard has not reported (predicted completions
travel in the report, fixed at the claim).  Each round broadcasts a
command to every shard, then collects every reply.  Shards never talk
to each other — all cross-shard traffic flows through the coordinator
at rendezvous, which is what keeps the run deterministic regardless of
process scheduling.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
from typing import List, Optional, Sequence

from repro.shard.runtime import ShardRuntime, ShardSpec


class InlineExecutor:
    """All shards in this process; commands run shard-by-shard."""

    def __init__(self, specs: Sequence[ShardSpec]):
        self.runtimes = [ShardRuntime(spec) for spec in specs]

    def inject(self, directives_per_shard: Sequence[list]) -> None:
        for runtime, directives in zip(self.runtimes, directives_per_shard):
            if directives:
                runtime.inject(directives)

    def advance(
        self, until: Optional[float], directives_per_shard: Sequence[list]
    ) -> List[dict]:
        self.inject(directives_per_shard)
        return [runtime.advance(until) for runtime in self.runtimes]

    def finish(self, t_global: float) -> List[dict]:
        return [runtime.finish(t_global) for runtime in self.runtimes]

    def close(self) -> None:
        self.runtimes = []


def _shard_child(spec: ShardSpec, conn) -> None:
    """Child main loop: build the runtime, then serve commands."""
    try:
        runtime = ShardRuntime(spec)
        # The cluster lives as long as this process: taking it out of
        # the collector's generations spares every full collection a
        # walk over it (a fifth of a 5k-worker shard's run time).
        gc.freeze()
        conn.send(("ready", spec.shard_index))
    except BaseException as exc:  # construction failed: report, don't hang
        conn.send(("error", repr(exc)))
        conn.close()
        return
    try:
        while True:
            verb, payload = conn.recv()
            if verb == "advance":
                until, directives = payload
                if directives:
                    runtime.inject(directives)
                conn.send(("ok", runtime.advance(until)))
            elif verb == "finish":
                conn.send(("ok", runtime.finish(payload)))
            elif verb == "exit":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown verb {verb!r}"))
    except EOFError:
        pass
    except BaseException as exc:
        try:
            conn.send(("error", repr(exc)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ProcessExecutor:
    """One forked child per shard, commands over pipes."""

    def __init__(self, specs: Sequence[ShardSpec]):
        ctx = mp.get_context()
        self._conns = []
        self._procs = []
        for spec in specs:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_child,
                args=(spec, child),
                name=f"shard-{spec.shard_index}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # Construction barrier: every child builds its cluster before
        # the first command (construction errors surface here).
        for index, conn in enumerate(self._conns):
            status, detail = conn.recv()
            if status != "ready":
                self.close()
                raise RuntimeError(f"shard {index} failed to build: {detail}")

    def _broadcast(self, verb: str, payloads) -> List:
        for conn, payload in zip(self._conns, payloads):
            conn.send((verb, payload))
        replies = []
        for index, conn in enumerate(self._conns):
            status, value = conn.recv()
            if status != "ok":
                self.close()
                raise RuntimeError(f"shard {index} failed: {value}")
            replies.append(value)
        return replies

    def advance(
        self, until: Optional[float], directives_per_shard: Sequence[list]
    ) -> List[dict]:
        return self._broadcast(
            "advance",
            [(until, directives) for directives in directives_per_shard],
        )

    def finish(self, t_global: float) -> List[dict]:
        return self._broadcast("finish", [t_global] * len(self._conns))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit", None))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
        self._conns = []
        self._procs = []


__all__ = ["InlineExecutor", "ProcessExecutor"]
