"""REPRO3xx: asyncio hygiene.

The serving path (``repro.distributed.rpc``) multiplexes every
connection on one event loop; a single blocking call stalls all of
them. Its storage ops run inline only because every target is
in-memory pure Python; real blocking IO belongs in an executor
(``run_in_executor``) — these rules catch the direct calls that
bypass it:

* **REPRO301** — blocking calls lexically inside ``async def``:
  ``time.sleep``, bare ``open``, ``os.fsync``/``fdatasync``/``sync``/
  ``replace``/``rename``/``remove``/``unlink``, any ``subprocess.*``
  call, and the Path convenience IO methods (``read_text`` etc.).
  Nested synchronous ``def``s are skipped: they are exactly the bodies
  handed to the executor.
* **REPRO302** — ``asyncio.get_event_loop()``: deprecated,
  context-dependent, and a classic source of "attached to a different
  loop" bugs. Use ``get_running_loop()`` inside coroutines or
  ``new_event_loop()`` when owning the loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.engine import ModuleUnit, ProjectContext
from repro.devtools.registry import (
    Finding,
    Rule,
    register,
    walk_skipping_nested_functions,
)

_BLOCKING_CHAINS = {
    "time.sleep": "time.sleep() blocks the event loop; use "
    "await asyncio.sleep(...)",
    "os.fsync": "os.fsync() blocks the event loop; route durability "
    "through an executor",
    "os.fdatasync": "os.fdatasync() blocks the event loop; route "
    "durability through an executor",
    "os.sync": "os.sync() blocks the event loop",
    "os.replace": "os.replace() is sync file IO; run it in the "
    "executor",
    "os.rename": "os.rename() is sync file IO; run it in the executor",
    "os.remove": "os.remove() is sync file IO; run it in the executor",
    "os.unlink": "os.unlink() is sync file IO; run it in the executor",
}

_BLOCKING_METHODS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class BlockingInAsyncRule(Rule):
    """REPRO301: no blocking sleep/IO calls inside ``async def`` bodies."""
    code = "REPRO301"
    name = "blocking-in-async"
    family = "REPRO3"
    summary = (
        "no blocking calls (time.sleep, sync file IO, fsync, "
        "subprocess) inside async def"
    )

    def check(
        self, unit: ModuleUnit, context: ProjectContext
    ) -> Iterator[Finding]:
        """Yield a finding per blocking call inside an ``async def``."""
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(unit, node)

    def _check_coroutine(
        self, unit: ModuleUnit, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in walk_skipping_nested_functions(func):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain in _BLOCKING_CHAINS:
                yield self.finding(
                    unit.path, node, _BLOCKING_CHAINS[chain]
                )
            elif chain.startswith("subprocess."):
                yield self.finding(
                    unit.path,
                    node,
                    f"{chain}() blocks the event loop; use "
                    "asyncio.create_subprocess_exec or the executor",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                yield self.finding(
                    unit.path,
                    node,
                    "open() is sync file IO inside a coroutine; run "
                    "it in the executor",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    unit.path,
                    node,
                    f".{node.func.attr}() is sync file IO inside a "
                    "coroutine; run it in the executor",
                )


@register
class GetEventLoopRule(Rule):
    """REPRO302: ``get_running_loop`` beats deprecated ``get_event_loop``."""
    code = "REPRO302"
    name = "get-event-loop"
    family = "REPRO3"
    summary = (
        "no asyncio.get_event_loop(); use get_running_loop() or own "
        "the loop explicitly"
    )

    def check(
        self, unit: ModuleUnit, context: ProjectContext
    ) -> Iterator[Finding]:
        """Yield a finding per ``asyncio.get_event_loop()`` call."""
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Call)
                and _dotted(node.func) == "asyncio.get_event_loop"
            ):
                yield self.finding(
                    unit.path,
                    node,
                    "asyncio.get_event_loop() is deprecated and "
                    "context-dependent; use asyncio.get_running_loop() "
                    "inside coroutines or asyncio.new_event_loop() "
                    "when owning the loop",
                )
