"""Per-function effect summaries inferred as a fixpoint over the call graph.

Phase 2 of simcheck v2.  Every function gets a :class:`Summary` of the
simulator-relevant effects it can perform, directly or through callees:

``YIELDS``
    contains a scheduling point (``yield``/``yield from``) — syntactic,
    since a generator only waits where it yields.
``SLEEPS``
    reaches a pure-time wait (``yield env.timeout(...)``); the
    ``sleep_shield`` set names the locks the function is guaranteed to
    have released before every such sleep (the ``_make_room`` idiom of
    dropping the db mutex around a stall).
``ACQUIRES / RELEASES``
    capacity-1 :class:`~repro.sim.resources.Resource` lock operations,
    keyed by receiver source text (``self._mutex``).
``WRITES_DURABLE``
    reaches an SSTable/WAL/MANIFEST write through ``SimFS``
    (``append``/``write_at``/``create``/``rename``/``unlink``/
    ``punch_hole``) or a sink ``next_handle``.
``BARRIERS``
    reaches ``fsync``/``fdatasync``/``fdatabarrier``/``seal``.
``ACKS``
    resolves a client waiter (an ``event.succeed(...)`` outside the
    kernel modules) — the group-commit follower wakeup and the server's
    ``done.succeed(outcome)`` both match.
``CHECKS_EPOCH``
    compares a shard ``.epoch`` or raises/handles ``FencedError`` (the
    PR 8 fencing protocol).

The ``tail`` field records the *last* durability-relevant action on the
function's linearized body (``write`` or ``barrier``), which is what
lets a caller know whether a helper leaves an unsealed write behind —
the interprocedural generalization of the SIM005 dominance walk.

Calls that merely *register* a process (``env.process(gen())``) do not
execute on the caller's path and contribute no events.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .callgraph import CallInfo, FunctionInfo, Project, iter_own_nodes

__all__ = ["BARRIER_METHODS", "DURABLE_FS_METHODS", "Event", "Summary",
           "extract_events", "infer_effects", "dump_effects"]

#: Barrier calls: distinctive names, matched at the call site.
BARRIER_METHODS = frozenset({"fsync", "fdatasync", "fdatabarrier", "seal"})

#: SimFS/FileHandle durable mutations (matched when resolution lands in
#: the filesystem module) plus the sink protocol's ``next_handle``.
DURABLE_FS_METHODS = frozenset({"append", "write_at", "create", "rename",
                                "unlink", "punch_hole"})

_EPOCH_HELPERS = frozenset({"note_fenced_write", "note_fenced_ship"})


@dataclass(frozen=True)
class Event:
    """One ordered effect-relevant point inside a function body."""

    line: int
    col: int
    kind: str
    key: str = ""
    call: Optional[CallInfo] = None
    node: Optional[ast.AST] = None
    retests: bool = False


@dataclass(frozen=True)
class Summary:
    """Transitive effect summary of one function (see module doc)."""

    yields: bool = False
    sleeps: bool = False
    sleep_shield: FrozenSet[str] = frozenset()
    writes: bool = False
    barriers: bool = False
    acks: bool = False
    acks_unsealed: bool = False
    checks_epoch: bool = False
    acquires: FrozenSet[str] = frozenset()
    releases: FrozenSet[str] = frozenset()
    tail: str = "none"

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready form (sorted lists, stable keys)."""
        return {
            "yields": self.yields,
            "sleeps": self.sleeps,
            "sleep_shield": sorted(self.sleep_shield),
            "writes_durable": self.writes,
            "barriers": self.barriers,
            "acks": self.acks,
            "acks_unsealed": self.acks_unsealed,
            "checks_epoch": self.checks_epoch,
            "acquires": sorted(self.acquires),
            "releases": sorted(self.releases),
            "tail": self.tail,
        }


def _in_sim_module(fn: FunctionInfo) -> bool:
    """Kernel/resource modules whose ``succeed`` calls are not acks."""
    parts = fn.path.replace("\\", "/").split("/")
    return "sim" in parts or fn.module.startswith("repro.sim")


def _is_process_registration(node: ast.Call,
                             parents: Dict[ast.AST, ast.AST]) -> bool:
    """Is this call the generator argument of ``env.process(...)``?"""
    parent = parents.get(node)
    return (isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "process"
            and node in parent.args)


def _retests_after_resume(node: ast.AST,
                          parents: Dict[ast.AST, ast.AST]) -> bool:
    """Does an enclosing ``while`` re-validate state after this yield?

    A timeout inside ``while <condition>: ...`` re-checks the condition
    when the process resumes, which is the accepted post-resume
    re-validation pattern for SIM007.  ``while True`` does not count.
    """
    cur = parents.get(node)
    while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if isinstance(cur, ast.While):
            test = cur.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                return True
        cur = parents.get(cur)
    return False


def extract_events(project: Project, fn: FunctionInfo) -> List[Event]:
    """Ordered effect events for one function's own body."""
    types = project.local_types(fn)
    parents: Dict[ast.AST, ast.AST] = {}
    own_nodes = []
    for node in iter_own_nodes(fn.node):
        own_nodes.append(node)
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for child in ast.iter_child_nodes(fn.node):
        parents.setdefault(child, fn.node)
    events: List[Event] = []
    sim_module = _in_sim_module(fn)
    for node in own_nodes:
        if isinstance(node, ast.Call):
            if _is_process_registration(node, parents):
                continue
            events.extend(_classify_call(project, fn, node, types,
                                         sim_module, parents))
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
            if (isinstance(node, ast.Yield) and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "timeout"):
                events.append(Event(node.lineno, node.col_offset, "sleep",
                                    retests=_retests_after_resume(
                                        node, parents)))
        elif isinstance(node, ast.Compare):
            mentions_epoch = any(
                isinstance(sub, ast.Attribute) and sub.attr == "epoch"
                for side in [node.left] + list(node.comparators)
                for sub in ast.walk(side))
            if mentions_epoch:
                events.append(Event(node.lineno, node.col_offset, "epoch"))
        elif isinstance(node, ast.Name) and node.id == "FencedError":
            events.append(Event(node.lineno, node.col_offset, "epoch"))
        elif isinstance(node, ast.Attribute) and node.attr == "FencedError":
            events.append(Event(node.lineno, node.col_offset, "epoch"))
    events.sort(key=lambda e: (e.line, e.col, e.kind))
    return events


def _classify_call(project: Project, fn: FunctionInfo, node: ast.Call,
                   types: Dict[str, str], sim_module: bool,
                   parents: Dict[ast.AST, ast.AST]) -> List[Event]:
    """Events contributed by one call site."""
    func = node.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else "")
    line, col = node.lineno, node.col_offset
    if name in BARRIER_METHODS:
        return [Event(line, col, "barrier")]
    if name == "next_handle":
        return [Event(line, col, "write")]
    if name in _EPOCH_HELPERS:
        return [Event(line, col, "epoch")]
    if name == "succeed" and isinstance(func, ast.Attribute):
        if not sim_module:
            return [Event(line, col, "ack")]
        return []
    if (isinstance(func, ast.Attribute)
            and name in ("acquire", "try_acquire", "acquire_in_place", "release")):
        key = ast.unparse(func.value)
        kind = "try_acquire" if name in ("try_acquire", "acquire_in_place") else name
        return [Event(line, col, kind, key=key, node=node)]
    resolved = project.resolve_call(fn, node, types)
    if name in DURABLE_FS_METHODS:
        in_fs = any("filesystem" in t or "storage" in t
                    for t in resolved.targets)
        if in_fs:
            return [Event(line, col, "write")]
    if resolved.targets:
        return [Event(line, col, "call", call=resolved, node=node)]
    return []


def _join_call(summaries: Dict[str, Summary],
               call: CallInfo) -> Optional[Summary]:
    """Conservative union of the candidate targets' summaries."""
    parts = [summaries[t] for t in call.targets if t in summaries]
    if not parts:
        return None
    tails = {p.tail for p in parts if p.writes or p.barriers}
    if tails == {"barrier"}:
        tail = "barrier"
    elif "write" in tails:
        tail = "write"
    else:
        tail = "none"
    shield: Optional[FrozenSet[str]] = None
    for p in parts:
        if p.sleeps:
            shield = p.sleep_shield if shield is None \
                else shield & p.sleep_shield
    return Summary(
        yields=any(p.yields for p in parts),
        sleeps=any(p.sleeps for p in parts),
        sleep_shield=shield if shield is not None else frozenset(),
        writes=any(p.writes for p in parts),
        barriers=any(p.barriers for p in parts),
        acks=any(p.acks for p in parts),
        acks_unsealed=any(p.acks_unsealed for p in parts),
        checks_epoch=any(p.checks_epoch for p in parts),
        acquires=frozenset().union(*(p.acquires for p in parts)),
        releases=frozenset().union(*(p.releases for p in parts)),
        tail=tail)


def _evaluate(fn: FunctionInfo, events: List[Event],
              summaries: Dict[str, Summary]) -> Summary:
    """One abstract interpretation of a function's event list."""
    yields = fn.is_generator
    sleeps = writes = barriers = acks = acks_unsealed = checks = False
    tail = "none"
    barrier_seen = False
    acquires: set = set()
    releases: set = set()
    held: List[str] = []
    dropped: set = set()
    shield: Optional[FrozenSet[str]] = None

    def note_sleep(extra: FrozenSet[str]) -> None:
        nonlocal sleeps, shield
        sleeps = True
        here = frozenset(dropped) | extra
        shield = here if shield is None else shield & here

    for ev in events:
        if ev.kind == "write":
            writes, tail = True, "write"
        elif ev.kind == "barrier":
            barriers, tail, barrier_seen = True, "barrier", True
        elif ev.kind == "ack":
            acks = True
            if not barrier_seen:
                acks_unsealed = True
        elif ev.kind == "sleep":
            note_sleep(frozenset())
        elif ev.kind == "epoch":
            checks = True
        elif ev.kind == "acquire":
            acquires.add(ev.key)
            dropped.discard(ev.key)
            if ev.key not in held:
                held.append(ev.key)
        elif ev.kind == "try_acquire":
            acquires.add(ev.key)
        elif ev.kind == "release":
            releases.add(ev.key)
            if ev.key in held:
                held.remove(ev.key)
            else:
                dropped.add(ev.key)
        elif ev.kind == "call" and ev.call is not None:
            c = _join_call(summaries, ev.call)
            if c is None:
                continue
            writes |= c.writes
            barriers |= c.barriers
            checks |= c.checks_epoch
            if c.acks:
                acks = True
                if c.acks_unsealed and not barrier_seen:
                    acks_unsealed = True
            if c.writes or c.barriers:
                if c.tail == "barrier":
                    tail, barrier_seen = "barrier", True
                elif c.tail == "write":
                    tail = "write"
            if c.sleeps:
                note_sleep(c.sleep_shield)
    return Summary(
        yields=yields, sleeps=sleeps,
        sleep_shield=shield if shield is not None else frozenset(),
        writes=writes, barriers=barriers, acks=acks,
        acks_unsealed=acks_unsealed, checks_epoch=checks,
        acquires=frozenset(acquires), releases=frozenset(releases),
        tail=tail)


def infer_effects(project: Project,
                  max_passes: int = 50
                  ) -> Tuple[Dict[str, Summary], Dict[str, List[Event]]]:
    """Fixpoint effect inference: ``(summaries, events)`` by qualname."""
    events: Dict[str, List[Event]] = {}
    summaries: Dict[str, Summary] = {}
    for qual in sorted(project.functions):
        events[qual] = extract_events(project, project.functions[qual])
        summaries[qual] = Summary(
            yields=project.functions[qual].is_generator)
    for _ in range(max_passes):
        changed = False
        for qual in sorted(project.functions):
            new = _evaluate(project.functions[qual], events[qual],
                            summaries)
            if new != summaries[qual]:
                summaries[qual] = new
                changed = True
        if not changed:
            break
    return summaries, events


def dump_effects(project: Project,
                 summaries: Dict[str, Summary]) -> Dict[str, object]:
    """Deterministic JSON-ready dump of every function's summary."""
    return {qual: summaries[qual].as_dict()
            for qual in sorted(summaries)}
