"""Project-wide symbol table and call graph for simcheck v2.

Phase 1 of the interprocedural analysis: parse every module into one
:class:`Project` holding classes, functions, and a *bound-name* call
resolver good enough for this codebase's idioms:

* ``self.method(...)`` resolves through the enclosing class's MRO (by
  bare base-class name) **plus** subclass overrides, so a call on an
  ``LSMEngine`` hook also reaches the engine-variant overrides.
* ``self.attr.method(...)`` resolves through lightweight attribute type
  inference: ``self.attr = Ctor(...)`` assignments and ``attr: T`` /
  ``Optional[T]`` annotations anywhere in the class.
* In a mixin (a class with no ``__init__`` on its MRO: ``LSMEngine``'s
  seams), ``self`` is the class it is mixed into: both kinds resolve
  through the subclasses' MROs as well.
* Locals pick up types from ``x = Ctor(...)`` and from
  ``x = yield from f(...)`` when ``f``'s return annotation is
  ``Generator[..., ..., T]``.
* A call through a receiver of *unknown* type falls back to matching
  every project function with that bare name — except for method names
  every builtin container has (:data:`AMBIGUOUS_METHODS`), which would
  otherwise wire ``list.append`` to ``FileHandle.append``.

Resolution returns a *confidence* bit: rules that punish a call site
(rather than merely propagate effects) only act on confident edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = ["AMBIGUOUS_METHODS", "CallInfo", "ClassInfo", "FunctionInfo",
           "Project", "build_project"]

#: Method names shared with builtin containers/strings: resolving them
#: through an untyped receiver would connect unrelated code, so they
#: only resolve when the receiver's type is known.
AMBIGUOUS_METHODS: Set[str] = {
    "add", "append", "appendleft", "clear", "copy", "count", "decode",
    "discard", "encode", "endswith", "extend", "format", "get", "index",
    "insert", "items", "join", "keys", "lstrip", "pop", "popleft",
    "remove", "replace", "reverse", "rsplit", "rstrip", "setdefault",
    "sort", "split", "startswith", "strip", "update", "values",
}

#: Import origins with these roots are project-internal; anything else
#: (``time``, ``os``, ``sys``...) is external and never resolves.
_INTERNAL_ROOTS = ("repro", ".")


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    path: str
    name: str
    cls: Optional[str]
    node: ast.AST
    lineno: int
    is_generator: bool
    returns: Optional[str]


@dataclass
class ClassInfo:
    """One class: bases (bare names), methods, and inferred attr types."""

    qualname: str
    module: str
    path: str
    name: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    attr_ctors: Dict[str, Tuple[str, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class CallInfo:
    """Resolution of one call site: candidate targets + confidence."""

    name: str
    targets: Tuple[str, ...]
    confident: bool


def _module_name(path: str) -> str:
    """Dotted module name for a file path (``repro.…`` when packaged)."""
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    parts = parts[:-1] + [stem]
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return stem


def _ann_to_class(node: Optional[ast.AST]) -> Optional[str]:
    """Bare class name from an annotation, unwrapping the common shapes.

    Handles ``T``, ``mod.T``, ``Optional[T]``, string annotations, and
    ``Generator[Y, S, R] -> R`` (the *return* value of a driven
    generator, which is what an ``x = yield from f()`` binding gets).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.isidentifier() else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None)
        inner = node.slice
        if head_name == "Optional":
            return _ann_to_class(inner)
        if head_name == "Generator":
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 3:
                return _ann_to_class(inner.elts[2])
        return None
    return None


def _is_generator_fn(node: ast.AST) -> bool:
    """Does this def contain a yield in its *own* body?"""
    for sub in iter_own_nodes(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def iter_own_nodes(fn: ast.AST):
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _ctor_name(value: ast.AST) -> Optional[str]:
    """Bare class name if ``value`` is a ``Ctor(...)`` call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _ctor_capacity(value: ast.Call) -> int:
    """Capacity of a ``Resource(env[, capacity])`` ctor; -1 if unknown."""
    cap: Optional[ast.AST] = None
    if len(value.args) >= 2:
        cap = value.args[1]
    for kw in value.keywords:
        if kw.arg == "capacity":
            cap = kw.value
    if cap is None:
        return 1
    if isinstance(cap, ast.Constant) and isinstance(cap.value, int):
        return cap.value
    return -1


class Project:
    """Symbol table + resolver over a set of parsed modules."""

    def __init__(self) -> None:
        """Create an empty project; populate via :func:`build_project`."""
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions_by_name: Dict[str, List[str]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.subclasses: Dict[str, List[ClassInfo]] = {}
        self.module_functions: Dict[Tuple[str, str], str] = {}
        self.external_aliases: Dict[str, Set[str]] = {}
        self._local_names_cache: Dict[str, Set[str]] = {}

    # -- lookups ---------------------------------------------------------

    def mro(self, cls_name: str) -> List[ClassInfo]:
        """Classes reachable from ``cls_name`` through bare-name bases."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for info in self.classes_by_name.get(name, []):
                out.append(info)
                queue.extend(info.bases)
        return out

    def _method_defs(self, cls_name: str, method: str,
                     with_overrides: bool = True) -> List[str]:
        """Definitions of ``method`` on ``cls_name``: where its MRO and
        each subclass's MRO dispatch it (the override, or for a mixin a
        method its subclass inherits from a sibling base)."""
        owners = [cls_name]
        if with_overrides:
            owners += [sub.name for sub in self._all_subclasses(cls_name)]
        found: List[str] = []
        for owner in owners:
            for info in self.mro(owner):
                if method in info.methods:
                    if info.methods[method] not in found:
                        found.append(info.methods[method])
                    break
        return found

    def _all_subclasses(self, cls_name: str) -> List[ClassInfo]:
        """Transitive subclasses of ``cls_name`` (by bare name)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls_name]
        while queue:
            name = queue.pop(0)
            for sub in self.subclasses.get(name, []):
                if sub.qualname in seen:
                    continue
                seen.add(sub.qualname)
                out.append(sub)
                queue.append(sub.name)
        return out

    def _self_mro(self, cls_name: str) -> Iterator[ClassInfo]:
        """Classes whose attributes ``self`` carries in ``cls_name``'s
        methods: its MRO, then, for a mixin (no ``__init__`` on its MRO:
        ``LSMEngine``'s seams), its subclasses' MROs, since the class it
        is mixed into sets its state.  Lazy: callers stop at a match."""
        mro = self.mro(cls_name)
        yield from mro
        if not any("__init__" in info.methods for info in mro):
            for sub in self._all_subclasses(cls_name):
                yield from self.mro(sub.name)

    def attr_type(self, cls_name: str, attr: str) -> Optional[str]:
        """Inferred type of ``self.<attr>`` on ``cls_name``."""
        for info in self._self_mro(cls_name):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def attr_ctor(self, cls_name: str, attr: str) -> Optional[Tuple[str, int]]:
        """(ctor name, capacity) recorded for ``self.<attr>``, if any."""
        for info in self._self_mro(cls_name):
            if attr in info.attr_ctors:
                return info.attr_ctors[attr]
        return None

    def is_capacity_one_lock(self, fn: FunctionInfo, key: str) -> bool:
        """Is receiver ``key`` (source text) a capacity-1 ``Resource``?

        Known ``Resource(...)`` ctors decide by their capacity argument;
        receivers with no visible ctor fall back to a naming heuristic
        (``lock``/``mutex`` in the name), which is what fixture snippets
        rely on.
        """
        attr = key.rsplit(".", 1)[-1]
        if fn.cls is not None and key.startswith("self."):
            ctor = self.attr_ctor(fn.cls, attr)
            if ctor is not None:
                name, capacity = ctor
                if name == "Resource":
                    return capacity == 1
                return False
        lowered = attr.lower()
        return "lock" in lowered or "mutex" in lowered

    # -- resolution ------------------------------------------------------

    def _local_names(self, fn: FunctionInfo) -> Set[str]:
        """Names bound inside ``fn`` (params + assignment targets).

        A bare call through one of these is a call on a *local value*
        (``append = node.append; append(x)``), never a project function.
        """
        cached = self._local_names_cache.get(fn.qualname)
        if cached is not None:
            return cached
        names: Set[str] = set()
        args = getattr(fn.node, "args", None)
        if args is not None:
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                names.add(arg.arg)
            if args.vararg is not None:
                names.add(args.vararg.arg)
            if args.kwarg is not None:
                names.add(args.kwarg.arg)
        for node in iter_own_nodes(fn.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                   ast.NamedExpr)):
                targets = [node.target]
            elif isinstance(node, ast.For):
                targets = [node.target]
            elif isinstance(node, (ast.withitem,)):
                if node.optional_vars is not None:
                    targets = [node.optional_vars]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        self._local_names_cache[fn.qualname] = names
        return names

    def local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """Parameter + local variable types visible inside ``fn``."""
        types: Dict[str, str] = {}
        args = getattr(fn.node, "args", None)
        if args is not None:
            all_args = (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs))
            for arg in all_args:
                cls = _ann_to_class(arg.annotation)
                if cls is not None:
                    types[arg.arg] = cls
        for node in iter_own_nodes(fn.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                cls = _ann_to_class(node.annotation)
                if isinstance(target, ast.Name) and cls is not None:
                    types[target.id] = cls
                continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.YieldFrom):
                value = value.value
            ctor = _ctor_name(value)
            if ctor is not None and ctor in self.classes_by_name:
                types[target.id] = ctor
            elif isinstance(value, ast.Call):
                resolved = self.resolve_call(fn, value, types)
                rets = {self.functions[t].returns for t in resolved.targets
                        if t in self.functions}
                rets.discard(None)
                if len(rets) == 1:
                    types[target.id] = rets.pop()
        return types

    def _receiver_type(self, fn: FunctionInfo, expr: ast.AST,
                       types: Dict[str, str]) -> Optional[str]:
        """Type of a receiver expression, or None when unknown."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return fn.cls
            return types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._receiver_type(fn, expr.value, types)
            if base is not None:
                return self.attr_type(base, expr.attr)
        return None

    def _is_external_root(self, fn: FunctionInfo, expr: ast.AST) -> bool:
        """Does this receiver chain root at an external import alias?"""
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return (isinstance(expr, ast.Name)
                and expr.id in self.external_aliases.get(fn.path, set()))

    def resolve_call(self, fn: FunctionInfo, call: ast.Call,
                     types: Dict[str, str]) -> CallInfo:
        """Resolve one call site to candidate function qualnames."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.external_aliases.get(fn.path, set()):
                return CallInfo(name, (), False)
            local = self.module_functions.get((fn.module, name))
            if local is not None:
                return CallInfo(name, (local,), True)
            if name in self.classes_by_name:
                inits = self._method_defs(name, "__init__",
                                          with_overrides=False)
                return CallInfo(name, tuple(inits), True)
            if name in AMBIGUOUS_METHODS or name in self._local_names(fn):
                return CallInfo(name, (), False)
            hits = self.functions_by_name.get(name, [])
            return CallInfo(name, tuple(sorted(hits)), bool(hits))
        if isinstance(func, ast.Attribute):
            name = func.attr
            recv = func.value
            if self._is_external_root(fn, recv):
                return CallInfo(name, (), False)
            if isinstance(recv, ast.Name) and recv.id == "self" \
                    and fn.cls is not None:
                hits = self._method_defs(fn.cls, name)
                return CallInfo(name, tuple(hits), bool(hits))
            recv_type = self._receiver_type(fn, recv, types)
            if recv_type is not None:
                hits = self._method_defs(recv_type, name)
                if hits:
                    return CallInfo(name, tuple(hits), True)
            if name in AMBIGUOUS_METHODS:
                return CallInfo(name, (), False)
            hits = []
            for qual in self.functions_by_name.get(name, []):
                if self.functions[qual].cls is not None:
                    hits.append(qual)
            return CallInfo(name, tuple(sorted(hits)), False)
        return CallInfo("", (), False)


def _external_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound by imports of *external* (non-repro) modules."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in _INTERNAL_ROOTS:
                    out.add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.level > 0:
                continue
            root = (node.module or "").split(".")[0]
            if root and root not in _INTERNAL_ROOTS:
                for alias in node.names:
                    out.add(alias.asname or alias.name)
    return out


def _harvest_class(project: Project, info: ClassInfo,
                   node: ast.ClassDef) -> None:
    """Record attribute types/ctors from every method of a class."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                          ast.Name):
            cls = _ann_to_class(item.annotation)
            if cls is not None:
                info.attr_types.setdefault(item.target.id, cls)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in iter_own_nodes(method):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.target is not None:
                target = sub.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls = _ann_to_class(sub.annotation)
                    if cls is not None:
                        info.attr_types.setdefault(target.attr, cls)
                target, value = sub.target, sub.value
            if (not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self" or value is None):
                continue
            if isinstance(value, ast.YieldFrom):
                value = value.value
            ctor = _ctor_name(value)
            if ctor is None:
                continue
            info.attr_types.setdefault(target.attr, ctor)
            if isinstance(value, ast.Call):
                info.attr_ctors.setdefault(
                    target.attr, (ctor, _ctor_capacity(value)))


def build_project(trees: Mapping[str, ast.AST]) -> Project:
    """Build the symbol table + resolver over ``{path: parsed tree}``."""
    project = Project()
    for path in sorted(trees):
        tree = trees[path]
        module = _module_name(path)
        project.external_aliases[path] = _external_aliases(tree)
        _collect_defs(project, path, module, tree)
    for info in project.classes.values():
        for base in info.bases:
            project.subclasses.setdefault(base, []).append(info)
    for subs in project.subclasses.values():
        subs.sort(key=lambda c: c.qualname)
    return project


def _collect_defs(project: Project, path: str, module: str,
                  tree: ast.AST) -> None:
    """Register every class and function of one module."""

    def register(node: ast.AST, cls: Optional[str], prefix: str) -> None:
        qual = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qual, module=module, path=path, name=node.name,
            cls=cls, node=node, lineno=node.lineno,
            is_generator=_is_generator_fn(node),
            returns=_ann_to_class(getattr(node, "returns", None)))
        project.functions[qual] = info
        project.functions_by_name.setdefault(node.name, []).append(qual)
        if cls is None:
            project.module_functions[(module, node.name)] = qual
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                register(child, cls, qual)

    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            register(node, None, module)
        elif isinstance(node, ast.ClassDef):
            cinfo = ClassInfo(qualname=f"{module}.{node.name}",
                              module=module, path=path, name=node.name)
            for base in node.bases:
                base_name = (base.id if isinstance(base, ast.Name)
                             else base.attr if isinstance(base, ast.Attribute)
                             else None)
                if base_name is not None:
                    cinfo.bases.append(base_name)
            _harvest_class(project, cinfo, node)
            project.classes[cinfo.qualname] = cinfo
            project.classes_by_name.setdefault(node.name, []).append(cinfo)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    register(item, node.name, cinfo.qualname)
                    cinfo.methods[item.name] = \
                        f"{cinfo.qualname}.{item.name}"
