"""Tier-1 dead-code gate: public code, defaulted parameters and imports nothing uses.

One stdlib-``ast`` pass over ``src/`` lists three kinds of finding:

- a public function or method (name without a leading ``_``) that no
  caller references, by name, attribute or string;
- a defaulted parameter (positional, keyword-only, or a dataclass /
  NamedTuple field) that no caller passes, by keyword or by position;
- a module-level import in a ``src/`` module that the module never
  references (a name its ``__all__`` lists counts) and that no program or
  test file imports from it.

The callers are every program file under ``src/``, ``examples/`` and
``benchmarks/e2e/`` (tests are not callers), the string literals in them
that name a field or a ``module:Class.method`` target (override dicts,
``LAYER_TARGETS``, ``getattr``), and the keys of the shipped spec JSON.
Matching is by name, not by type: a method counts as used when anything
references an attribute of that name.  That errs toward "used", so every
finding is real; what the gate misses, a hand review still can.

Each finding is deleted with the code only it reached, or listed in
:data:`ALLOWLIST` with a one-line reason.  A stale allowlist entry (no
longer a finding) fails the gate too, so the list only shrinks.
``python tests/test_dead_code.py`` prints every current finding.
"""

from __future__ import annotations

import ast
import functools
import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "benchmarks/e2e")
#: spec JSON whose keys pass fields; a Markdown file contributes its ```json blocks
JSON_GLOBS = (
    "src/repro/api/presets/*.json",
    "specs/*.json",
    "specs/*.md",
    "benchmarks/e2e/manifest.json",
)
_JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.M | re.S)

_COST_CONSTANT = "simulated hardware cost constant; a sensitivity sweep perturbs it"
_TEST_ORACLE = "test oracle: tests build matrices from edge lists and compare dense"

#: qualified finding -> why it stays although nothing passes or calls it
ALLOWLIST: Dict[str, str] = {
    # Cost constants of the simulated hardware: a sensitivity sweep perturbs
    # them one at a time, so each stays a constructor field.
    "repro.gpu.spec.GPUSpec(clock_ghz)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(cudagraph_launch_overhead_us)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(fp32_cores_per_sm)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(kernel_launch_overhead_us)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(max_blocks_per_sm)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(memory_bandwidth_gbs)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(memory_efficiency)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(memory_gb)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(num_sms)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(request_bytes)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(shared_mem_per_sm_kb)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(transaction_bytes)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(vector_request_bytes)": _COST_CONSTANT,
    "repro.gpu.spec.GPUSpec(warp_size)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(dispatch_overhead_us)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(gather_bandwidth_gbs)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(graph_dispatch_overhead_us)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(overlap_extract_ns_per_nnz)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(pin_bandwidth_gbs)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(slicing_ns_per_nnz)": _COST_CONSTANT,
    "repro.gpu.spec.HostSpec(snapshot_prep_us)": _COST_CONSTANT,
    "repro.gpu.spec.PCIeSpec(bandwidth_gbs)": _COST_CONSTANT,
    "repro.gpu.spec.PCIeSpec(latency_us)": _COST_CONSTANT,
    "repro.gpu.spec.PCIeSpec(pageable_penalty)": _COST_CONSTANT,
    # Optimizer hyper-parameters keep the usual Adam signature.
    "repro.tensor.optim.Adam(betas)": "Adam hyper-parameter; the trainers use the defaults",
    "repro.tensor.optim.Adam(eps)": "Adam hyper-parameter; the trainers use the defaults",
    "repro.tensor.optim.Adam(weight_decay)": "Adam hyper-parameter; the trainers use the defaults",
    # Records whose fields are running totals, filled after construction.
    "repro.gpu.device.KernelStats(balanced_seconds)": "running total a kernel launch adds to",
    "repro.gpu.device.KernelStats(flops)": "running total a kernel launch adds to",
    "repro.gpu.device.KernelStats(mem_requests)": "running total a kernel launch adds to",
    "repro.gpu.device.KernelStats(mem_transactions)": "running total a kernel launch adds to",
    "repro.gpu.device.KernelStats(weighted_thread_ratio)": "running total a kernel launch adds to",
    "repro.memory.cache.AccessPlan(block_keys)": "running total a cache access adds to",
    "repro.memory.cache.AccessPlan(gpu_bytes)": "running total a cache access adds to",
    "repro.memory.cache.AccessPlan(pinned_bytes)": "running total a cache access adds to",
    "repro.memory.cache.AccessPlan(spill_bytes)": "running total a cache access adds to",
    "repro.memory.cache.AccessPlan(total_bytes)": "running total a cache access adds to",
    "repro.analysis.base.ExecutionArtifacts(caches)": "list the artifact collector appends to",
    "repro.analysis.base.ExecutionArtifacts(groups)": "list the artifact collector appends to",
    "repro.analysis.base.ExecutionArtifacts(timelines)": "list the artifact collector appends to",
    # Test oracles: the format and kernel tests build matrices from edge lists
    # and compare results against dense arrays.
    "repro.graph.coo.COOMatrix.from_edges": _TEST_ORACLE,
    "repro.graph.coo.COOMatrix.from_edges(deduplicate)": _TEST_ORACLE,
    "repro.graph.coo.COOMatrix.from_edges(values)": _TEST_ORACLE,
    "repro.graph.coo.COOMatrix.to_dense": _TEST_ORACLE,
    "repro.graph.csr.CSRMatrix.from_edges": _TEST_ORACLE,
    "repro.graph.csr.CSRMatrix.to_dense": _TEST_ORACLE,
    "repro.gpu.timeline.op_records": "the golden-digest tests hash timelines op for op through it",
    "repro.api.cli.main(argv)": "the CLI tests run main in-process on an argument list",
}

#: string literals that only re-export names (not uses of them)
_EXPORT_TABLES = {"__all__", "_LAZY_EXPORTS"}
#: a string literal read as a name: ``field``, ``a.b=1``, ``mod:Class.meth*``
_NAME_LIKE = re.compile(r"[\w.:*]+(=\S*)?")
_IDENT = re.compile(r"[A-Za-z_]\w*")


class _Call:
    """One call site, reduced to what binds parameters."""

    __slots__ = ("positional", "starred", "keywords", "forwarded")

    def __init__(
        self, positional: int, starred: bool, keywords: Set[str], forwarded: Optional[str]
    ) -> None:
        self.positional = positional  # positional arguments before any ``*args``
        self.starred = starred  # a ``*args`` fills every later position
        self.keywords = keywords
        self.forwarded = forwarded  # name of the caller's own ``**kwargs`` it passes on


class _Def:
    """A function, method, or dataclass constructor defined under ``src/``."""

    def __init__(
        self,
        qualname: str,
        name: str,
        callee_names: Set[str],
        params: List[Tuple[str, bool, bool]],
        node: ast.AST,
    ) -> None:
        self.qualname = qualname
        self.name = name
        self.callee_names = callee_names  # names a call site uses to reach it
        self.params = params  # (name, has_default, positional), after self/cls
        self.node = node


def _program_files() -> Iterator[Path]:
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _test_files() -> Iterator[Path]:
    yield from sorted((ROOT / "tests").rglob("*.py"))
    for folder in CALLER_DIRS:
        yield from sorted((ROOT / folder).rglob("test_*.py"))


def _module_name(path: Path) -> str:
    rel = path.relative_to(ROOT / "src").with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _decorator_names(node) -> Set[str]:
    names = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in _decorator_names(node) or any(
        getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases
    )


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, bool, bool]]:
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _Index._callee(value.func) == "field":
            if any(k.arg == "init" and getattr(k.value, "value", True) is False
                   for k in value.keywords):
                continue
        fields.append((stmt.target.id, value is not None, True))
    return fields


def _signature(node, skip_first: bool) -> List[Tuple[str, bool, bool]]:
    args = node.args
    positional = args.posonlyargs + args.args
    if skip_first and positional:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    params = [(a.arg, i >= first_default, True) for i, a in enumerate(positional)]
    params += [(a.arg, d is not None, False) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return params


class _Index:
    """Every definition under ``src/`` and every use in the callers."""

    def __init__(self) -> None:
        self.defs: List[_Def] = []
        self.public: List[Tuple[str, str, ast.AST]] = []  # (qualname, name, node)
        self.references: Set[str] = set()
        self.setter_references: Set[str] = set()
        #: names used as values (callbacks, registry runners): a caller that
        #: holds one may pass any of its positional parameters
        self.values: Set[str] = set()
        self.calls: Dict[str, List[_Call]] = defaultdict(list)
        self.forwards: Dict[str, Set[str]] = defaultdict(set)  # wrapper -> callees of its **kwargs
        self.field_keys: Set[str] = set()  # spec JSON keys, dict keys, ``a.b=1`` overrides
        self.bases: Dict[str, Set[str]] = defaultdict(set)  # class -> base class names
        self.tables: Dict[str, Set[str]] = defaultdict(set)  # registry dict -> value names
        trees = {path: ast.parse(path.read_text()) for path in _program_files()}
        for path, tree in trees.items():
            if path.is_relative_to(ROOT / "src"):
                self._collect_defs(tree, _module_name(path))
        for tree in trees.values():
            self._collect_uses(tree)
        for pattern in JSON_GLOBS:
            for path in sorted(ROOT.glob(pattern)):
                text = path.read_text()
                blocks = _JSON_BLOCK.findall(text) if path.suffix == ".md" else [text]
                for block in blocks:
                    self._json_keys(json.loads(block))
        self._bind_constructors()

    # ------------------------------------------------------------ definitions
    def _collect_defs(self, tree: ast.Module, module: str) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, f"{module}.{node.name}", None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(node, module)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                node.value, ast.Dict
            ):  # a registry table: calling ``TABLE[key](...)`` calls its values
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                values = {self._callee(v) for v in node.value.values} - {None}
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.tables[target.id] |= values

    def _add_class(self, node: ast.ClassDef, module: str) -> None:
        qual = f"{module}.{node.name}"
        self.bases[node.name] = {
            getattr(b, "id", getattr(b, "attr", "")) for b in node.bases
        }
        if _is_dataclass(node):
            self.defs.append(_Def(qual, "__init__", {node.name}, _dataclass_fields(node), node))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, f"{qual}.{stmt.name}", node)

    def _add_function(self, node, qual: str, cls: Optional[ast.ClassDef]) -> None:
        decorators = _decorator_names(node)
        name = node.name
        if not name.startswith("_"):
            self.public.append((qual, name, node))
        if name.startswith("__") and name != "__init__":
            return
        skip_first = cls is not None and "staticmethod" not in decorators
        params = _signature(node, skip_first)
        if name == "__init__":
            owner = qual.rsplit(".", 1)[0]
            self.defs.append(_Def(owner, name, {cls.name}, params, node))
        elif "property" not in decorators:
            self.defs.append(_Def(qual, name, {name}, params, node))

    # ------------------------------------------------------------------- uses
    def _collect_uses(self, tree: ast.Module) -> None:
        self._skip: Set[int] = set()  # docstrings and export-table strings
        self._keys: Set[int] = set()  # dict keys and subscripts
        self._called: Set[int] = set()  # the ``func`` of a call
        self._visit(tree, None, None)

    def _visit(self, node: ast.AST, cls: Optional[ast.ClassDef], func) -> None:
        """One pass over ``node``'s subtree; ``cls``/``func`` enclose it."""
        kind = type(node)
        if kind in (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                self._skip.add(id(body[0].value))
            if kind is ast.ClassDef:
                cls = node
            elif kind is not ast.Module:
                func = node
        elif kind is ast.Name:
            if isinstance(node.ctx, ast.Load):
                self.references.add(node.id)
                if id(node) not in self._called:
                    self.values.add(node.id)
        elif kind is ast.Attribute:
            if isinstance(node.ctx, ast.Load):
                self.references.add(node.attr)
                if id(node) not in self._called:
                    self.values.add(node.attr)
            else:
                self.setter_references.add(node.attr)
        elif kind is ast.Constant:
            if isinstance(node.value, str) and id(node) not in self._skip:
                self._string(node.value, id(node) in self._keys)
        elif kind is ast.Call:
            self._called.add(id(node.func))
            self._call(node, cls, func)
        elif kind is ast.Dict:
            self._keys.update(id(k) for k in node.keys)
        elif kind is ast.Subscript:
            self._keys.add(id(node.slice))
        elif kind in (ast.Assign, ast.AnnAssign):
            targets = node.targets if kind is ast.Assign else [node.target]
            if any(getattr(t, "id", None) in _EXPORT_TABLES for t in targets):
                return  # re-exports name what they export; they do not use it
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls, func)

    def _string(self, text: str, is_key: bool) -> None:
        """A name-like string references what it names; a dict key or a
        ``path.to.field=value`` override also passes the field it names."""
        if _NAME_LIKE.fullmatch(text):
            names = _IDENT.findall(text.split("=", 1)[0])
            self.references.update(names)
            if is_key or "=" in text:
                self.field_keys.update(names)

    def _json_keys(self, doc) -> None:
        if isinstance(doc, dict):
            for key, value in doc.items():
                self._string(key, True)
                self._json_keys(value)
        elif isinstance(doc, list):
            for value in doc:
                self._json_keys(value)

    @staticmethod
    def _reduce(node: ast.Call, skip: int = 0) -> _Call:
        args = node.args[skip:]
        starred = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
        forwarded = next(
            (getattr(k.value, "id", None) for k in node.keywords if k.arg is None), None
        )
        return _Call(
            len(args) if starred is None else starred,
            starred is not None,
            {k.arg for k in node.keywords if k.arg},
            forwarded,
        )

    @staticmethod
    def _callee(func) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _call(self, node: ast.Call, cls: Optional[ast.ClassDef], func) -> None:
        name = self._callee(node.func)
        call = self._reduce(node)
        if isinstance(node.func, ast.Subscript):  # REGISTRY[key](...)
            for target in self.tables.get(self._callee(node.func.value), ()):
                self.calls[target].append(call)
        if name == "partial" and node.args:
            target = self._callee(node.args[0])
            if target:
                self.calls[target].append(self._reduce(node, skip=1))
        if name == "replace":  # dataclasses.replace(obj, field=...)
            self.calls["<replace>"].append(self._reduce(node, skip=len(node.args)))
        if name:
            self.calls[name].append(call)
        if cls is not None:  # ``cls(...)``, ``type(self)(...)``, ``super().__init__(...)``
            target = node.func
            is_type_call = isinstance(target, ast.Call) and self._callee(target.func) == "type"
            if name == "cls" or is_type_call:
                self.calls[cls.name].append(call)
            elif (
                name == "__init__"
                and isinstance(target.value, ast.Call)
                and self._callee(target.value.func) == "super"
            ):
                for base in cls.bases:
                    self.calls[self._callee(base)].append(call)
        kwarg = func.args.kwarg.arg if func is not None and func.args.kwarg else None
        if kwarg and name and call.forwarded == kwarg:  # ``**kwargs`` passed on
            self.forwards[func.name].add("<replace>" if name == "replace" else name)

    # ------------------------------------------------------------ resolution
    def _bind_constructors(self) -> None:
        """A subclass without its own constructor is called by its name too."""
        subclasses: Dict[str, Set[str]] = defaultdict(set)
        for cls, bases in self.bases.items():
            for base in bases:
                subclasses[base].add(cls)
        own_init = {d.qualname.rsplit(".", 1)[-1] for d in self.defs if d.name == "__init__"}
        for d in self.defs:
            if d.name != "__init__":
                continue
            pending = list(subclasses.get(next(iter(d.callee_names)), ()))
            while pending:
                sub = pending.pop()
                if sub not in own_init and sub not in d.callee_names:
                    d.callee_names.add(sub)
                    pending.extend(subclasses.get(sub, ()))

    def _keywords_into(self, callee: str, seen: Set[str]) -> Iterator[_Call]:
        """Calls that reach ``callee``, directly or through ``**kwargs`` wrappers."""
        yield from self.calls.get(callee, ())
        for wrapper, targets in self.forwards.items():
            if callee in targets and wrapper not in seen:
                seen.add(wrapper)
                for call in self._keywords_into(wrapper, seen):
                    yield _Call(0, False, call.keywords, None)

    def unused_functions(self) -> List[str]:
        found = []
        for qual, name, node in self.public:
            decorators = _decorator_names(node)
            used = name in self.references or (
                "setter" in decorators and name in self.setter_references
            )
            registered = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if not used and not registered:
                found.append(qual)
        return found

    def unpassed_parameters(self) -> List[str]:
        found = []
        for d in self.defs:
            calls = [c for name in d.callee_names for c in self._keywords_into(name, {name})]
            is_record = isinstance(d.node, ast.ClassDef)
            if is_record:
                calls += list(self._keywords_into("<replace>", set()))
            indirect = not is_record and d.name != "__init__" and d.name in self.values
            for index, (param, has_default, positional) in enumerate(d.params):
                if not has_default or (is_record and param in self.field_keys):
                    continue
                passed = (positional and indirect) or any(
                    param in c.keywords or (positional and (index < c.positional or c.starred))
                    for c in calls
                )
                if not passed:
                    found.append(f"{d.qualname}({param})")
        return found


#: a string that may be an annotation or an ``__all__`` entry: its identifiers count
_TYPE_LIKE = re.compile(r"[\w.\[\], ]+")


def _names_imported(trees: Iterable[ast.Module]) -> Set[Tuple[str, str]]:
    """``(module, name)`` pairs some file takes with ``from module import name``."""
    return {
        (node.module, alias.name)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and not node.level
        for alias in node.names
    }


def _referenced_names(tree: ast.Module) -> Set[str]:
    """Names a module reads: loads and type-like strings (string
    annotations, the names its ``__all__`` re-exports)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _TYPE_LIKE.fullmatch(node.value):
                names.update(_IDENT.findall(node.value))
    return names


def unused_imports() -> List[str]:
    """Module-level imports of ``src/`` modules that nothing uses."""
    trees = {path: ast.parse(path.read_text()) for path in (*_program_files(), *_test_files())}
    sources = {
        _module_name(path): tree for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
    }
    used = _names_imported(trees.values())
    found = []
    for module, tree in sources.items():
        references = _referenced_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names if a.name != "*"]
            else:
                continue
            for name in bound:
                if name not in references and (module, name) not in used:
                    found.append(f"{module}: import {name}")
    return found


@functools.lru_cache(maxsize=None)
def findings() -> Tuple[str, ...]:
    index = _Index()
    return tuple(
        sorted(index.unused_functions() + index.unpassed_parameters() + unused_imports())
    )


def test_no_dead_code():
    current = findings()
    unexplained = [f for f in current if f not in ALLOWLIST]
    assert not unexplained, (
        "public code nothing uses, defaulted parameters nothing passes, or imports "
        "nothing uses; delete them or allowlist each with a reason:\n  " + "\n  ".join(unexplained)
    )


def test_allowlist_is_current():
    current = set(findings())
    stale = sorted(name for name in ALLOWLIST if name not in current)
    assert not stale, "allowlist entries that are no longer findings:\n  " + "\n  ".join(stale)
    assert all(reason.strip() for reason in ALLOWLIST.values())


if __name__ == "__main__":
    for finding in findings():
        print(finding)
