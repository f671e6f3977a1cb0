"""Static kernel-hygiene lint over the simulated-kernel source tree.

Three rules, all enforced purely from the AST (no imports of the linted
code):

* **twin-parity** — every ``register_batched(seq_fn, batched_fn)`` pair
  must agree on its launch-argument tail (the args after ``(warp,
  warp_id)`` / ``(n_warps, sector_bytes)``) and on the *counter classes*
  it touches: the set of instruction counters reachable from the
  sequential kernel through :class:`~repro.gpusim.warp.Warp` methods must
  equal the set the batched twin touches through
  :class:`~repro.gpusim.batched.WarpBatch` methods (fused-op kwargs like
  ``fuse_shfl_sync`` included).  A twin that forgets a counter class is
  exactly the kind of drift the bit-identity tests catch late and
  expensively; the lint catches it before anything runs.
* **banned-call** — kernel bodies (functions whose first parameter is
  ``warp`` or ``wb``, registered kernels, and everything reachable from
  them) must not call into ``time``, ``random``, ``datetime`` or
  ``np.random``: simulated kernels must be pure functions of their launch
  arguments, or engine bit-identity and test reproducibility break.
* **atomic-discard** — an ``atomic_*`` call whose result is silently
  dropped (a bare expression statement) must be written ``_ = ...``: the
  old value is the whole point of an atomic, and the §3.3 choreography
  bugs hide in accidentally-ignored CAS results.

The call graph is resolved across the linted files: plain-name calls and
function names passed as arguments (``build_fn=build_table_v2``) both
count as edges, so helper layers and kernel-twin indirection are covered.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "LintFinding",
    "lint_paths",
    "lint_files",
    "collect_py_files",
    "findings_report",
]

#: Warp method -> counter classes it bumps (sequential interpreter).
_SEQ_COUNTERS = {
    "int_op": frozenset({"int"}),
    "fp_op": frozenset({"fp"}),
    "control_op": frozenset({"control"}),
    "global_load": frozenset({"global_ld"}),
    "global_load_span": frozenset({"global_ld"}),
    "global_gather_span": frozenset({"global_ld"}),
    "global_store": frozenset({"global_st"}),
    "global_store_span": frozenset({"global_st"}),
    "account_bulk_store": frozenset({"global_st"}),
    "local_load": frozenset({"local_ld"}),
    "local_store": frozenset({"local_st"}),
    "atomic_cas": frozenset({"atomic"}),
    "atomic_add": frozenset({"atomic"}),
    "atomic_max": frozenset({"atomic"}),
    "shfl": frozenset({"shuffle"}),
    "ballot": frozenset({"shuffle"}),
    "match_any": frozenset({"shuffle"}),
    "sync": frozenset({"sync"}),
}

#: WarpBatch method -> counter classes (batched SoA engine).
_BATCHED_COUNTERS = {
    "int_op": frozenset({"int"}),
    "control_op": frozenset({"control"}),
    "shuffle_op": frozenset({"shuffle"}),
    "sync_op": frozenset({"sync"}),
    "load_span": frozenset({"global_ld"}),
    "load_lanes": frozenset({"global_ld"}),
    "gather_span_lanes": frozenset({"global_ld"}),
    "load_lane0": frozenset({"global_ld"}),
    "gather_span_lane0": frozenset({"global_ld"}),
    "store_span": frozenset({"global_st"}),
    "store_lane0": frozenset({"global_st"}),
    "atomic_cas_lanes": frozenset({"atomic"}),
    "atomic_add_lanes": frozenset({"atomic"}),
    "atomic_cas_lane0": frozenset({"atomic"}),
}

#: fused-op kwargs fold extra instruction classes into a batched call.
_FUSE_COUNTERS = {
    "fuse_int": frozenset({"int"}),
    "fuse_control": frozenset({"control"}),
    "fuse_shfl_sync": frozenset({"shuffle", "sync"}),
    "fuse_local_store": frozenset({"local_st"}),
}

_BANNED_MODULES = ("time", "random", "datetime")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation, locatable in the source tree."""

    path: str
    line: int
    rule: str  # "twin-parity" | "banned-call" | "atomic-discard"
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class _Module:
    path: Path
    tree: ast.Module
    #: top-level function defs by name
    functions: dict
    #: names bound by ``from X import name`` -> root module of X
    from_imports: dict


def _parse(path: Path) -> _Module | None:
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return None
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    from_imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            for alias in node.names:
                from_imports[alias.asname or alias.name] = root
        elif isinstance(node, ast.Import):
            for alias in node.names:
                from_imports[alias.asname or alias.name] = alias.name.split(".")[0]
    return _Module(path=path, tree=tree, functions=functions, from_imports=from_imports)


def _attr_root(node: ast.expr) -> tuple[str | None, list[str]]:
    """Root name and attribute chain of e.g. ``np.random.default_rng``."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, list(reversed(chain))
    return None, list(reversed(chain))


def _is_falsy_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and not node.value


def _called_names(fn: ast.AST) -> set[str]:
    """Function names referenced by *fn*: direct calls and names passed as
    arguments (``build_fn=build_table_v2`` indirection)."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name):
                    names.add(kw.value.id)
    return names


def _reachable(roots: set[str], global_fns: dict) -> set[str]:
    """Transitive closure of *roots* over the cross-file call graph."""
    seen: set[str] = set()
    stack = [r for r in roots if r in global_fns]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        _, fn = global_fns[name]
        for callee in _called_names(fn):
            if callee in global_fns and callee not in seen:
                stack.append(callee)
    return seen


def _counter_classes(fn: ast.AST, method_map: dict) -> set[str]:
    """Counter classes touched directly by *fn* through warp-API methods."""
    classes: set[str] = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        touched = method_map.get(node.func.attr)
        if touched is None:
            continue
        classes |= touched
        for kw in node.keywords:
            fused = _FUSE_COUNTERS.get(kw.arg or "")
            if fused is not None and not _is_falsy_constant(kw.value):
                classes |= fused
    return classes


def _closure_counters(root: str, global_fns: dict, method_map: dict) -> set[str]:
    classes: set[str] = set()
    for name in _reachable({root}, global_fns):
        _, fn = global_fns[name]
        classes |= _counter_classes(fn, method_map)
    return classes


def _check_atomic_discard(mod: _Module, findings: list) -> None:
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Expr):
            continue
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr.startswith("atomic_")
        ):
            findings.append(
                LintFinding(
                    path=str(mod.path),
                    line=node.lineno,
                    rule="atomic-discard",
                    message=(
                        f"result of {call.func.attr}() is silently dropped; "
                        f"write `_ = ...{call.func.attr}(...)` to discard "
                        f"explicitly"
                    ),
                )
            )


def _check_banned_calls(
    kernel_fn_names: set[str], global_fns: dict, findings: list
) -> None:
    for name in kernel_fn_names:
        path, fn = global_fns[name]
        mod_imports = _MOD_IMPORTS.get(path, {})
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            root, chain = _attr_root(node.func)
            if root is None:
                continue
            banned = None
            if root in _BANNED_MODULES:
                banned = root
            elif mod_imports.get(root) in _BANNED_MODULES:
                banned = mod_imports[root]
            elif root in ("np", "numpy") and "random" in chain:
                banned = "np.random"
            if banned is not None:
                findings.append(
                    LintFinding(
                        path=path,
                        line=node.lineno,
                        rule="banned-call",
                        message=(
                            f"kernel function {name}() calls into {banned}; "
                            f"kernels must be pure functions of their launch "
                            f"arguments"
                        ),
                    )
                )


#: path -> from-import map, filled per lint run (used by banned-call).
_MOD_IMPORTS: dict = {}


def _check_twins(mods: list, global_fns: dict, findings: list) -> None:
    for mod in mods:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)):
                continue
            fname = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr
                if isinstance(node.func, ast.Attribute)
                else ""
            )
            if fname != "register_batched" or len(node.args) != 2:
                continue
            if not all(isinstance(a, ast.Name) for a in node.args):
                continue
            seq_name, bat_name = node.args[0].id, node.args[1].id
            if seq_name not in global_fns or bat_name not in global_fns:
                continue
            _, seq_fn = global_fns[seq_name]
            _, bat_fn = global_fns[bat_name]
            seq_tail = [a.arg for a in seq_fn.args.args[2:]]
            bat_tail = [a.arg for a in bat_fn.args.args[2:]]
            if seq_tail != bat_tail:
                findings.append(
                    LintFinding(
                        path=str(mod.path),
                        line=node.lineno,
                        rule="twin-parity",
                        message=(
                            f"kernel twins {seq_name}/{bat_name} disagree on "
                            f"launch arguments: {seq_tail} vs {bat_tail}"
                        ),
                    )
                )
            seq_classes = _closure_counters(seq_name, global_fns, _SEQ_COUNTERS)
            bat_classes = _closure_counters(bat_name, global_fns, _BATCHED_COUNTERS)
            if seq_classes != bat_classes:
                only_seq = sorted(seq_classes - bat_classes)
                only_bat = sorted(bat_classes - seq_classes)
                findings.append(
                    LintFinding(
                        path=str(mod.path),
                        line=node.lineno,
                        rule="twin-parity",
                        message=(
                            f"kernel twins {seq_name}/{bat_name} touch "
                            f"different counter classes: sequential-only="
                            f"{only_seq}, batched-only={only_bat}"
                        ),
                    )
                )


def lint_files(files: list[Path]) -> list[LintFinding]:
    """Lint an explicit set of Python files; returns all findings."""
    mods = [m for m in (_parse(Path(f)) for f in files) if m is not None]
    global_fns: dict = {}
    _MOD_IMPORTS.clear()
    for mod in mods:
        _MOD_IMPORTS[str(mod.path)] = mod.from_imports
        for name, fn in mod.functions.items():
            global_fns[name] = (str(mod.path), fn)

    findings: list[LintFinding] = []
    for mod in mods:
        _check_atomic_discard(mod, findings)

    # kernel roots: warp/wb-first functions + every registered twin side
    roots = {
        name
        for name, (_, fn) in global_fns.items()
        if fn.args.args and fn.args.args[0].arg in ("warp", "wb")
    }
    for mod in mods:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
                and (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr
                )
                == "register_batched"
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        roots.add(arg.id)
    kernel_fns = _reachable(roots, global_fns)
    _check_banned_calls(kernel_fns, global_fns, findings)
    _check_twins(mods, global_fns, findings)
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def collect_py_files(paths: list[Path | str]) -> list[Path]:
    """Every ``.py`` file under *paths* (files or directories), sorted."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(paths: list[Path | str]) -> list[LintFinding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    return lint_files(collect_py_files(paths))


def findings_report(findings, mode: str, n_checked: int):
    """Package lint findings in the sanitizer-report JSON schema.

    CI archives every checker's output through one schema
    (:class:`~repro.sanitize.report.SanitizerReport`); for static
    findings ``kernel`` carries the file path, ``warp`` the line number,
    and ``kind`` the rule name.  ``n_checked`` is the file count.
    """
    from repro.sanitize.report import SanitizerError, SanitizerReport

    report = SanitizerReport(mode=mode, n_checked=n_checked)
    for f in findings:
        report.errors.append(
            SanitizerError(
                checker=mode,
                kind=f.rule,
                kernel=f.path,
                bin="",
                warp=f.line,
                lane=-1,
                address=0,
                message=f.message,
                details={"path": f.path, "line": f.line, "rule": f.rule},
            )
        )
    return report
