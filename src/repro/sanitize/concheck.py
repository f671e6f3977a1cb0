"""Static concurrency lint over the process-rank surface.

PR 8 made the distributed layer real — forked ranks, named
shared-memory segments, O_EXCL claim files, a barrier-fenced
alltoallv exchange — which is exactly the surface where the kernel
lint's rules stop helping: the bugs are no longer inside one launch,
they are *between* processes.  A leaked ``/dev/shm`` segment survives
the interpreter; a claim acquired without a paired release wedges a
job directory until a breaker notices; a ``threading.Lock`` held
across ``fork`` deadlocks the child; a barrier wait without an abort
path turns one crashed rank into N hung peers.

Five rules, all enforced purely from the AST (no imports of the
linted code), same contract as :mod:`repro.sanitize.lint`:

* **segment-lifecycle** — every shared-memory segment creation or
  attachment must reach its cleanup on every path:

  - ``create_named_shared_array(...)`` must pass ``token=`` (the
    launch-registry hook) or its name expression must be registered
    via ``register_launch_segment`` somewhere in the same module
    (the spmd pattern: all derivable names are registered before
    the fork, so the atexit sweep covers crashes);
  - ``x = create_shared_array(...)`` must sit inside a ``try`` whose
    ``finally`` unlinks (an ``.unlink()`` call or
    ``cleanup_launch_segments``), or transfer ownership (returned,
    stored on an attribute, or appended to a container an owner
    finalizes);
  - ``x = attach_shared_array(...)`` must sit inside a ``try`` whose
    ``finally`` closes (``.close()``), or be returned to the caller.

* **claim-lifecycle** — a :class:`~repro.locking.ClaimFile` acquired
  in a function must reach ``release()`` in a ``finally`` block (or a
  ``with`` statement), or be returned (ownership transfer, e.g.
  ``JobQueue.claim``).  Receivers are recognised by construction
  (``ClaimFile(...)`` / ``*.claim(...)`` assignments) and by name.

* **lock-across-fork** — no ``Process(...)`` construction,
  ``ProcessPoolExecutor(...)`` creation or ``os.fork()`` lexically
  inside a ``with <lock>:`` block.  The child inherits the held lock
  in whatever state the fork caught it; any attempt to take it in the
  child deadlocks forever.

* **rank-nondeterminism** — functions used as fork targets
  (``Process(target=...)``) or as rank functions of an
  ``spmd(n_ranks, rank_fn)`` launch, and their same-module callees,
  must not call into ``random``, ``datetime`` or ``np.random``: rank workers
  must be pure functions of their inherited arguments or
  bit-identity across rank counts is unprovable.  (``time`` is
  allowed — the ranks measure themselves.)

* **barrier-abort** — every ``barrier.wait(...)`` must carry a
  timeout, and the enclosing function must abort the barrier on its
  exception path (an ``except`` handler calling ``.abort()``).  A
  rank that dies between publish and fence must wake its peers, not
  strand them.

The lint runs clean on the shipped tree — anything it flagged during
development was fixed, not suppressed — and every rule is pinned by a
seeded-defect fixture in ``tests/sanitize/test_concheck.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sanitize.lint import LintFinding

__all__ = ["conlint_files", "conlint_paths", "CONCURRENCY_RULES"]

CONCURRENCY_RULES = (
    "segment-lifecycle",
    "claim-lifecycle",
    "lock-across-fork",
    "rank-nondeterminism",
    "barrier-abort",
)

#: modules a fork-target (rank worker) must not call into.
_NONDET_MODULES = ("random", "datetime")

#: call names that start a child process (the fork points).
_FORK_CALLS = ("Process", "ProcessPoolExecutor", "fork")


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _receiver_name(node: ast.Call) -> str | None:
    """The variable a method call is invoked on (``x`` of ``x.m()``)."""
    if isinstance(node.func, ast.Attribute) and isinstance(
        node.func.value, ast.Name
    ):
        return node.func.value.id
    return None


def _name_shape(node: ast.expr) -> str:
    """A comparable shape for a segment-name expression.

    ``_out_name(token, rank)`` and ``_out_name(token, r)`` must compare
    equal (the registration site and the creation site use different
    loop variables), so calls reduce to the callee name; plain names
    reduce to themselves; anything else to its AST dump.
    """
    if isinstance(node, ast.Call):
        return f"call:{_call_name(node)}"
    if isinstance(node, ast.Name):
        return f"name:{node.id}"
    return f"expr:{ast.dump(node)}"


def _functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _returned_names(fn: ast.AST) -> set[str]:
    """Names that appear anywhere inside a ``return`` expression."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _escaped_names(fn: ast.AST) -> set[str]:
    """Names whose ownership leaves the function: returned, stored on an
    attribute/subscript, or handed to a container method
    (``self._segments.append(arr)``)."""
    names = _returned_names(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                    if isinstance(node.value, ast.Name):
                        names.add(node.value.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("append", "add", "update", "setdefault"):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
    return names


def _finally_blocks(fn: ast.AST):
    """Yield ``(try_node, finalbody)`` pairs inside *fn*."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Try) and node.finalbody:
            yield node, node.finalbody


def _block_calls(stmts) -> set[str]:
    """All call names (plain or attribute) inside a statement list."""
    out: set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                out.add(_call_name(node))
    return out


def _covered_by_finally(fn: ast.AST, call_node: ast.Call, cleanup: set[str]) -> bool:
    """True when *call_node* sits inside a ``try`` whose ``finally``
    makes one of the *cleanup* calls (on any receiver — cleanup loops
    like ``for a in arrays: a.unlink()`` count)."""
    for try_node, finalbody in _finally_blocks(fn):
        in_body = any(
            call_node is sub
            for stmt in try_node.body
            for sub in ast.walk(stmt)
        )
        if in_body and (_block_calls(finalbody) & cleanup):
            return True
    return False


# -- rule: segment-lifecycle -------------------------------------------------


def _check_segments(path: str, tree: ast.Module, findings: list) -> None:
    registered_shapes: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _call_name(node) == "register_launch_segment"
            and len(node.args) >= 2
        ):
            registered_shapes.add(_name_shape(node.args[1]))

    for fn in _functions(tree):
        escaped = _escaped_names(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            cname = _call_name(node)
            if cname == "create_named_shared_array":
                has_token = any(
                    kw.arg == "token"
                    and not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is None
                    )
                    for kw in node.keywords
                ) or len(node.args) >= 4
                name_shape = (
                    _name_shape(node.args[0]) if node.args else "expr:?"
                )
                if not has_token and name_shape not in registered_shapes:
                    findings.append(
                        LintFinding(
                            path=path,
                            line=node.lineno,
                            rule="segment-lifecycle",
                            message=(
                                "named segment is neither token-registered "
                                "(token=...) nor covered by a "
                                "register_launch_segment call on the same "
                                "name; a crash here leaks /dev/shm"
                            ),
                        )
                    )
            elif cname == "create_shared_array":
                bound = _bound_name(fn, node)
                if bound in escaped:
                    continue
                if not _covered_by_finally(
                    fn, node, {"unlink", "cleanup_launch_segments"}
                ):
                    findings.append(
                        LintFinding(
                            path=path,
                            line=node.lineno,
                            rule="segment-lifecycle",
                            message=(
                                "anonymous shared segment is created outside "
                                "any try/finally that unlinks it; an "
                                "exception on this path leaks the segment "
                                "until process exit"
                            ),
                        )
                    )
            elif cname == "attach_shared_array":
                bound = _bound_name(fn, node)
                if bound in escaped:
                    continue
                if not _covered_by_finally(fn, node, {"close"}):
                    findings.append(
                        LintFinding(
                            path=path,
                            line=node.lineno,
                            rule="segment-lifecycle",
                            message=(
                                "segment attachment is never closed on the "
                                "exception path; wrap the use in try/finally "
                                "with .close() (mappings otherwise live "
                                "until GC)"
                            ),
                        )
                    )


def _bound_name(fn: ast.AST, call_node: ast.Call) -> str | None:
    """The simple name *call_node*'s result is assigned to, if any."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and node.value is call_node:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    return tgt.id
    return None


# -- rule: claim-lifecycle ---------------------------------------------------


def _claim_vars(fn: ast.AST) -> set[str]:
    """Variables holding a claim: assigned from ``ClaimFile(...)`` or a
    ``*.claim(...)`` call, plus anything whose name says so."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cname = _call_name(node.value)
            if cname in ("ClaimFile", "claim"):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        out.add(tgt.id)
    return out


def _check_claims(path: str, tree: ast.Module, findings: list) -> None:
    for fn in _functions(tree):
        if fn.name == "__enter__":
            continue  # the context-manager protocol is the pairing
        claims = _claim_vars(fn)
        if not claims:
            continue
        returned = _returned_names(fn)
        # receivers with a release() inside some finally block
        released: set[str] = set()
        for _try, finalbody in _finally_blocks(fn):
            for stmt in finalbody:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and _call_name(node) == "release"
                    ):
                        recv = _receiver_name(node)
                        if recv:
                            released.add(recv)
        # `with ClaimFile(...)` / `with claim:` pairs itself
        with_managed: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.With):
                for item in node.items:
                    ce = item.context_expr
                    if isinstance(ce, ast.Name):
                        with_managed.add(ce.id)
                    elif isinstance(ce, ast.Call) and _call_name(ce) in (
                        "ClaimFile",
                        "claim",
                    ):
                        if item.optional_vars is not None and isinstance(
                            item.optional_vars, ast.Name
                        ):
                            with_managed.add(item.optional_vars.id)
                        with_managed.add("<anonymous-with>")
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call) and _call_name(node) == "acquire"
            ):
                continue
            recv = _receiver_name(node)
            if recv is None or recv == "self" or recv not in claims:
                continue
            if recv in returned or recv in released or recv in with_managed:
                continue
            findings.append(
                LintFinding(
                    path=path,
                    line=node.lineno,
                    rule="claim-lifecycle",
                    message=(
                        f"claim {recv!r} is acquired but never released in "
                        f"a finally block (nor returned); a crash on this "
                        f"path wedges the store until a breaker notices"
                    ),
                )
            )
        # claims handed out by `x = queue.claim(...)` must release too
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            if _call_name(node.value) != "claim":
                continue
            for tgt in node.targets:
                if not isinstance(tgt, ast.Name):
                    continue
                recv = tgt.id
                if recv in returned or recv in released or recv in with_managed:
                    continue
                findings.append(
                    LintFinding(
                        path=path,
                        line=node.lineno,
                        rule="claim-lifecycle",
                        message=(
                            f"claim {recv!r} taken via .claim(...) has no "
                            f"release() in a finally block (nor is it "
                            f"returned)"
                        ),
                    )
                )


# -- rule: lock-across-fork --------------------------------------------------


def _is_lockish(expr: ast.expr) -> bool:
    """A with-context that smells like a mutex (``self._lock``,
    ``_LAUNCH_LOCK``, ``lock`` ...)."""
    if isinstance(expr, ast.Attribute):
        return "lock" in expr.attr.lower()
    if isinstance(expr, ast.Name):
        return "lock" in expr.id.lower()
    if isinstance(expr, ast.Call):
        return any(_is_lockish(a) for a in [expr.func] if a is not None)
    return False


def _check_lock_fork(path: str, tree: ast.Module, findings: list) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        if not any(_is_lockish(item.context_expr) for item in node.items):
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and _call_name(sub) in _FORK_CALLS:
                    findings.append(
                        LintFinding(
                            path=path,
                            line=sub.lineno,
                            rule="lock-across-fork",
                            message=(
                                f"{_call_name(sub)}() forks while a lock is "
                                f"held; the child inherits the held lock and "
                                f"deadlocks on first acquire"
                            ),
                        )
                    )


# -- rule: rank-nondeterminism -----------------------------------------------


def _fork_targets(tree: ast.Module) -> set[str]:
    """Function names passed as ``target=`` of a Process-like call, or
    as the rank function of an ``spmd(n_ranks, rank_fn, ...)`` launch."""
    targets: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) == "spmd" and len(node.args) >= 2:
            if isinstance(node.args[1], ast.Name):
                targets.add(node.args[1].id)
            continue
        if _call_name(node) not in ("Process", "Thread"):
            continue
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Name):
                targets.add(kw.value.id)
    return targets


def _check_rank_determinism(path: str, tree: ast.Module, findings: list) -> None:
    targets = _fork_targets(tree)
    if not targets:
        return
    fns = {fn.name: fn for fn in _functions(tree)}
    # same-module transitive closure over plain-name calls
    seen: set[str] = set()
    stack = [t for t in targets if t in fns]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(fns[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in fns and node.func.id not in seen:
                    stack.append(node.func.id)
    for name in sorted(seen):
        for node in ast.walk(fns[name]):
            if not isinstance(node, ast.Call):
                continue
            root = node.func
            chain: list[str] = []
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if not isinstance(root, ast.Name):
                continue
            banned = None
            if root.id in _NONDET_MODULES:
                banned = root.id
            elif root.id in ("np", "numpy") and "random" in chain:
                banned = "np.random"
            if banned is not None:
                findings.append(
                    LintFinding(
                        path=path,
                        line=node.lineno,
                        rule="rank-nondeterminism",
                        message=(
                            f"fork target {name}() calls into {banned}; "
                            f"rank workers must be deterministic functions "
                            f"of their inherited arguments"
                        ),
                    )
                )


# -- rule: barrier-abort -----------------------------------------------------


def _check_barriers(path: str, tree: ast.Module, findings: list) -> None:
    for fn in _functions(tree):
        waits = []
        aborted: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            recv = _receiver_name(node)
            if recv is None or "barrier" not in recv.lower():
                continue
            if _call_name(node) == "wait":
                waits.append((recv, node))
        if not waits:
            continue
        # abort() calls inside exception handlers of this function
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and _call_name(sub) == "abort"
                    ):
                        recv = _receiver_name(sub)
                        if recv:
                            aborted.add(recv)
        for recv, node in waits:
            has_timeout = bool(node.args) or any(
                kw.arg == "timeout" for kw in node.keywords
            )
            if not has_timeout:
                findings.append(
                    LintFinding(
                        path=path,
                        line=node.lineno,
                        rule="barrier-abort",
                        message=(
                            f"{recv}.wait() has no timeout; a lost peer "
                            f"hangs this process forever"
                        ),
                    )
                )
            if recv not in aborted:
                findings.append(
                    LintFinding(
                        path=path,
                        line=node.lineno,
                        rule="barrier-abort",
                        message=(
                            f"{recv}.wait() has no matching abort path: no "
                            f"except handler in this function calls "
                            f"{recv}.abort(), so a crash before the fence "
                            f"strands every peer"
                        ),
                    )
                )


# -- entry points ------------------------------------------------------------


def conlint_files(files: list[Path]) -> list[LintFinding]:
    """Run the concurrency rules over an explicit set of Python files."""
    findings: list[LintFinding] = []
    for f in files:
        path = Path(f)
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except (SyntaxError, OSError):
            continue
        spath = str(path)
        _check_segments(spath, tree, findings)
        _check_claims(spath, tree, findings)
        _check_lock_fork(spath, tree, findings)
        _check_rank_determinism(spath, tree, findings)
        _check_barriers(spath, tree, findings)
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def conlint_paths(paths: list[Path | str]) -> list[LintFinding]:
    """Concurrency-lint every ``.py`` file under *paths*."""
    from repro.sanitize.lint import collect_py_files

    return conlint_files(collect_py_files(paths))
