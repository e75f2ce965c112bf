"""Owned-handle rule for ``np.load``.

``np.load(path)`` opens the file itself and hands the descriptor to the
``NpzFile`` it builds.  When the zip directory is corrupt, the
``NpzFile`` constructor raises before anything owns the descriptor, so
it stays open until garbage collection — an unclosed-file
``ResourceWarning``, and an fd leak in a long-running server.  The bug
shipped three times (``EmulatorArtifact.load``, ``ChunkStore.get`` and
``iter_chunk_arrays``), and every fix was the same: open the file first
and pass the handle, so the caller's ``with`` closes it on every path.

In ``src/repro`` the rule flags every ``np.load(...)`` /
``numpy.load(...)`` whose file argument is not a handle the calling
function owns: a name bound in the same function to an ``open(...)`` /
``<path>.open(...)`` / ``BytesIO(...)`` result, by ``with ... as name``
or by assignment.  An inline ``BytesIO(...)`` is accepted too (it holds
no descriptor); an inline ``open(...)`` is not, since nothing closes it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.reprolint.model import Finding, ModuleUnit
from tools.reprolint.rulebase import LINT_RULES, ProjectContext, Rule, dotted_name

__all__ = ["OwnedNpLoadRule"]

_LOADERS = {"np.load", "numpy.load"}
_OPENERS = {"open", "BytesIO"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_call_to(node: ast.AST, names: "set[str]") -> bool:
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func).split(".")[-1] in names
    )


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope``, not descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _owned_handles(nodes: "list[ast.AST]") -> "set[str]":
    """Names bound to a file or buffer opened in the same scope."""
    owned: set[str] = set()
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name) and _is_call_to(
                    item.context_expr, _OPENERS
                ):
                    owned.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign) and _is_call_to(node.value, _OPENERS):
            owned.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return owned


def _file_argument(call: ast.Call) -> "ast.AST | None":
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "file":
            return keyword.value
    return None


@LINT_RULES.register(
    "owned-npload",
    description=(
        "np.load must read a file handle its caller opened: np.load(path) "
        "leaks the descriptor when the zip directory is corrupt"
    ),
)
class OwnedNpLoadRule(Rule):
    id = "owned-npload"
    hint = (
        'open the file first — `with open(path, "rb") as handle, '
        "np.load(handle) as payload:` — so the handle closes on every path"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check_module(
        self, unit: ModuleUnit, ctx: ProjectContext
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        scopes = [unit.tree] + [
            node for node in ast.walk(unit.tree) if isinstance(node, _SCOPES)
        ]
        for scope in scopes:
            nodes = list(_scope_nodes(scope))
            owned = _owned_handles(nodes)
            for node in nodes:
                if not (
                    isinstance(node, ast.Call)
                    and dotted_name(node.func) in _LOADERS
                ):
                    continue
                arg = _file_argument(node)
                if isinstance(arg, ast.Name) and arg.id in owned:
                    continue
                if _is_call_to(arg, {"BytesIO"}):
                    continue
                findings.append(
                    unit.finding(
                        self.id, node,
                        "np.load is given something other than a file "
                        "handle this function opened, so a corrupt archive "
                        f"can leak its descriptor; {self.hint}",
                    )
                )
        return findings
