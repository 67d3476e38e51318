"""Every defaulted parameter of a package function is passed by some call.

A default that no call overrides is a settable value that nobody sets:
the parameter, and whatever reads it, are dead weight, and it fails here.
No linter ships with the project, so this reads syntax trees: the
functions and methods of each package module (dunders aside), and the
calls in ``src/``, ``tests/`` and ``perfbench/``.  Calls are matched by
the callee's name alone, a plain name or the attribute of a method call,
and a parameter counts as passed when such a call names it as a keyword,
reaches its position, or unpacks ``*`` or ``**`` arguments that could
carry it.
"""
import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mosco_graphs"
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = ("src", "tests", "perfbench")


def defaulted_parameters(tree: ast.Module):
    """(function name, [(parameter, position or None)]) per function with defaults.

    The position counts the arguments a call writes, so a method's
    ``self`` or ``cls`` is not one; keyword-only parameters have none.
    """
    bound = {
        id(item)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in bound else 0
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if params:
            yield node.name, params


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may set the parameter ``name`` at ``position``."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if position is None:
        return False
    reach = call.args[: position + 1]
    return len(reach) > position or any(isinstance(a, ast.Starred) for a in reach)


def calls_by_callee(sources) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return calls


def dead_parameters(module: str, calls: dict[str, list[ast.Call]]) -> list[str]:
    """``"function: param, ..."`` for each function whose defaults no call overrides."""
    found = []
    for function, params in defaulted_parameters(ast.parse(module)):
        dead = [
            name for name, position in params
            if not any(passes(call, name, position) for call in calls.get(function, []))
        ]
        if dead:
            found.append(f"{function}: {', '.join(dead)}")
    return found


@cache
def repository_calls() -> dict[str, list[ast.Call]]:
    return calls_by_callee(p.read_text() for part in CALLERS for p in (ROOT / part).rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_defaulted_parameter_is_passed(path):
    assert dead_parameters(path.read_text(), repository_calls()) == []


def test_the_check_sees_a_parameter_no_call_passes():
    module = (
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(a=1): pass\n"
        "class K:\n"
        "    def m(self, a=1, b=2): pass\n"
        "    @staticmethod\n"
        "    def s(a=1, b=2): pass\n"
        "    def __init__(self, a=1): pass\n"
    )
    callers = [
        "f(0, c=5)\n"       # b unset by position, d by keyword
        "g(*rest)\n"        # a starred argument may reach every position
        "obj.h(**opts)\n"   # and a double star every keyword
        "k.m(0)\n"          # self is not an argument: position 0 is a
        "K.s(0)\n",         # a static method has no self
    ]
    assert dead_parameters(module, calls_by_callee(callers)) == ["f: b, d", "m: b", "s: b"]
