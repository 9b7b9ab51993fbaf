"""Every public function, method and property of the screenforge modules is
entered by some golden command, so ``src/`` holds only what a command runs;
and every exception class defined there is one some code tells apart.

The golden command list of ``test_golden.py`` runs in-process through
``cli.main`` under ``sys.setprofile``, which records the code object of every
Python frame entered. A public name that no command enters is either code
only tests call, to delete with its tests moved to the code it wraps or to
``oracles.py``, or a gap in the golden set, to close with a golden command.
Dunders are exempt.

An exception class earns its name only if an ``except`` clause in ``src/``
names it, or if it belongs to the parser's documented ``SmilesError``
family; any other failure is raised as the built-in it derives from, with
its message. Only the field readers of ``fields.py`` catch the errors a
malformed input field raises in Python itself.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import inspect
import io
import sys
from pathlib import Path

from screenforge import (
    chem_graph,
    cli,
    descriptors,
    fields,
    fingerprints,
    pdenet,
    pharmacophore,
    screenctl,
    simcluster,
)
from test_golden import COMMANDS, write_inputs

MODULES = (chem_graph, cli, descriptors, fields, fingerprints, pdenet, pharmacophore, screenctl,
           simcluster)


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def public_code(module) -> dict[str, object]:
    """``{"module.name": code}`` for each public function defined in
    ``module`` (through any ``lru_cache``) and each public method or
    property of a class defined there."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(value):
            if value.__module__ != module.__name__:
                continue
            for attr, member in vars(value).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    out[f"{_short(module)}.{value.__name__}.{attr}"] = member.__code__
        elif callable(value):
            func = inspect.unwrap(value)
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                out[f"{_short(module)}.{name}"] = func.__code__
    return out


def test_every_public_entry_point_is_entered_by_a_golden_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SCREENFORGE_SEED", raising=False)
    write_inputs(tmp_path)
    for module in MODULES:  # a cached loader is entered only on a miss
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _name, argv, _files, _group in COMMANDS:
                cli.main(argv)
    finally:
        sys.setprofile(previous)

    never = sorted(
        name
        for module in MODULES
        for name, code in public_code(module).items()
        if code not in entered
    )
    assert not never, f"public names no golden command enters: {', '.join(never)}"


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else t.id for t in types if t is not None}


def test_every_exception_class_is_caught_by_name_or_a_smiles_error():
    trees = [ast.parse(path.read_text("utf-8")) for path in
             sorted(Path(chem_graph.__file__).parent.glob("*.py"))]
    bases = {
        node.name: [b.attr if isinstance(b, ast.Attribute) else b.id for b in node.bases]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def derives(name: str, root: type | str) -> bool:
        if name == root:
            return True
        if name in bases:
            return any(derives(base, root) for base in bases[name])
        builtin = getattr(builtins, name, None)
        return isinstance(root, type) and isinstance(builtin, type) and issubclass(builtin, root)

    caught = {
        name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        for name in _caught_names(node)
    }
    exceptions = [name for name in bases if derives(name, BaseException)]
    assert "SmilesError" in exceptions and "InputError" in exceptions
    uncaught = sorted(
        name for name in exceptions if name not in caught and not derives(name, "SmilesError")
    )
    assert not uncaught, f"exception classes no except clause names: {', '.join(uncaught)}"


def test_only_the_readers_catch_malformed_field_errors():
    """A loader reads every field through ``fields``; none catches the
    KeyError, TypeError, OverflowError or RecursionError of a bad field."""
    src = Path(chem_graph.__file__).parent
    caught = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py")
        if path.name != "fields.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and _caught_names(node) & {"KeyError", "TypeError", "OverflowError", "RecursionError"}
    )
    assert not caught, f"except clauses outside fields.py: {', '.join(caught)}"
