"""Every statement in a function body of the screenforge modules is run by
some golden command, so ``src/`` holds only code that a command runs; and
every exception class defined there is one some code tells apart.

The golden command list of ``test_golden.py`` runs in-process through
``cli.main`` under ``sys.settrace``, which records every line run in a frame
of ``src/``. A statement is keyed by its span in the AST, first line to end
line, and counts as run when any line of its span is, so it does not matter
which of its lines an interpreter version reports.
The span of a compound statement covers its body, none of which runs unless
its header does; a ``try`` header runs no code and has no span of its own.
A statement that no command runs is either code only tests reach, to
delete, or a gap in the golden set, to close with a golden command. A
function never entered leaves every statement in it unrun. ``raise``
statements are exempt, and so are the functions in ``EXEMPT``, which some
statement no well-formed input reaches; each names the tier-1 test that
runs it, and an entry whose function has nothing unrun fails.

To print the report of unrun statements without pytest::

    PYTHONPATH=src python tests/test_entry_points.py

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
import io
import os
import sys
import tempfile
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
from test_golden import COMMANDS, ROOT, command_env, write_inputs

MODULES = (chem_graph, cli, descriptors, fields, fingerprints, pdenet, pharmacophore, screenctl,
           simcluster)

# "module.qualname": (why no well-formed input runs some statement of that
# function, the tier-1 test that runs it).
EXEMPT = {
    "fingerprints._new_env_id": (
        "the memo is cleared at 65,536 ids, more distinct environments than any golden input has",
        "tests/test_fingerprints.py::TestEnvironmentMemo::test_corpus_and_generated"),
    "pdenet.molecules": (
        "a row's canonical SMILES, written by ingest, always re-parses",
        "tests/test_cli.py::TestUnparseableRecord::test_skipped_with_one_warning"),
    "pharmacophore.screen_by_fit": (
        "fit_value raises no ValueError on a molecule the parser builds",
        "tests/test_pharmacophore.py::TestScreenByFit::"
        "test_value_errors_skipped_other_errors_propagate"),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _spans(body: list[ast.stmt], qualname: str, out: dict[str, list[tuple[int, int]]]) -> None:
    """Add to ``out[qualname]`` the line span of each statement in ``body``
    that must run, and to ``out`` the functions defined there."""
    for stmt in body:
        if isinstance(stmt, _FUNCTIONS):
            _function(stmt, f"{qualname}.<locals>.{stmt.name}", out)
            continue
        if isinstance(stmt, ast.ClassDef):
            _class(stmt, f"{qualname}.<locals>.{stmt.name}", out)
            continue
        if isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal)):
            continue  # exempt, or no code to run
        if not isinstance(stmt, ast.Try):
            out.setdefault(qualname, []).append((stmt.lineno, stmt.end_lineno))
        children = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
        for child in children + [handler.body for handler in getattr(stmt, "handlers", [])]:
            _spans(child, qualname, out)


def _function(node, qualname: str, out) -> None:
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # a docstring runs no code
    out.setdefault(qualname, [])
    _spans(body, qualname, out)


def _class(node: ast.ClassDef, qualname: str, out) -> None:
    for stmt in node.body:
        if isinstance(stmt, _FUNCTIONS):
            _function(stmt, f"{qualname}.{stmt.name}", out)
        elif isinstance(stmt, ast.ClassDef):
            _class(stmt, f"{qualname}.{stmt.name}", out)


def statement_spans(module) -> dict[str, list[tuple[int, int]]]:
    """``{"module.qualname": [(first line, last line)]}`` for the
    statements of every function and method defined in ``module``."""
    short = module.__name__.rpartition(".")[2]
    out: dict[str, list[tuple[int, int]]] = {}
    for node in ast.parse(Path(module.__file__).read_text("utf-8")).body:
        if isinstance(node, _FUNCTIONS):
            _function(node, f"{short}.{node.name}", out)
        elif isinstance(node, ast.ClassDef):
            _class(node, f"{short}.{node.name}", out)
    return out


def run_golden_traced(work: Path) -> set[tuple[str, int]]:
    """Run every golden command in-process in ``work`` (the current
    directory) and return the ``(file, line)`` of each line run in ``src/``."""
    write_inputs(work)
    for module in MODULES:  # a cached loader runs its body only on a miss
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    files = {module.__file__ for module in MODULES}
    run: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    saved = dict(os.environ)
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command in COMMANDS:
                os.environ.clear()
                os.environ.update(command_env(command))
                with contextlib.suppress(SystemExit):  # argparse exits on a usage error
                    cli.main(command.argv)
    finally:
        sys.settrace(previous)
        os.environ.clear()
        os.environ.update(saved)
    return run


def unrun_report(run: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """``(unrun, stale)``: each statement outside ``EXEMPT`` that no line of
    ``run`` falls in, as ``file:line: source``, and each ``EXEMPT`` entry
    whose function has no unrun statement."""
    unrun, exempt_used = [], set()
    for module in MODULES:
        path = Path(module.__file__)
        lines = path.read_text("utf-8").splitlines()
        for qualname, spans in statement_spans(module).items():
            for first, last in spans:
                if any((module.__file__, n) in run for n in range(first, last + 1)):
                    continue
                if qualname in EXEMPT:
                    exempt_used.add(qualname)
                    continue
                where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                unrun.append(f"{where}:{first}: {lines[first - 1].strip()}")
    return unrun, sorted(EXEMPT.keys() - exempt_used)


def _defines(node_id: str) -> bool:
    """Whether the test file of a pytest node id defines its class and test."""
    path, *names = node_id.split("::")
    scope = ast.parse((ROOT / path).read_text("utf-8")).body
    for name in names:
        node = next((n for n in scope if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_each_exemption_gives_a_reason_and_a_test():
    assert len(EXEMPT) <= 6
    for qualname, (reason, test) in EXEMPT.items():
        assert reason and _defines(test), qualname


def test_every_statement_is_run_by_a_golden_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    unrun, stale = unrun_report(run_golden_traced(tmp_path))
    assert not unrun, "statements no golden command runs:\n" + "\n".join(unrun)
    assert not stale, f"exemptions of functions with nothing unrun: {', '.join(stale)}"


def test_records_are_parsed_again_only_in_molecules():
    """Outside the parser, ``src/`` calls ``parse_smiles`` in two functions:
    ``ingest``, on a row's raw text, and ``pdenet.molecules``, on a record's
    canonical SMILES, which every other reader of molecules takes them from."""
    callers = []

    def visit(node, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                visit(child, f"{qualname}.{child.name}")
                continue
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "parse_smiles":
                callers.append(qualname)
            visit(child, qualname)

    for module in MODULES:
        if module is not chem_graph:
            tree = ast.parse(Path(module.__file__).read_text("utf-8"))
            visit(tree, module.__name__.rpartition(".")[2])
    assert sorted(callers) == ["pdenet.molecules", "screenctl.ingest"]


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        unrun, stale = unrun_report(run_golden_traced(Path(tmp)))
        os.chdir(ROOT)
    print("\n".join(unrun))
    print(f"{len(unrun)} statements no golden command runs")
    for name in stale:
        print(f"stale exemption: {name}")
    sys.exit(1 if unrun or stale else 0)
