"""Every public function, method and property of the screenforge modules is
entered by some golden command, so ``src/`` holds only what a command runs.

The golden command list of ``test_golden.py`` runs in-process through
``cli.main`` under ``sys.setprofile``, which records the code object of every
Python frame entered. A public name that no command enters is either code
only tests call, to delete with its tests moved to the code it wraps or to
``oracles.py``, or a gap in the golden set, to close with a golden command.
Dunders are exempt.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys

from screenforge import (
    chem_graph,
    cli,
    descriptors,
    fingerprints,
    pdenet,
    pharmacophore,
    screenctl,
    simcluster,
)
from test_golden import COMMANDS, write_inputs

MODULES = (chem_graph, cli, descriptors, fingerprints, pdenet, pharmacophore, screenctl,
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
