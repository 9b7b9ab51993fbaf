"""Checked readers for every field of every input file: model and hypothesis
JSON, the constants tables, SMILES lines and the numeric cells of a library
CSV. Each returns the field's value or raises ValueError naming the field,
in JSON by its path such as ``features[1].weight``."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np

# float()'s own grammar in ASCII, without "_" digit separators
_DECIMAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE
)


def _show(value) -> str:
    text = repr(value)  # cut short, so a 401-digit integer stays on one line
    return text if len(text) <= 40 else text[:37] + "..."


def text_lines(text: str):
    """``(line number, line)`` for each stripped line of a text file that is
    neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if (line := line.strip()) and not line.startswith("#"):
            yield lineno, line


def decimal(text: str, name: str, finite: bool = True) -> float:
    """The number a text cell spells in ASCII; with ``finite`` false, also
    a spelled-out inf or nan, for the caller to judge."""
    if _DECIMAL.fullmatch(text) and (math.isfinite(number := float(text)) or not finite):
        return number
    raise ValueError(f"{name} = {_show(text)} is not a finite decimal number")


def json_document(path: str, kind: str, version: int) -> Field:
    """The JSON object in the file at ``path`` (a leading BOM is skipped),
    whose ``format_version`` must be the integer ``version``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            doc = json.load(handle)
    except RecursionError:
        raise ValueError(f"{kind} file nests deeper than the JSON reader allows") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file is not a JSON object")
    if not (type(found := doc.get("format_version")) is int and found == version):
        raise ValueError(f"unsupported {kind} format_version {_show(found)}")
    return Field(doc)


class Field:
    """A value in a JSON document, with its path there."""

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def _bad(self, problem: str) -> ValueError:
        return ValueError(f"bad field {self.path}: {problem}")

    def _require(self, ok: bool, what: str):
        if not ok:
            raise self._bad(f"{_show(self.value)} is not {what}")
        return self.value

    def object(self) -> dict:
        return self._require(isinstance(self.value, dict), "a JSON object")

    def __getitem__(self, key: str) -> Field:
        if key not in self.object():
            raise ValueError(f"missing field {key!r}" + (f" in {self.path}" if self.path else ""))
        return Field(self.value[key], f"{self.path}.{key}" if self.path else key)

    def get(self, key: str) -> Field | None:
        """The field at ``key``, or None when it is absent or null."""
        return None if self.object().get(key) is None else self[key]

    def __iter__(self):
        self._require(isinstance(self.value, list), "a list")
        return (Field(v, f"{self.path}[{n}]") for n, v in enumerate(self.value))

    def text(self) -> str:
        return self._require(isinstance(self.value, str), "a string")

    def one_of(self, choices: tuple[str, ...], noun: str = "value") -> str:
        if self.value not in choices:
            raise self._bad(f"{noun} {_show(self.value)} is not one of {', '.join(choices)}")
        return self.value

    def names(self, choices: tuple[str, ...]) -> tuple[str, ...]:
        """A list of names, each one of ``choices``."""
        if not (isinstance(self.value, list) and all(v in choices for v in self.value)):
            raise self._bad(f"{_show(self.value)} outside {', '.join(choices)}")
        return tuple(self.value)

    def integer(self, lo: int = 0, hi: int = 2**63) -> int:
        """A JSON integer in ``[lo, hi)``: not a bool, and not ``139.0``."""
        self._require(type(self.value) is int, "an integer")
        return self._require(lo <= self.value < hi, f"in [{lo}, {hi})")

    def number(self, finite: bool = True) -> float:
        """A JSON number as a float: not a bool, never NaN, and infinite
        only when ``finite`` is false."""
        try:
            value = float(self.value) if type(self.value) is int else self.value
        except OverflowError as exc:  # a JSON integer beyond float range
            raise self._bad(str(exc)) from None
        self._require(type(value) is float and not math.isnan(value), "a number")
        self._require(not (finite and math.isinf(value)), "finite")
        return value

    def indices(self, width: int) -> list[int]:
        """A strictly increasing list of integers in ``[0, width)``."""
        value = [item.value for item in self]
        if not (all(type(k) is int for k in value)
                and all(a < b for a, b in zip(value, value[1:]))):
            raise ValueError(f"{self.path} must be strictly increasing integers")
        if value and not (value[0] >= 0 and value[-1] < width):
            bad = value[0] if value[0] < 0 else value[-1]
            raise ValueError(f"{self.path} index outside [0, {width}): {_show(bad)} is too "
                             + ("small" if bad < 0 else "large"))
        return value

    def floats(self, ndim: int) -> np.ndarray:
        """A finite float64 array of ``ndim`` dimensions, converted whole,
        whose elements are JSON numbers: not strings such as ``"0.5"``, and
        not bools, which the conversion would read as 0.0 and 1.0."""
        try:
            array = np.asarray(self.value, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a non-number, ragged rows, a huge int
            array = None
        elements = self.value
        for _ in range(ndim - 1):  # regular nested lists once the shape has been checked
            elements = itertools.chain.from_iterable(elements)
        if (array is None or array.ndim != ndim or not np.isfinite(array).all()
                or not set(map(type, elements)) <= {int, float}):
            raise self._bad(f"not a {ndim}-dimensional array of finite numbers")
        return array
