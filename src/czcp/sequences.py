"""Binary sequences over {+1, -1}, sequence pairs, and elementary transforms.

Sequences are displayed and parsed in the usual '+'/'-' notation (one
character per element). All arithmetic downstream is exact integer
arithmetic; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SequenceFormatError(ValueError):
    """Malformed '+'/'-' text. Carries the offending position when known."""

    code = "bad_input"  # the CLI's report code

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class BinarySequence:
    """Immutable fixed-length vector with entries in {+1, -1}."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a binary sequence needs at least one element")
        # checked before the int8 cast, which wraps 255 to -1 and truncates 1.5 to 1
        if not ((arr == 1) | (arr == -1)).all():
            raise ValueError("elements must be +1 or -1")
        arr = arr.astype(np.int8, copy=False)
        arr.flags.writeable = False
        self._values = arr

    @classmethod
    def _of_valid(cls, values):
        """A sequence over int8 `values` already known to be +-1, made read-only; no check."""
        seq = cls.__new__(cls)
        values.flags.writeable = False
        seq._values = values
        return seq

    @property
    def values(self):
        """Read-only int8 array view of the elements."""
        return self._values

    @property
    def n(self):
        return self._values.size

    # both preserve +-1, so the result skips __init__'s check
    def reverse(self):
        return BinarySequence._of_valid(self._values[::-1])

    def negate(self):
        return BinarySequence._of_valid(-self._values)

    def to_text(self):
        return "".join("+" if v > 0 else "-" for v in self._values)

    def __len__(self):
        return self._values.size

    def __iter__(self):
        return iter(int(v) for v in self._values)

    def __getitem__(self, i):
        return int(self._values[i])

    def __eq__(self, other):
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            np.all(self._values == other._values)
        )

    def __hash__(self):
        return hash((self._values.size, self._values.tobytes()))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"BinarySequence({self.to_text()!r})"


# code point (255 for any above) -> element, 0 for a character other than '+' and '-'
_SIGNS = np.zeros(256, dtype=np.int8)
_SIGNS[ord("+")], _SIGNS[ord("-")] = 1, -1


def parse_sequence(text):
    """Parse a '+'/'-' string into a BinarySequence.

    Raises SequenceFormatError naming the first bad position.
    """
    stripped = text.rstrip("\n")
    if not stripped:
        raise SequenceFormatError("empty sequence", position=0)
    # one code point per uint32; surrogatepass keeps lone surrogates as theirs
    codes = np.frombuffer(stripped.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    values = _SIGNS[np.minimum(codes, 255)]
    i = int((values == 0).argmax())  # the first bad position, if any
    if not values[i]:
        raise SequenceFormatError(
            f"invalid character {stripped[i]!r} at position {i} (expected '+' or '-')",
            position=i,
        )
    return BinarySequence._of_valid(values)


@dataclass(frozen=True)
class SequencePair:
    """Ordered pair of equal-length binary sequences."""

    first: BinarySequence
    second: BinarySequence

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise SequenceFormatError(
                f"pair members have different lengths: "
                f"{self.first.n} vs {self.second.n}"
            )

    @classmethod
    def from_texts(cls, first, second):
        return cls(parse_sequence(first), parse_sequence(second))

    @property
    def n(self):
        return self.first.n

    def texts(self):
        return (self.first.to_text(), self.second.to_text())

    def __str__(self):
        return f"({self.first}, {self.second})"


def parse_pair(text):
    """Parse the two-line pair format (exactly two '+'/'-' lines)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise SequenceFormatError(
            f"a pair file holds exactly two sequence lines, got {len(lines)}"
        )
    return SequencePair(parse_sequence(lines[0]), parse_sequence(lines[1]))


def read_pair(source):
    """parse_pair of a path's or an open file's text; SequenceFormatError if unreadable."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text()
    except (OSError, ValueError) as exc:
        raise SequenceFormatError(str(exc)) from exc
    return parse_pair(text)

