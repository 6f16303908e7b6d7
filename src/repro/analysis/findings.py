"""Finding and rule metadata types shared across the analysis suite."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Stable rule identifier (``BP001`` … ``BP012``, or
            ``BP000`` for files the parser itself rejects).
        path: Path of the offending file as given to the analyzer.
        line: 1-based source line.
        col: 0-based column offset.
        message: Human-readable description of the violation.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order via reporters)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: Rule id used for files that fail to parse.
PARSE_ERROR_RULE = "BP000"
