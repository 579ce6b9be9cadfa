"""The one ``key=value,...`` tokenizer behind every compact CLI spec.

``--spar``, ``--slo``, ``--resilience``, ``--retries`` and the options of
a ``--profile`` each declare a field table ``{key: (dest, cast)}`` and
parse through :func:`parse_fields`, so they share one grammar and one
error shape: the flag, the offending token and the valid keys, as a
:class:`~repro.errors.ConfigurationError` (exit 2 from the CLI).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

FieldTable = Dict[str, Tuple[str, Callable[[str], object]]]


def int_number(value: str) -> int:
    """``"3"``, ``"3.0"`` and ``"3e0"`` are all the integer 3."""
    return int(float(value))


def parse_fields(flag: str, spec: Optional[str], fields: FieldTable) -> Dict[str, object]:
    """Parse a ``key=value,...`` spec against ``{key: (dest, cast)}``
    into ``{dest: cast(value)}`` for the keys present."""
    parsed = {}
    for token in spec.split(",") if spec else ():
        key, eq, value = token.partition("=")
        key = key.strip()
        if not eq:
            problem = "expected key=value"
        elif key not in fields:
            problem = f"unknown key {key!r}"
        else:
            dest, cast = fields[key]
            try:
                parsed[dest] = cast(value.strip())
                continue
            except ValueError:
                kind = "an integer" if cast is int else "a number"
                problem = f"{key} must be {kind}, not {value.strip()!r}"
        raise ConfigurationError(
            f"bad {flag} token {token!r}: {problem}; keys: {', '.join(fields)}"
        )
    return parsed
