"""All-or-nothing replacement of the files the package writes, and a checked
reader for the JSON objects it reads back."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence, Union


def write_atomic(path: Union[str, Path], parts: Sequence) -> None:
    """Replace ``path`` with ``parts``, bytes-like buffers written in order, through
    a temporary file in the same directory and one rename, so a write that fails
    partway leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_json_object(path: Union[str, Path], error: type[Exception]) -> dict:
    """Decode the JSON object stored in ``path``. An unreadable file, bad
    UTF-8, bad or too deeply nested JSON, or a document that is not an
    object raises ``error``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc
