"""All-or-nothing replacement of the files the package writes."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file in the same
    directory and one rename, so a write that fails partway leaves the
    previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
