"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over ``path``.

    A reader sees the previous file or the complete new one, never a part:
    a failure midway leaves the previous file as it was and no temp file
    behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
