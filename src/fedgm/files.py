"""The JSON files the program reads, and output files that are replaced
whole or not at all."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable

from .errors import ParseError


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


def parse_json(data: bytes | str, where: str):
    """``json.loads`` of UTF-8 ``data``, rejecting numbers a float cannot hold and repeated keys.

    Bytes that are not UTF-8, the numbers Infinity, NaN and 1e400, and a key
    an object repeats raise ParseError naming ``where``. Malformed JSON
    raises json.JSONDecodeError, which each caller reports or handles in its
    own way.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{where}: not UTF-8 text ({e.reason} at byte {e.start})") from None

    def reject(token):
        raise ParseError(f"{where}: non-finite number {token}")

    def number(token):
        value = float(token)
        return value if math.isfinite(value) else reject(token)

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{where}: repeated key {json.dumps(key)}")
            obj[key] = value
        return obj

    return json.loads(data, parse_float=number, parse_constant=reject, object_pairs_hook=unique)
