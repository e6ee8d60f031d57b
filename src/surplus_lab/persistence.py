"""Run manifests, deterministic text serialization, and map save/load.

All outputs are text: JSON for structures, CSV for data.  Floats are written
with 17 significant digits and rows in a fixed order, so replaying a run
with the same seed reproduces byte-identical files.  Every CLI run writes a
manifest recording the seed, command, parameters, and the SHA-256 digest of
each output file; replaying a manifest re-runs the command and compares
digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .maps import RootedMap

SCHEMA_VERSION = 1


class PersistenceError(ValueError):
    """Schema mismatch, digest mismatch, or malformed stored data."""


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal form for bit-stable CSV output."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    import numpy as np

    if isinstance(x, np.integer):
        return str(int(x))
    if isinstance(x, np.floating):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Comma-separated rows; a field holding a comma or a quote is quoted."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    seed: int
    command: str
    parameters: dict
    version: str
    started: str
    finished: str = ""
    argv: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def record_output(self, path: Path) -> None:
        self.outputs[path.name] = sha256_file(path)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, **asdict(self)},
                                   indent=2, sort_keys=True) + "\n")


def new_manifest(seed: int, command: str, parameters: dict, argv: list) -> RunManifest:
    from . import __version__

    return RunManifest(seed=seed, command=command, parameters=parameters,
                       version=__version__, started=_now(), argv=list(argv))


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def load_manifest(path: Path) -> RunManifest:
    data = json.loads(path.read_text())
    if data.pop("schema", None) != SCHEMA_VERSION:
        raise PersistenceError(f"unsupported manifest schema in {path}")
    return RunManifest(**data)


def replay(manifest_path: Path, scratch: Path) -> RunManifest:
    """Re-run the command recorded in a manifest and compare output digests.

    The replay executes into ``scratch`` and raises on any digest mismatch
    against the stored manifest, which is the reproducibility contract:
    same seed, same bytes.
    """
    from .cli import main

    manifest = load_manifest(manifest_path)
    if not manifest.argv:
        raise PersistenceError("manifest records no argv to replay")
    argv = list(manifest.argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(scratch)
    else:
        argv += ["--out", str(scratch)]
    main(argv)
    replay_manifest = load_manifest(scratch / "manifest.json")
    if set(replay_manifest.outputs) != set(manifest.outputs):
        raise PersistenceError("replay produced a different output file set")
    for name, digest in manifest.outputs.items():
        if replay_manifest.outputs[name] != digest:
            raise PersistenceError(f"digest mismatch on replay for {name}")
    return replay_manifest


# -- maps ---------------------------------------------------------------------


def save_map(m: RootedMap, path: Path) -> None:
    """Write ``json.dumps(m.to_json_dict(), indent=2, sort_keys=True) + "\\n"``.

    The map schema holds only ints, int lists and lists of int lists, so the
    same bytes are joined directly instead of going through the pure-Python
    indenting encoder.
    """
    items = sorted(m.to_json_dict().items())
    path.write_text("{\n" + ",\n".join(f'  "{k}": {_indented(v, "  ")}' for k, v in items)
                    + "\n}\n")


def _indented(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` nested at ``pad``, for an int, an int list or
    a list of non-empty int lists (rotation cycles are never empty)."""
    if isinstance(value, int):
        return int.__repr__(value)
    if not value:
        return "[]"
    inner = pad + "  "
    if isinstance(value[0], int):
        items = map(int.__repr__, value)
    else:
        deep = inner + "  "
        sep = f",\n{deep}"
        items = [f"[\n{deep}{sep.join(map(int.__repr__, v))}\n{inner}]" for v in value]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def load_map(path: Path) -> RootedMap:
    """The map that :func:`save_map` wrote; a :class:`PersistenceError` for a file that
    holds no such map."""
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise PersistenceError(f"no map of schema {SCHEMA_VERSION} in {path}")
    try:
        return RootedMap.from_json_dict(data)
    except ValueError as exc:
        raise PersistenceError(f"{path}: {exc}") from exc
