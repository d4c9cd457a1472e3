import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__version__ = "0.8.0"

VERSION_STRING = f"spde-pv-{__version__}"

BLOCK_ELEMENTS = 2**15  # the most numbers in one block of any array the program cuts: 256 KiB of float64 (fits L2)


def aligned_empty(size: int) -> np.ndarray:
    """Uninitialized float64 storage of `size` numbers that starts on a 64-byte boundary.

    numpy's binary loops write up to twice as slowly into an `out=` buffer that does not (8 x 4096
    `np.subtract`: 17-19 us against 8.8 us on an AVX-512 Xeon), and glibc maps a large buffer 16 bytes
    past a page boundary.  For the reused buffers that the kernels write into."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8  # numpy's storage starts on at least an 8-byte boundary
    return raw[start : start + size]


def spec_hash(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_keys(obj: dict, allowed, where: str) -> None:
    """Reject a config block that is not a JSON object or has keys the program does not read; never ignore them."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def json_list(value, key: str) -> list:
    """`value` of the config field `key`, which must be a JSON list: a number, string or object there would be
    iterated as something else, or fail with a message that does not name the field."""
    if not isinstance(value, list):
        raise ValueError(f"`{key}` must be a JSON list, got {type(value).__name__}")
    return value


def json_int(value, key: str) -> int:
    """`value` of the integer config field `key`: a bool, a non-integral number or a string there would be
    truncated or read as a number it does not spell, so it is rejected with the field's name."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"`{key}` must be an integer, got {value!r}")
    return value


def json_float(value, key: str) -> float:
    """`value` of the real config field `key` as a float: only an int or a float (not a bool) passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"`{key}` must be a number, got {value!r}")
    return float(value)


def file_name(value, what: str) -> str:
    """`value` if it can name one file inside an output directory: a string, not empty, '.', '..' or a path."""
    if not isinstance(value, str) or value in ("", ".", "..") or Path(value).name != value:
        raise ValueError(f"{what} {value!r} must be one file name: a string, not empty, '.', '..' or a path")
    return value


def rng_for(seed) -> np.random.Generator:
    """The program's one random generator: SFC64 keyed by the SeedSequence of `seed`."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def sidecar_metadata(spec_json: dict) -> dict:
    """Provenance block attached to every output file."""
    return {
        "version": VERSION_STRING,
        "spec_sha256": spec_hash(spec_json),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_json(path, payload: dict, spec_json: dict) -> None:
    """Write `payload` plus the provenance block of `spec_json` as sorted, 2-space-indented JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**payload, "meta": sidecar_metadata(spec_json)}, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a CSV with the given column names; strings go as they are, numbers as %.17g (exact round trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")
