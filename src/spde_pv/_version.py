import hashlib
import json
from datetime import datetime, timezone

__version__ = "0.1.0"

VERSION_STRING = f"spde-pv-{__version__}"


def spec_hash(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_keys(obj: dict, allowed, where: str) -> None:
    """Reject a config block with keys the program does not read, instead of ignoring them."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def sidecar_metadata(spec_json: dict) -> dict:
    """Provenance block attached to every output file."""
    return {
        "version": VERSION_STRING,
        "spec_sha256": spec_hash(spec_json),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
