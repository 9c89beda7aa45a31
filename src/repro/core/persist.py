"""Save/load a built index of **any** registered method.

The pre-process (projections, hash tables, k-means, codebooks, disk layout)
is the expensive part of the lifecycle; persisting its outputs lets a
service restart without re-building.  The format is a single ``.npz`` file
holding plain arrays plus a JSON-encoded envelope — no pickling, so files
are portable across Python versions and safe to load from untrusted
storage.

The envelope records the registered method name and its round-trippable
:class:`repro.spec.IndexSpec`; :func:`load_index` dispatches through the
method registry to the class's ``from_state``, so every method (ProMIPS,
Dynamic, H2-ALSH, Range-LSH, PQ-Based, Exact, SimHash, Sharded) reloads
with bit-identical search behaviour.  Only format version 2 loads; a file in
the ProMIPS-only version 1 layout of earlier releases is rejected with a
``ValueError`` naming its version, and must be rebuilt.

:func:`save_index` writes a temporary file next to the target, fsyncs it and
renames it over the target, so a crash mid-write leaves the previous file
intact.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

import numpy as np

from repro.spec import IndexSpec, get_method

__all__ = [
    "save_index",
    "load_index",
    "inspect_index",
    "pack_substate",
    "unpack_substate",
]

_FORMAT_VERSION = 2
_STATE_PREFIX = "state__"


def _encode_meta(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def _decode_meta(blob: np.ndarray) -> dict:
    return json.loads(bytes(np.asarray(blob).tobytes()).decode())


def save_index(index, path: str | Path, extra_meta: dict | None = None) -> Path:
    """Serialize any registered built index to ``path`` (a ``.npz`` file).

    Args:
        index: a built index implementing the registry contract
            (``spec()`` / ``state()``, see :mod:`repro.spec`).
        path: target file; the ``.npz`` suffix is ensured.
        extra_meta: optional JSON-serializable annotations stored in the
            envelope (e.g. the CLI records the dataset a ``build`` used so
            ``query`` can regenerate the workload); read back with
            :func:`inspect_index`.

    Returns:
        The path written.
    """
    method = getattr(type(index), "method_name", None)
    if method is None or not (hasattr(index, "spec") and hasattr(index, "state")):
        raise TypeError(
            f"{type(index).__name__} is not a registered method "
            "(missing @register_method / spec() / state())"
        )
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    meta = {
        "format_version": _FORMAT_VERSION,
        "method": method,
        "spec": index.spec().to_dict(),
        "extras": extra_meta or {},
    }
    state = index.state()
    bad = [k for k in state if not isinstance(state[k], np.ndarray)]
    if bad:
        raise TypeError(f"state() of {method!r} returned non-array entries: {bad}")
    # Same directory, so os.replace is an atomic rename on one filesystem.
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez_compressed(
                fh,
                __meta__=_encode_meta(meta),
                **{f"{_STATE_PREFIX}{k}": v for k, v in state.items()},
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def pack_substate(index, prefix: str) -> dict[str, np.ndarray]:
    """Flatten a built index into a prefixed *sub-envelope* of plain arrays.

    Composite indexes (e.g. :class:`repro.core.sharded.ShardedIndex`) nest
    other registered methods inside their own ``state()``.  This helper
    serialises one inner index the same way :func:`save_index` would — a
    JSON meta blob naming the method and its spec, plus its state arrays —
    but into a flat dict under ``prefix`` instead of a file, so the composite
    still persists through the single v2 ``.npz`` envelope.

    Args:
        index: a built index implementing the registry contract.
        prefix: key prefix for this sub-envelope; end it with a delimiter
            (e.g. ``"shard0_"``) so prefixes cannot shadow each other.

    Returns:
        ``{f"{prefix}__meta__": ..., f"{prefix}state__{k}": ...}`` arrays,
        invertible with :func:`unpack_substate`.
    """
    method = getattr(type(index), "method_name", None)
    if method is None or not (hasattr(index, "spec") and hasattr(index, "state")):
        raise TypeError(
            f"{type(index).__name__} is not a registered method "
            "(missing @register_method / spec() / state())"
        )
    meta = {
        "format_version": _FORMAT_VERSION,
        "method": method,
        "spec": index.spec().to_dict(),
    }
    out: dict[str, np.ndarray] = {f"{prefix}__meta__": _encode_meta(meta)}
    for key, value in index.state().items():
        if not isinstance(value, np.ndarray):
            raise TypeError(f"state() of {method!r} returned non-array entry {key!r}")
        out[f"{prefix}{_STATE_PREFIX}{key}"] = value
    return out


def unpack_substate(state: dict[str, np.ndarray], prefix: str):
    """Reconstruct an index packed by :func:`pack_substate` under ``prefix``."""
    meta_key = f"{prefix}__meta__"
    if meta_key not in state:
        raise ValueError(f"no sub-envelope under prefix {prefix!r}")
    meta = _decode_meta(state[meta_key])
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported sub-envelope format {meta.get('format_version')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    spec = IndexSpec.from_dict(meta["spec"])
    body_prefix = f"{prefix}{_STATE_PREFIX}"
    sub_state = {
        key[len(body_prefix):]: np.asarray(value)
        for key, value in state.items()
        if key.startswith(body_prefix)
    }
    return get_method(meta["method"]).from_state(spec, sub_state)


def _read_meta(blob, path: Path) -> dict:
    """The envelope of an open ``.npz``, or a ``ValueError`` saying why not."""
    if "__meta__" in blob.files:
        return _decode_meta(blob["__meta__"])
    if "meta" in blob.files:
        version = _decode_meta(blob["meta"]).get("format_version")
        raise ValueError(
            f"{path} uses the unsupported index format {version!r} (the "
            f"ProMIPS-only layout of earlier releases); only format "
            f"{_FORMAT_VERSION} loads, so rebuild the index and save it again"
        )
    raise ValueError(f"{path} is not a saved index (no envelope found)")


def load_index(path: str | Path):
    """Reconstruct an index saved by :func:`save_index`.

    The envelope names the method; the registered class's ``from_state``
    rebuilds the index, so the caller does not need to know what was saved.
    """
    path = Path(path)
    with np.load(path) as blob:
        meta = _read_meta(blob, path)
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format {meta.get('format_version')!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        spec = IndexSpec.from_dict(meta["spec"])
        state = {
            key[len(_STATE_PREFIX):]: np.asarray(blob[key])
            for key in blob.files
            if key.startswith(_STATE_PREFIX)
        }
        return get_method(meta["method"]).from_state(spec, state)


def inspect_index(path: str | Path) -> dict:
    """The envelope of a saved index without reconstructing it.

    Returns a dict with ``format_version``, ``method``, ``spec`` (as a
    dict), and ``extras``.
    """
    path = Path(path)
    with np.load(path) as blob:
        return _read_meta(blob, path)
