"""Stage-level checkpoint store for long flows.

The staged noise-aware flow, the case-study driver and SCAP validation
are hours-long pipelines at production scales; a crash deep in stage N
used to throw away stages 1..N-1.  :class:`CheckpointStore` gives those
flows durable per-stage artefacts:

* each completed stage saves its payload (pattern sets, SCAP profiles,
  detection words — anything picklable) under a stage key;
* on restart the flow asks ``has(key)`` / ``load(key)`` and skips the
  work it already did;
* a JSON ``manifest.json`` records, per stage, the payload file, a
  monotonically increasing sequence number, and caller metadata — the
  human-auditable index of what survived.

Safety: the store is bound to a *fingerprint* (a digest of everything
that determines the run's results — design scale/seed, ATPG seed,
stage plan, …).  Opening a directory whose manifest carries a
different fingerprint resets the store instead of resuming from stale
state, so a checkpoint can never leak results across configurations.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save
leaves the previous manifest intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import warnings
from typing import Any, Dict, List, Optional

from ..errors import CheckpointError

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1


def config_fingerprint(**config: Any) -> str:
    """Stable digest of a run configuration.

    Values are rendered with ``repr`` — pass primitives (str, int,
    float, tuples thereof), not live objects.
    """
    blob = repr(sorted((k, repr(v)) for k, v in config.items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _safe_name(key: str) -> str:
    """Filesystem-safe payload filename for a stage key."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:80]
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:10]
    return f"{slug}.{digest}.pkl"


class CheckpointStore:
    """Durable per-stage payloads under one directory.

    Parameters
    ----------
    directory:
        Created if missing.  One store per run configuration.  A
        directory that cannot be created (the path is a file, say) or
        a manifest that is not a JSON object raises
        :class:`~repro.errors.CheckpointError`.
    fingerprint:
        Digest of the run configuration (see
        :func:`config_fingerprint`).  ``None`` skips the staleness
        guard (only sensible for ad-hoc experiments).
    """

    def __init__(self, directory: str, fingerprint: Optional[str] = None):
        self.directory = directory
        self.fingerprint = fingerprint
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {directory!r}: {exc}"
            ) from exc
        self._manifest_path = os.path.join(directory, _MANIFEST)
        self._manifest = self._load_manifest()
        #: Stage loads served from disk (observability for tests/flows).
        self.loads = 0
        #: Stage payloads written this session.
        self.saves = 0

    # ------------------------------------------------------------------
    def _load_manifest(self) -> Dict[str, Any]:
        fresh = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "seq": 0,
            "stages": {},
        }
        if not os.path.exists(self._manifest_path):
            return fresh
        try:
            with open(self._manifest_path) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and UTF-8 errors
            raise CheckpointError(
                f"unreadable checkpoint manifest {self._manifest_path!r}: "
                f"{exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise CheckpointError(
                f"checkpoint manifest {self._manifest_path!r} is not a "
                "JSON object"
            )
        if manifest.get("version") != _FORMAT_VERSION:
            warnings.warn(
                "checkpoint format version changed; starting fresh",
                RuntimeWarning,
                stacklevel=3,
            )
            return fresh
        if (
            self.fingerprint is not None
            and manifest.get("fingerprint") != self.fingerprint
        ):
            warnings.warn(
                f"checkpoint dir {self.directory!r} belongs to a different "
                "run configuration; ignoring its stages",
                RuntimeWarning,
                stacklevel=3,
            )
            return fresh
        return manifest

    def _write_manifest(self) -> None:
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, self._manifest_path)

    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        entry = self._manifest["stages"].get(key)
        return entry is not None and os.path.exists(
            os.path.join(self.directory, entry["file"])
        )

    def keys(self) -> List[str]:
        """Completed stage keys, in completion order."""
        stages = self._manifest["stages"]
        return sorted(stages, key=lambda k: stages[k]["seq"])

    def meta(self, key: str) -> Dict[str, Any]:
        entry = self._manifest["stages"].get(key)
        if entry is None:
            raise CheckpointError(f"no checkpoint for stage {key!r}")
        return dict(entry.get("meta") or {})

    def load(self, key: str) -> Any:
        """Load one stage; a missing *or unreadable* stage raises.

        Prefer :meth:`try_load` in flows: a truncated payload there is
        "stage absent — recompute", not a hard failure.
        """
        entry = self._manifest["stages"].get(key)
        if entry is None:
            raise CheckpointError(f"no checkpoint for stage {key!r}")
        path = os.path.join(self.directory, entry["file"])
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint payload for stage {key!r} "
                f"({path!r}): {exc}"
            ) from exc
        self.loads += 1
        return payload

    def try_load(self, key: str) -> Any:
        """Load one stage, or ``None`` when it must be recomputed.

        A stage that was never saved returns ``None`` silently.  A
        stage whose payload is truncated or otherwise corrupt (a crash
        mid-write on a filesystem without atomic rename, manual
        tampering, a partial copy) is *treated as absent*: a warning is
        logged, the stale manifest entry is discarded so later runs do
        not trip over it again, and ``None`` is returned so the caller
        recomputes the stage instead of dying on resume.

        ``None`` is therefore reserved: stage payloads themselves must
        not be ``None`` (the flows never save one).
        """
        if not self.has(key):
            return None
        try:
            return self.load(key)
        except CheckpointError as exc:
            warnings.warn(
                f"checkpoint stage {key!r} is unreadable and will be "
                f"recomputed: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.discard(key)
            return None

    def save(
        self, key: str, payload: Any, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Persist one stage atomically (payload first, then manifest)."""
        fname = _safe_name(key)
        path = os.path.join(self.directory, fname)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._manifest["seq"] += 1
        self._manifest["stages"][key] = {
            "file": fname,
            "seq": self._manifest["seq"],
            "meta": meta or {},
        }
        self._write_manifest()
        self.saves += 1

    def discard(self, key: str) -> None:
        """Forget one stage (payload file removed best-effort)."""
        entry = self._manifest["stages"].pop(key, None)
        if entry is not None:
            try:
                os.remove(os.path.join(self.directory, entry["file"]))
            except OSError:
                pass
            self._write_manifest()

    def clear(self) -> None:
        """Forget every stage."""
        for key in list(self._manifest["stages"]):
            self.discard(key)
