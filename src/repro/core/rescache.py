"""Persistent result cache: content-addressed ``FunctionMeasurement`` store.

Every measurement in this repository is fully deterministic under
(function, ISA, scale, seed, platform configuration), so re-simulating a
point that has already been measured is pure waste — the thesis's own
workflow reuses boot checkpoints for the same reason, and SeBS caches
per-benchmark results across experiment invocations.  This module gives
the measurement engine the same property across *process* boundaries: a
content-addressed on-disk cache keyed by a digest of everything a
measurement depends on, including a code-version salt so results from an
older simulator are never silently reused.

Knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro/rescache`` or ``~/.cache/repro/rescache``);
* ``REPRO_RESULT_CACHE`` — set to ``0``/``off`` to disable caching.

Maintenance from the CLI: ``python -m repro cache stats`` and
``python -m repro cache clear``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

#: Version 2 stores measurements as their ``as_dict(full=True)`` payload
#: (kind ``"measurement"``) instead of pickling live objects, so cached
#: entries survive attribute-level refactors of the measurement classes;
#: arbitrary payloads pass through untouched (kind ``"raw"``).
FORMAT_VERSION = 2

#: Code-version salt: bump whenever a change alters what any measurement
#: would produce (simulator timing, workload models, trace generation),
#: so stale entries miss instead of lying.  The package version is mixed
#: into digests as well.
CODE_SALT = "rescache-v2"

_FALSEY = ("0", "no", "off", "false")


def cache_enabled() -> bool:
    """Whether result caching is on (``REPRO_RESULT_CACHE``, default on)."""
    return os.environ.get("REPRO_RESULT_CACHE", "1").strip().lower() not in _FALSEY


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return Path(configured).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "rescache"


def measurement_digest(
    function: str,
    isa: str,
    time_scale: int,
    space_scale: int,
    seed: int,
    fingerprint: Any,
    db: Optional[str] = None,
    requests: int = 10,
    scaling: Any = None,
    sampling: Any = None,
    cluster: Any = None,
    vector: Any = None,
) -> str:
    """Content address of one measurement.

    ``fingerprint`` is the platform's microarchitectural identity
    (:meth:`repro.core.config.PlatformConfig.fingerprint`), so a DSE
    design point and the stock platform never collide.  ``scaling`` is
    the :meth:`~repro.serverless.scaler.ScalingConfig.fingerprint` tuple
    of a serving experiment, ``sampling`` the
    :meth:`~repro.sim.sampling.SamplingConfig.fingerprint` of a sampled
    run, ``cluster`` the
    :meth:`~repro.serverless.platform.ClusterConfig.fingerprint` of a
    multi-node serving experiment, ``vector`` the
    :meth:`~repro.sim.isa.vector.VectorConfig.fingerprint` of a
    vector-enabled run; each extends the key *only when set*, so every
    digest minted before the corresponding layer existed stays valid —
    and a sampled (approximate), cluster-served or vector-lowered result
    can never alias a full-detail scalar single-host one.
    """
    from repro import __version__

    key = (
        CODE_SALT, __version__, function, isa, int(time_scale),
        int(space_scale), int(seed), int(requests), db or "", fingerprint,
    )
    if scaling is not None:
        key = key + (scaling,)
    if sampling is not None:
        key = key + (sampling,)
    if cluster is not None:
        key = key + (cluster,)
    if vector is not None:
        key = key + (vector,)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of pickled measurements addressed by content digest.

    Reads tolerate missing, truncated or version-skewed entries (they
    count as misses); writes are atomic (write-then-rename) so a crashed
    run can never leave a half-written entry that later reads trust.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self._usable: Optional[bool] = None

    # -- plumbing ----------------------------------------------------------

    def _ensure_root(self) -> bool:
        if self._usable is None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                self._usable = True
            except OSError:
                self._usable = False
        return self._usable

    def _path_for(self, digest: str) -> Path:
        return self.root / ("%s.pkl" % digest)

    # -- the cache protocol ------------------------------------------------

    def get(self, digest: str):
        """The cached measurement for ``digest``, or ``None`` on a miss."""
        if not self._ensure_root():
            self.misses += 1
            return None
        path = self._path_for(digest)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except Exception:
            # A corrupt or unreadable entry must read as a miss, never
            # crash a run: unpickling garbage can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, ImportError, ...).
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("version") != FORMAT_VERSION:
            self.misses += 1
            return None
        try:
            value = self._decode(entry["payload"])
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return value

    @staticmethod
    def _encode(measurement) -> Dict[str, Any]:
        from repro.core.harness import FunctionMeasurement

        if isinstance(measurement, FunctionMeasurement):
            return {"kind": "measurement",
                    "data": measurement.as_dict(full=True)}
        return {"kind": "raw", "data": measurement}

    @staticmethod
    def _decode(payload: Dict[str, Any]):
        if payload["kind"] == "measurement":
            from repro.core.harness import FunctionMeasurement

            return FunctionMeasurement.from_dict(payload["data"])
        return payload["data"]

    def put(self, digest: str, measurement) -> bool:
        """Store a measurement; returns False if the cache is unusable.

        :class:`~repro.core.harness.FunctionMeasurement` instances go
        through the ``as_dict(full=True)`` / ``from_dict`` round-trip;
        anything else is stored verbatim.
        """
        if not self._ensure_root():
            return False
        path = self._path_for(digest)
        entry = {"version": FORMAT_VERSION, "digest": digest,
                 "payload": self._encode(measurement)}
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        return True

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Inventory of the cache directory plus this instance's hit rate."""
        entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:
        return "ResultCache(%s)" % self.root


def resolve_cache(cache=None) -> Optional[ResultCache]:
    """Normalise a caller's cache argument.

    ``None`` — honour the environment (default-on, default directory);
    ``False`` — caching off; ``True`` — default cache regardless of env;
    a :class:`ResultCache` — used as given.
    """
    if cache is None:
        return ResultCache() if cache_enabled() else None
    if cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache
