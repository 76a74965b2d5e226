"""Content-addressed cache for generated kernel modules.

Two tiers, both keyed by a module's family digest (see *families* below):

* **in-memory** — bound, executable entries (module + consts pool); hits
  cost a dict lookup, nothing is re-emitted or re-``exec``'d.
* **on disk** (optional) — the emitted *source* as ``<digest>.py`` next to
  a ``<digest>.json`` sidecar recording the SHA-256 of the source, the
  template name/version, and the full plan key.  A warm process loads the
  source, verifies the hash and version, and re-``exec``'s it — zero
  emission cost, byte-identical module text.  A corrupted or stale entry
  (hash mismatch, version skew, unreadable sidecar) is *never* imported:
  it is dropped and the module is regenerated in place.

The default cache directory comes from ``STOF_CODEGEN_CACHE_DIR``; unset,
the cache is in-memory only — tests opt into disk via
:func:`use_codegen_cache`.

Symbolic *families* add a third index on top: a family groups every
``n_bh`` that emits byte-identical source under one guarded digest (see
:mod:`repro.plan.symbolic` and :func:`repro.codegen.backend.`
``generated_family_kernel``); every generated module is keyed this way.
The cache stores, per family *base* digest, the list of
``(guards, family digest)`` pairs —
:meth:`GeneratedCodeCache.find_family` scans it with the probe shape and
returns the admitting family's digest, which then resolves through the
ordinary two tiers above.  On disk the index is one
``<base_digest>.families.json`` sidecar per base.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator

import numpy as np

from repro.plan.key import PlanKey
from repro.plan.symbolic import GuardSet

#: Environment variable selecting the on-disk cache directory.
CACHE_DIR_ENV = "STOF_CODEGEN_CACHE_DIR"


def source_hash(source: str) -> str:
    """SHA-256 of the module text — the integrity check for disk entries."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class CacheEntry:
    """One bound generated kernel: executable module + its constant pool."""

    __slots__ = ("key", "template", "version", "source", "module", "consts")

    def __init__(
        self,
        key: PlanKey,
        template: str,
        version: int,
        source: str,
        module: ModuleType,
        consts: list,
    ) -> None:
        self.key = key
        self.template = template
        self.version = version
        self.source = source
        self.module = module
        self.consts = consts

    def run(self, q, k, v):
        return self.module.run(q, k, v, self.consts)


class GeneratedCodeCache:
    """Digest-keyed generated-code cache (in-memory + optional disk tier)."""

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        # base digest -> [(guards, family digest), ...] in insertion order;
        # later siblings come from splits, so order is the split history.
        self._families: dict[str, list[tuple[GuardSet, str]]] = {}
        self._family_index_loaded: set[str] = set()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.rejected = 0
        self.family_hits = 0
        self.family_splits = 0

    # ------------------------------------------------------------- in-memory

    def get(self, digest: str) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self.hits_memory += 1
            return entry

    def put(self, digest: str, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[digest] = entry

    def clear_memory(self) -> None:
        """Drop bound entries (disk files survive) — the warm-start test."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ disk

    def source_path(self, digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.py"

    def meta_path(self, digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.json"

    def consts_path(self, digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.npz"

    def store_disk(
        self,
        digest: str,
        key: PlanKey,
        template: str,
        version: int,
        source: str,
        consts: list[np.ndarray],
    ) -> None:
        """Write ``<digest>.py`` + sidecar + consts (atomic renames)."""
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        meta = {
            "sha256": source_hash(source),
            "template": template,
            "version": int(version),
            "n_consts": len(consts),
            "key": key.to_dict(),
        }
        if consts:
            cpath = self.consts_path(digest)
            tmp = cpath.with_suffix(f".tmp{os.getpid()}.npz")
            with open(tmp, "wb") as fh:
                np.savez(fh, *consts)
            os.replace(tmp, cpath)
        for path, text in (
            (self.source_path(digest), source),
            (self.meta_path(digest), json.dumps(meta, indent=2, sort_keys=True)),
        ):
            tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)

    def load_disk(
        self, digest: str, template: str, version: int
    ) -> tuple[str, list[np.ndarray], dict[str, Any]] | None:
        """Return verified ``(source, consts, meta)`` or ``None``.

        Rejects — and deletes, so the slot regenerates cleanly — any entry
        whose sidecar is missing/unreadable, whose recorded hash does not
        match the actual bytes (corruption), whose template version differs
        from the current emission (staleness), or whose constant pool is
        missing or short.
        """
        src_path, meta_path = self.source_path(digest), self.meta_path(digest)
        if src_path is None or not src_path.exists():
            return None
        try:
            source = src_path.read_text(encoding="utf-8")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._reject(digest)
            return None
        if (
            meta.get("sha256") != source_hash(source)
            or meta.get("template") != template
            or int(meta.get("version", -1)) != int(version)
        ):
            self._reject(digest)
            return None
        n_consts = int(meta.get("n_consts", 0))
        consts: list[np.ndarray] = []
        if n_consts:
            try:
                with np.load(self.consts_path(digest)) as npz:
                    consts = [npz[f"arr_{i}"] for i in range(n_consts)]
            except (OSError, ValueError, KeyError):
                self._reject(digest)
                return None
        self.hits_disk += 1
        return source, consts, meta

    def _reject(self, digest: str) -> None:
        self.rejected += 1
        for path in (
            self.source_path(digest),
            self.meta_path(digest),
            self.consts_path(digest),
        ):
            if path is not None:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass

    # -------------------------------------------------------------- families

    def families_path(self, base_digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{base_digest}.families.json"

    def _load_family_index(self, base_digest: str) -> None:
        """Merge the disk family index for one base (once per process)."""
        if base_digest in self._family_index_loaded:
            return
        self._family_index_loaded.add(base_digest)
        path = self.families_path(base_digest)
        if path is None or not path.exists():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            loaded = [
                (GuardSet.from_payload(item["guards"]), str(item["digest"]))
                for item in payload["families"]
            ]
        except (OSError, ValueError, KeyError, TypeError):
            self.rejected += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return
        known = {digest for _, digest in self._families.get(base_digest, [])}
        self._families.setdefault(base_digest, []).extend(
            item for item in loaded if item[1] not in known
        )

    def find_family(self, base_digest: str, shape: dict[str, int]) -> str | None:
        """The digest of the family of ``base_digest`` admitting ``shape``."""
        with self._lock:
            self._load_family_index(base_digest)
            for guards, digest in self._families.get(base_digest, ()):
                if guards.check(shape):
                    self.family_hits += 1
                    return digest
        return None

    def put_family(self, base_digest: str, guards: GuardSet, digest: str) -> None:
        """Register a new family (memory + atomic disk index rewrite)."""
        with self._lock:
            self._load_family_index(base_digest)
            siblings = self._families.setdefault(base_digest, [])
            if any(d == digest for _, d in siblings):
                return
            if siblings:
                self.family_splits += 1
            siblings.append((guards, digest))
            path = self.families_path(base_digest)
            if path is None:
                return
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "base": base_digest,
                "families": [
                    {"guards": g.to_payload(), "digest": d} for g, d in siblings
                ],
            }
            tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
            tmp.write_text(
                json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, path)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "rejected": self.rejected,
            "families": sum(len(v) for v in self._families.values()),
            "family_hits": self.family_hits,
            "family_splits": self.family_splits,
        }


_DEFAULT: GeneratedCodeCache | None = None
_DEFAULT_LOCK = threading.Lock()


def codegen_cache() -> GeneratedCodeCache:
    """The process-wide cache (disk tier from ``STOF_CODEGEN_CACHE_DIR``)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = GeneratedCodeCache(os.environ.get(CACHE_DIR_ENV) or None)
        return _DEFAULT


def set_codegen_cache(cache: GeneratedCodeCache | None) -> GeneratedCodeCache | None:
    """Swap the process-wide cache; returns the previous one."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        prev, _DEFAULT = _DEFAULT, cache
        return prev


@contextmanager
def use_codegen_cache(
    cache_dir: str | os.PathLike | None = None,
) -> Iterator[GeneratedCodeCache]:
    """Scope a fresh cache (optionally disk-backed) — the test fixture."""
    cache = GeneratedCodeCache(cache_dir)
    prev = set_codegen_cache(cache)
    try:
        yield cache
    finally:
        set_codegen_cache(prev)
