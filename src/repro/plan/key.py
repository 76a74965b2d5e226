"""Canonical plan signatures (the guard set of a compiled plan).

A :class:`PlanKey` captures everything a planning decision depends on —
problem geometry, mask *content*, device spec, parameters, and a
free-form ``salt`` for site-specific discriminators (selector mode,
context bucket, segment signature).  Keys are plain frozen dataclasses of
primitives, so they hash and compare by value, and :attr:`PlanKey.digest`
is a SHA-256 over a canonical JSON encoding — identical across processes
regardless of ``PYTHONHASHSEED``, interning, or object identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to hashable, JSON-stable primitives."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    return value


def params_key(params: dict[str, Any] | None) -> tuple:
    """Canonical hashable form of a parameter dict (``None`` -> ``()``).

    Order-insensitive: ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` map
    to the same tuple.  This is the tuner's historical ``params_key``,
    promoted into the plan layer so parameter identity is part of every
    :class:`PlanKey`.
    """
    if not params:
        return ()
    return tuple(sorted((k, _canonical(v)) for k, v in params.items()))


def mask_fingerprint(mask: np.ndarray) -> str:
    """Content hash of a boolean mask (shape + bits).

    Two masks fingerprint equally iff they are element-wise identical, so
    a fingerprint-keyed plan is exact — not a heuristic bucket.
    """
    m = np.ascontiguousarray(np.asarray(mask, dtype=bool))
    h = hashlib.sha256()
    h.update(repr(m.shape).encode())
    h.update(np.packbits(m, axis=None).tobytes())
    return h.hexdigest()[:20]


def adapter_fingerprint(adapter: str, rank: int = 0) -> str:
    """Plan-key salt fragment naming a LoRA adapter ("" when none).

    Serving mixes this into its decode family salts so a plan specialized
    for one adapter's gathered GEMM never collides with another adapter's
    — or with the adapter-free plan, whose salt stays byte-identical to
    the pre-LoRA era.

    >>> adapter_fingerprint("")
    ''
    >>> adapter_fingerprint("tenant-a0", rank=16)
    ':lora=tenant-a0:r16'
    """
    if not adapter:
        return ""
    return f":lora={adapter}:r{rank}"


def spec_fingerprint(spec: Any) -> str:
    """Content hash of a GPU spec (every dataclass field participates).

    ``with_overrides`` copies therefore fingerprint differently from their
    base spec whenever any constant changed.  Memoized on the frozen
    instance (the ``PlanKey.__hash__`` idiom): every prefill key needs it.
    """
    fp = spec.__dict__.get("_fingerprint")
    if fp is None:
        payload = {f.name: getattr(spec, f.name) for f in fields(spec)}
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:12]
        fp = f"{payload.get('name', 'device')}#{digest}"
        object.__setattr__(spec, "_fingerprint", fp)
    return fp


@dataclass(frozen=True, eq=False)
class PlanKey:
    """Signature of one planning decision.

    ``kind`` namespaces the cache ("mha", "runtime-mha", "runtime-chain",
    "tuner-measure", "serving-prefill", "serving-decode", ...); ``salt``
    carries any extra guard the site needs (selector mode, bucket index,
    segment signature).  All fields are primitives or tuples of
    primitives: equality is value equality.

    Equality and hashing are hand-rolled (``eq=False``) so the hash can be
    memoized on the frozen instance — keys sit on the serving engine's
    per-step hot path, where a recomputed 11-field dataclass hash is
    measurable.
    """

    kind: str
    device: str = ""
    batch: int = 0
    heads: int = 0
    seq_len: int = 0
    kv_seq_len: int = 0
    head_size: int = 0
    pattern: str = ""
    mask: str = ""
    params: tuple = ()
    salt: str = ""
    #: Shard-config fingerprint ("" for unsharded plans).  Tensor/
    #: pipeline/data parallel plans (repro.parallel) carry e.g.
    #: ``"tp4dp2:nvlink"`` or ``"tp2pp2dp1:nvlink,ib"`` so a per-rank
    #: plan never collides with the unsharded plan of the same per-rank
    #: geometry under a different parallel layout (``pp`` is omitted
    #: when 1, keeping pre-pipeline fingerprints stable).
    shard: str = ""

    def _tuple(self) -> tuple:
        return (
            self.kind,
            self.device,
            self.batch,
            self.heads,
            self.seq_len,
            self.kv_seq_len,
            self.head_size,
            self.pattern,
            self.mask,
            self.params,
            self.salt,
            self.shard,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanKey):
            return NotImplemented
        return self._tuple() == other._tuple()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._tuple())
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def for_problem(
        cls,
        kind: str,
        problem: Any,
        spec: Any,
        params: dict[str, Any] | None = None,
        salt: str = "",
        shard: str = "",
    ) -> "PlanKey":
        """Key an attention problem: geometry + mask content + device."""
        return cls(
            kind=kind,
            device=spec_fingerprint(spec),
            batch=problem.batch,
            heads=problem.heads,
            seq_len=problem.seq_len,
            kv_seq_len=problem.kv_seq_len,
            head_size=problem.head_size,
            pattern=problem.pattern,
            mask=problem.mask_fingerprint(),
            params=params_key(params),
            salt=salt,
            shard=shard,
        )

    @property
    def digest(self) -> str:
        """Stable cross-process content hash of the whole key.

        Memoized on the frozen instance (the ``__hash__`` idiom): digests
        key the generated-code cache on the per-call execution path, where
        a recomputed canonical-JSON SHA-256 is measurable.
        """
        d = self.__dict__.get("_digest")
        if d is None:
            # Flat field walk, not dataclasses.asdict: every field is a
            # primitive or tuple-of-primitives, so the JSON is identical
            # and the recursive deepcopy asdict performs is pure overhead
            # on the per-call codegen dispatch path.
            payload = json.dumps(
                {f.name: getattr(self, f.name) for f in fields(self)},
                sort_keys=True,
                default=str,
            )
            d = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_digest", d)
        return d

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PlanKey":
        data = dict(payload)
        data["params"] = _tuplify(data.get("params", ()))
        return cls(**data)


def _tuplify(value: Any) -> Any:
    """Recursively convert lists (JSON round-trip artifacts) to tuples."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value
