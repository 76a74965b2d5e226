"""Common interface for attention kernel implementations.

Both STOF's kernels and the baseline strategies implement
:class:`AttentionKernel`: a ``plan`` that yields the kernel launches the
strategy would issue (for the simulated device) and a ``run`` that computes
real values (verified against :func:`repro.mha.reference.reference_attention`
in the tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.core.errors import ConfigError, UnsupportedInputError
from repro.gpu.cost import KernelCost, LaunchConfig
from repro.gpu.specs import GPUSpec
from repro.mha.problem import AttentionProblem

Launch = tuple[KernelCost, LaunchConfig]

#: Functional execution backends.  ``"codegen"`` (the default) emits Python
#: source specialized to the mask (:mod:`repro.codegen`) — bucket layout,
#: strides, and chunk sizes baked in as constants, dead branches eliminated —
#: and executes the cached generated module; ``"loop"`` is the original
#: per-row/per-block Python traversal, kept as the readable oracle codegen is
#: differentially tested against.  The choice only affects how ``run``
#: computes values — ``plan``/counter output is backend-independent.
EXEC_BACKENDS = ("codegen", "loop")

#: Peak fp32 elements one generated gather stage may materialize at once;
#: the codegen specializers bake chunk sizes below this bound into every
#: batched gather loop.
#: 2**21 elements (8 MiB fp32) keeps each gather inside freshly-touched
#: pages / cache instead of page-faulting through hundreds of MB — measured
#: ~3x faster end-to-end than 2**25 chunks on the Fig. 10 sweep shapes.
GATHER_CHUNK_ELEMS = 1 << 21


class AttentionKernel(ABC):
    """One attention execution strategy."""

    name: str = "attention"

    def __init__(self, exec_backend: str = "codegen"):
        if exec_backend not in EXEC_BACKENDS:
            raise ConfigError(
                f"unknown exec_backend {exec_backend!r}; known: {EXEC_BACKENDS}"
            )
        self.exec_backend = exec_backend

    def supports(self, problem: AttentionProblem) -> tuple[bool, str]:
        """Whether this strategy can run the problem; (ok, reason-if-not)."""
        return True, ""

    def check_supported(self, problem: AttentionProblem) -> None:
        ok, reason = self.supports(problem)
        if not ok:
            raise UnsupportedInputError(f"{self.name}: {reason}")

    @abstractmethod
    def plan(
        self,
        problem: AttentionProblem,
        spec: GPUSpec,
        params: dict[str, Any] | None = None,
    ) -> list[Launch]:
        """The sequence of kernel launches this strategy issues."""

    @abstractmethod
    def run(
        self, problem: AttentionProblem, params: dict[str, Any] | None = None
    ) -> np.ndarray:
        """Functionally compute the attention output (FP16)."""

    def param_space(self) -> dict[str, tuple]:
        """Tunable parameters (empty for fixed-strategy baselines)."""
        return {}

    def default_params(
        self, problem: AttentionProblem, spec: GPUSpec
    ) -> dict[str, Any]:
        return {k: v[0] for k, v in self.param_space().items()}

    def estimate_time(
        self,
        problem: AttentionProblem,
        spec: GPUSpec,
        params: dict[str, Any] | None = None,
    ) -> float:
        """Total simulated seconds of all launches in the plan."""
        from repro.gpu.cost import estimate_kernel_time

        return sum(
            estimate_kernel_time(spec, cost, config).total
            for cost, config in self.plan(problem, spec, params)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
