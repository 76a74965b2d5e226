"""The unified MHA facade (paper Fig. 5, left half).

:class:`UnifiedMHA` ties the pieces together: the analytical selector picks
row-wise vs block-wise and the block parameters, and the chosen kernel
serves both the functional ``run`` and the simulated ``plan``.  Planning
goes through :func:`repro.mha.selector.compile_attention_plan`, so the
returned plan is a :class:`repro.plan.CompiledPlan` (``MHAPlan`` remains
as an alias) and an optional shared :class:`repro.plan.PlanCache` replays
identical decisions instead of re-deriving them.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.specs import GPUSpec
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.mha.selector import compile_attention_plan
from repro.plan import CompiledPlan, PlanCache

#: Historical name for the attention plan record.  The plan layer unified
#: it with every other site's plan artifact; the fields consumers read
#: (choice, params, kernel, launches, estimated_s, analysis_overhead_s,
#: kernel_name) are unchanged.
MHAPlan = CompiledPlan


class UnifiedMHA:
    """STOF's unified MHA module.

    >>> from repro.gpu.specs import A100
    >>> prob = AttentionProblem.build("sliding_window", 1, 2, 64, 32,
    ...                               with_tensors=True)
    >>> mha = UnifiedMHA(A100)
    >>> plan = mha.plan(prob)
    >>> out = mha.run(prob)
    >>> out.shape
    (1, 2, 64, 32)
    """

    def __init__(
        self,
        spec: GPUSpec,
        tau: float | None = None,
        mode: str = "model",
        cache: PlanCache | None = None,
        exec_backend: str = "codegen",
    ):
        self.spec = spec
        self.tau = tau
        self.mode = mode
        self.cache = cache
        self.exec_backend = exec_backend
        self._row = RowWiseKernel(exec_backend=exec_backend)
        self._block = BlockWiseKernel(exec_backend=exec_backend)

    def plan(self, problem: AttentionProblem) -> MHAPlan:
        """Select kernel + parameters and price the launches (cached)."""
        return compile_attention_plan(
            problem,
            self.spec,
            mode=self.mode,
            tau=self.tau,
            cache=self.cache,
        )

    def run(self, problem: AttentionProblem) -> np.ndarray:
        """Functionally execute with the selected kernel.

        The plan's kernel choice is honoured, but execution goes through
        this module's own kernel instances so ``exec_backend`` applies even
        when the plan was compiled (or cache-replayed) elsewhere.
        """
        plan = self.plan(problem)
        own = {self._row.name: self._row, self._block.name: self._block}
        kernel = own.get(plan.kernel_name, plan.kernel)
        return kernel.run(problem, plan.params)
