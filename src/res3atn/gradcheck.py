"""Central finite-difference verification of recorded gradients.

The closure under test runs in its tensors' own dtype for the analytic pass;
the finite-difference pass runs in float64 (FD_DTYPE) so the check is
limited by the analytic path's precision, not the probe's. An input already
in FD_DTYPE is probed in place, any other through a float64 clone. So the
parameters of a model cast to float64 are perturbed where the model reads
them, and a closure may ignore its arguments and read the model instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Tape, Tensor, zero_grads

FD_DTYPE = np.float64


@dataclass
class CoordResult:
    input_index: int
    coord: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Outcome of one gradient check.

    rel_error per coordinate is |analytic - numeric| / max(|analytic|,
    |numeric|, 1): relative for large gradients, absolute for tiny ones,
    which is the right scale for the O(1) projected losses the suite uses.
    """

    max_rel_error: float
    tolerance: float
    coords_checked: int
    worst: Optional[CoordResult] = None
    per_input_max: dict = field(default_factory=dict)
    coords_excluded: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        excluded = f", {self.coords_excluded} excluded" if self.coords_excluded else ""
        return (
            f"{status}: max_rel_error={self.max_rel_error:.3e} "
            f"(tol {self.tolerance:.1e}, {self.coords_checked} coords{excluded})"
        )


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def _plan_coords(tensors: Sequence[Tensor], max_coords: int, rng) -> list[tuple[int, int]]:
    """All coordinates when small, else a round-robin subsample >= max_coords."""
    total = sum(t.size for t in tensors)
    if total <= max_coords:
        return [(i, c) for i, t in enumerate(tensors) for c in range(t.size)]
    pools = []
    for i, t in enumerate(tensors):
        take = min(t.size, max(1, -(-max_coords // len(tensors))))
        coords = rng.choice(t.size, size=take, replace=False)
        pools.append([(i, int(c)) for c in coords])
    plan: list[tuple[int, int]] = []
    depth = 0
    while len(plan) < max_coords and any(depth < len(p) for p in pools):
        for p in pools:
            if depth < len(p):
                plan.append(p[depth])
        depth += 1
    return plan


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    *,
    eps: float = 1e-3,
    tol: float = 1e-3,
    max_coords: int = 64,
    rng: Optional[np.random.Generator] = None,
    exclude_kinks: bool = False,
) -> GradCheckReport:
    """Compare recorded gradients of scalar fn(*inputs) against central differences.

    Every input with requires_grad=True is probed. fn must be deterministic;
    this is enforced by running the forward twice and demanding bitwise-equal
    losses before any derivative is trusted.

    Losses routed through relu or max pooling are only piecewise smooth: a
    probe interval that straddles a switching point makes the central
    difference measure the kink, not the derivative. With exclude_kinks=True
    each coordinate is probed at eps and eps/2; if the two estimates disagree
    beyond tol the coordinate is excluded (counted in coords_excluded) and a
    replacement is drawn, up to three times the requested budget. The two
    estimates otherwise combine by Richardson extrapolation. Exclusion looks
    only at finite-difference self-consistency, never at the recorded
    gradient, so a wrong backward still fails on the smooth coordinates.
    """
    inputs = list(inputs)
    rng = rng if rng is not None else np.random.default_rng(0)

    checked_idx = [i for i, t in enumerate(inputs) if t.requires_grad]
    if not checked_idx:
        raise ValueError("grad_check: no input requires gradients")

    first = fn(*inputs).data.copy()
    second = fn(*inputs).data
    if not np.array_equal(first, second):
        raise RuntimeError("grad_check: closure is not deterministic (forward-twice mismatch)")

    zero_grads(inputs)
    with Tape() as tape:
        loss = fn(*inputs)
        if loss.size != 1:
            raise ValueError(f"grad_check: closure must return a scalar, got {loss.shape}")
        tape.backward(loss)
    analytic = {}
    for i in checked_idx:
        if inputs[i].grad is None:
            raise RuntimeError(f"grad_check: input {i} received no gradient")
        analytic[i] = inputs[i].grad.reshape(-1).astype(np.float64)

    probes = [t if t.dtype == FD_DTYPE else Tensor(t.data.astype(FD_DTYPE)) for t in inputs]

    budget = max_coords * 3 if exclude_kinks else max_coords
    plan = _plan_coords([inputs[i] for i in checked_idx], budget, rng)
    report = GradCheckReport(0.0, tol, 0)

    def central(i: int, coord: int, step_value: float) -> float:
        buf = probes[i].data.reshape(-1)
        saved = buf[coord]
        step = np.asarray(step_value, dtype=buf.dtype)
        buf[coord] = saved + step
        f_plus = float(fn(*probes).data.reshape(-1)[0])
        buf[coord] = saved - step
        f_minus = float(fn(*probes).data.reshape(-1)[0])
        buf[coord] = saved
        return (f_plus - f_minus) / (2.0 * float(step))

    for local_i, coord in plan:
        if exclude_kinks and report.coords_checked >= max_coords:
            break
        i = checked_idx[local_i]
        numeric = central(i, coord, eps)
        if exclude_kinks:
            half = central(i, coord, eps / 2.0)
            if _rel_error(numeric, half) > tol:
                report.coords_excluded += 1
                continue
            numeric = (4.0 * half - numeric) / 3.0
        report.coords_checked += 1
        a = float(analytic[i][coord])
        err = _rel_error(a, numeric)
        prev = report.per_input_max.get(i, 0.0)
        report.per_input_max[i] = max(prev, err)
        if err >= report.max_rel_error:
            report.max_rel_error = err
            report.worst = CoordResult(i, coord, a, numeric, err)
    return report
