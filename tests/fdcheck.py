"""Gradient verification against central finite differences."""

from __future__ import annotations

import contextlib

import numpy as np

from vista import gpm, tensor, tpm
from vista.params import ParamStore
from vista.tensor import backward


@contextlib.contextmanager
def record_activations():
    """Collect the active-unit count of every relu evaluated in the block.

    Wraps ``_relu_data`` under every name the code calls it by:
    ``tensor._relu_data`` (the ``relu`` node of ``reference_ops``),
    ``gpm._relu_data`` (the goal module's node) and ``tpm._relu_data`` (the
    rollout node's decoder). Two evaluations of the same graph with equal
    traces lie on the same smooth piece of the piecewise-linear loss surface;
    finite differences are only a valid derivative oracle in that case.
    """
    real = tensor._relu_data
    trace = []

    def counting(x):
        trace.append(int(np.count_nonzero(x > 0)))
        return real(x)

    tensor._relu_data = gpm._relu_data = tpm._relu_data = counting
    try:
        yield trace
    finally:
        tensor._relu_data = gpm._relu_data = tpm._relu_data = real


def finite_difference_check(
    params: ParamStore,
    loss_fn,
    epsilon: float = 1e-5,
    names=None,
    max_coords_per_param: int = 8,
    seed: int = 0,
    target_tol: float = 1e-4,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values and return a scalar Tensor. A subset of coordinates is sampled per
    parameter; the error at each is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-12).

    Central differences on a loss of magnitude L carry rounding noise of
    about L * ulp / (2 eps), so coordinates where BOTH sides fall below
    that floor (scaled by 1/target_tol) are unresolvable at 64-bit and are
    skipped. A one-sided disagreement (a dropped or spurious gradient path)
    keeps one side above the floor and is still reported. Coordinates whose
    +-eps evaluations land on different sides of a relu kink are also
    skipped: the loss is not differentiable across the kink, so the central
    difference is not an oracle for the gradient there.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    if names is None:
        names = params.names()

    params.zero_grad()
    base = loss_fn()
    backward(base)
    analytic = {n: params[n].grad.copy() for n in names}
    floor = 2.0 * abs(base.item()) * np.finfo(np.float64).eps / epsilon / target_tol

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in names:
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + epsilon
            with record_activations() as sig_hi:
                hi = loss_fn().item()
            flat[idx] = original - epsilon
            with record_activations() as sig_lo:
                lo = loss_fn().item()
            flat[idx] = original
            if sig_hi != sig_lo:
                continue
            numeric = (hi - lo) / (2.0 * epsilon)
            a = analytic[name].reshape(-1)[idx]
            if max(abs(a), abs(numeric)) < floor:
                continue
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
