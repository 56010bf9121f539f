"""Numerical validation helpers.

All optimized execution schedules in this package (transpose layout,
temporal folding, the DLT baseline, ...) are required to
produce the same numerical answer as the naive reference executor.  The
helpers here centralise the tolerances used for those comparisons so that
tests and the experiment harness agree on what "equal" means.

Stencil updates are sums of products of ``float64`` values; reassociating
them (which every optimisation in the paper does) perturbs results at the
level of a few ULPs per time step.  The default tolerances below are
comfortable for hundreds of time steps of the paper's kernels while still
being tight enough to catch real indexing bugs, which produce errors many
orders of magnitude larger.
"""

from __future__ import annotations

import numpy as np

#: Default relative tolerance used when comparing two stencil results.
DEFAULT_RTOL = 1e-9

#: Default absolute tolerance used when comparing two stencil results.
DEFAULT_ATOL = 1e-11


def max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """Return the maximum absolute elementwise difference between two arrays.

    Parameters
    ----------
    a, b:
        Arrays of identical shape.

    Returns
    -------
    float
        ``max(|a - b|)`` as a Python float; ``0.0`` for empty arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def relative_l2_error(result: np.ndarray, reference: np.ndarray) -> float:
    """Return the relative L2 error ``||result - reference|| / ||reference||``.

    A reference with zero norm yields the absolute L2 norm of ``result``
    instead, so the function never divides by zero.
    """
    result = np.asarray(result, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if result.shape != reference.shape:
        raise ValueError(f"shape mismatch: {result.shape} vs {reference.shape}")
    diff = np.linalg.norm((result - reference).ravel())
    denom = np.linalg.norm(reference.ravel())
    if denom == 0.0:
        return float(diff)
    return float(diff / denom)


def assert_allclose(
    result: np.ndarray,
    reference: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    context: str = "",
) -> None:
    """Assert that ``result`` matches ``reference`` within stencil tolerances.

    Parameters
    ----------
    result:
        Output of an optimized schedule.
    reference:
        Output of the naive reference executor.
    rtol, atol:
        Tolerances forwarded to :func:`numpy.testing.assert_allclose`.
    context:
        Optional string prepended to the failure message (e.g. the method
        and stencil name), making harness failures self-describing.
    """
    err_msg = context or "stencil results diverged from reference"
    np.testing.assert_allclose(
        np.asarray(result), np.asarray(reference), rtol=rtol, atol=atol, err_msg=err_msg
    )
