"""Stationary solution of the embedded Markov chain of a GTPN.

Solves pi P = pi, sum(pi) = 1 over the reachable state space.  The
architecture models of chapter 6 produce irreducible chains (every
conversation cycles forever), but the solver also copes with transient
initial states by falling back to power iteration when the direct
linear solve is ill-conditioned.

Chains with more than one closed communicating class are refused
(``AnalysisError``): their stationary distribution is not unique, so
any single solution would silently disagree with a simulated sample
path, which settles into exactly one of the closed classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.gtpn.reachability import ReachabilityGraph


def stationary_distribution(graph: ReachabilityGraph,
                            method: str = "auto",
                            tol: float = 1e-12,
                            max_iterations: int = 2_000_000,
                            closed_classes: int | None = None,
                            ) -> np.ndarray:
    """Stationary distribution pi of the embedded chain.

    ``method`` is one of ``"auto"`` (direct solve with power-iteration
    fallback), ``"linear"`` or ``"power"``.  ``closed_classes`` lets a
    caller that already knows the chain's closed communicating class
    count (the packed skeleton computes it once per structure) skip the
    strongly-connected-components pass; the reducibility refusal is
    identical either way.
    """
    matrix = graph.matrix
    if method not in ("auto", "linear", "power"):
        raise AnalysisError(f"unknown stationary method {method!r}")
    closed = _closed_class_count(matrix) if closed_classes is None \
        else closed_classes
    if closed > 1:
        raise AnalysisError(
            f"embedded chain is reducible ({closed} closed communicating "
            "classes); the stationary distribution is not unique")
    if method in ("auto", "linear"):
        solve = _solve_linear if matrix.shape[0] <= _DEFLATION_THRESHOLD \
            else _solve_linear_deflated
        try:
            pi = solve(matrix)
            if pi is not None:
                return pi
        except (np.linalg.LinAlgError, ValueError):
            # numerical failure of the direct solve: fall back to
            # power iteration on the auto path.  Anything else is a
            # defect and propagates — a bare except here once hid
            # real bugs behind silent (and slow) fallbacks.
            if method == "linear":
                raise
        if method == "linear":
            raise AnalysisError("direct stationary solve failed")
        obs.add("markov.solve_fallback")
    return _solve_power(matrix, graph, tol, max_iterations)


def _closed_class_count(matrix: sp.csr_matrix) -> int:
    """Number of closed communicating classes of the chain.

    A strongly connected component is closed when no edge leaves it;
    an ergodic chain (possibly with transient initial states) has
    exactly one.
    """
    n_components, labels = connected_components(
        matrix, directed=True, connection="strong")
    if n_components == 1:
        return 1
    coo = matrix.tocoo()
    leaving = (labels[coo.row] != labels[coo.col]) & (coo.data != 0)
    open_components = set(labels[coo.row[leaving]])
    return n_components - len(open_components)


# Above this many states the augmented-system direct solve switches to
# the deflated formulation: the dense normalization row causes
# catastrophic LU fill-in on large chains (tens of millions of
# factor nonzeros from a few-hundred-thousand-entry matrix).  Every
# chain in the validation grids sits far below the threshold, so the
# committed baseline keeps the historical solver bit for bit.
_DEFLATION_THRESHOLD = 10_000


def _solve_linear(matrix: sp.csr_matrix) -> np.ndarray | None:
    """Direct solve of (P^T - I) pi = 0 with a normalization row.

    The augmented system — balance equations with the redundant last
    one replaced by sum(pi) = 1 — is assembled directly in coordinate
    form (P^T entries off the last row, a -1 diagonal, and a dense
    last row of ones); duplicate coordinates sum on CSR conversion.
    This avoids the O(n^2) LIL round-trip of row-assigning into a
    converted matrix on large chains.
    """
    n = matrix.shape[0]
    coo = matrix.T.tocoo()
    keep = coo.row != n - 1
    data = np.concatenate([coo.data[keep],
                           -np.ones(n - 1),
                           np.ones(n)])
    rows = np.concatenate([coo.row[keep],
                           np.arange(n - 1),
                           np.full(n, n - 1)])
    cols = np.concatenate([coo.col[keep],
                           np.arange(n - 1),
                           np.arange(n)])
    a = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spla.spsolve(a, b)
    if not np.all(np.isfinite(pi)):
        return None
    pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
    if np.any(pi < -1e-9):
        return None
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0 or not np.isfinite(total):
        return None
    pi = pi / total
    # verify the fixed point (catches singular systems solved garbage)
    residual = np.abs(pi @ matrix - pi).max()
    if residual > 1e-8:
        return None
    return pi


def _solve_linear_deflated(matrix: sp.csr_matrix) -> np.ndarray | None:
    """Large-chain direct solve via deflation instead of a dense row.

    Pinning pi[n-1] = 1 and solving the order-(n-1) principal block of
    P^T - I keeps the system as sparse as the chain itself, where the
    augmented form's dense normalization row destroys the fill-reducing
    ordering.  An ILU-preconditioned GMRES attempt comes first (its
    factorization is an order of magnitude cheaper than a full LU);
    exactness is gated by the same fixed-point residual check as the
    small-chain path, with sparse LU on the deflated block as the
    in-function fallback and power iteration behind a ``None`` return.
    """
    n = matrix.shape[0]
    a = (matrix.T - sp.identity(n, format="csr", dtype=float)).tocsc()
    block = a[:n - 1, :n - 1]
    rhs = -np.asarray(a[:n - 1, [n - 1]].todense()).ravel()
    x = None
    try:
        ilu = spla.spilu(block, drop_tol=0.05, fill_factor=2.0)
        precond = spla.LinearOperator(block.shape, ilu.solve)
        x, info = spla.gmres(block, rhs, M=precond, rtol=1e-12,
                             atol=0.0, restart=50, maxiter=40)
        if info != 0:
            x = None
    except (RuntimeError, np.linalg.LinAlgError, ValueError,
            MemoryError):
        # spilu raises RuntimeError on an exactly singular factor;
        # the sparse LU below is the designed fallback for those.
        x = None
    if x is None:
        x = spla.spsolve(block, rhs)
    pi = np.concatenate([x, [1.0]])
    if not np.all(np.isfinite(pi)):
        return None
    total = pi.sum()
    if total <= 0 or not np.isfinite(total):
        return None
    pi = pi / total
    if np.any(pi < -1e-9):
        return None
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(pi @ matrix - pi).max()
    if residual > 1e-8:
        return None
    return pi


def _solve_power(matrix: sp.csr_matrix, graph: ReachabilityGraph,
                 tol: float, max_iterations: int) -> np.ndarray:
    """Power iteration from the initial distribution.

    Periodic chains are damped by averaging successive iterates
    (equivalent to the lazy chain (P + I) / 2, which has the same
    stationary distribution).
    """
    pi = np.array(graph.init_vec, dtype=float)
    for _ in range(max_iterations):
        nxt = 0.5 * (pi @ matrix) + 0.5 * pi
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < tol:
            break
    else:
        raise AnalysisError(
            f"power iteration did not converge in {max_iterations} "
            "iterations")
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise AnalysisError("power iteration produced a degenerate result")
    return pi / total
