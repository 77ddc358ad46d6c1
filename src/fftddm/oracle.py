"""Dense brute-force reference implementations.

Everything here is assembled entrywise and solved with dense LAPACK
routines, independently of the FFT fast path, so property tests can pit
the two against each other.  Size guards keep these desk-scale only.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularOperatorError, ValidationError
from .geometry import CompositeDomain, RectSubdomain, line_indices

_RECT_GUARD = 10_000


def assemble_axis_matrix(bc: str, n: int, delta_t: float, delta_o: float,
                         kappa: float = 0.0) -> np.ndarray:
    """Dense n x n one-axis stencil matrix for BC pair 'DD', 'NN' or 'PP'.

    delta_t is 1/spacing^2 along the matrix axis, delta_o along the other
    axis; kappa is added to the diagonal.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = -2.0 * (delta_t + delta_o) + kappa
    A[idx[:-1], idx[:-1] + 1] += delta_t
    A[idx[1:], idx[1:] - 1] += delta_t
    if bc == "NN":
        A[0, 0] += delta_t
        A[-1, -1] += delta_t
    elif bc == "PP":
        A[0, (0 - 1) % n] += delta_t
        A[-1, (n) % n] += delta_t
    elif bc != "DD":
        raise ValidationError(f"unknown BC pair {bc!r}")
    return A


def assemble_eigvector_matrix(bc: str, n: int) -> np.ndarray:
    """Closed-form orthonormal eigenvector matrix Q of the axis matrix.

    Column j is the eigenvector whose eigenvalue is given by
    `transforms.eigenvalues` at the same index, fixing sign and order for
    the FFT path to reproduce.
    """
    k = np.arange(1, n + 1)[:, None]   # node position
    j = np.arange(1, n + 1)[None, :]   # eigenvector index
    if bc == "DD":
        return np.sqrt(2.0 / (n + 1)) * np.sin(j * k * np.pi / (n + 1))
    if bc == "NN":
        scale = np.full(n, np.sqrt(2.0 / n))
        scale[0] = np.sqrt(1.0 / n)
        return scale[None, :] * np.cos((j - 1) * (2 * k - 1) * np.pi / (2 * n))
    if bc == "PP":
        if n % 2:
            raise ValidationError("PP needs an even length")
        pos = np.arange(n)[:, None]
        Q = np.zeros((n, n))
        Q[:, 0] = 1.0 / np.sqrt(n)
        Q[:, n // 2] = (-1.0) ** pos.ravel() / np.sqrt(n)
        freq = np.arange(1, n // 2)
        Q[:, 1:n // 2] = np.sqrt(2.0 / n) * np.cos(2 * np.pi * pos * freq / n)
        freq = np.arange(n // 2 + 1, n)
        Q[:, n // 2 + 1:] = np.sqrt(2.0 / n) * np.sin(2 * np.pi * pos * freq / n)
        return Q
    raise ValidationError(f"unknown BC pair {bc!r}")


def _x_end_mods(sub: RectSubdomain) -> tuple[float, float]:
    return sub.end_modifier("west"), sub.end_modifier("east")


def assemble_rect_matrix(sub: RectSubdomain) -> np.ndarray:
    """Dense m*n x m*n operator of one rectangle, x-line-major layout."""
    if sub.size > _RECT_GUARD:
        raise ValidationError(
            f"rectangle too large for dense assembly ({sub.size})")
    m, n = sub.m, sub.n
    # pure Toeplitz y-block, then per-end modifiers (Neumann / half-cell D)
    Ay = assemble_axis_matrix("DD", n, sub.delta("y"), sub.delta("x"), sub.kappa)
    if sub.axis_pair("y") == "PP":
        Ay[0, -1] += sub.delta("y")
        Ay[-1, 0] += sub.delta("y")
    else:
        Ay[0, 0] += sub.end_modifier("south")
        Ay[-1, -1] += sub.end_modifier("north")

    A = np.kron(np.eye(m), Ay)
    off = sub.delta("x") * np.eye(n)
    big = np.arange(m)
    for i in big[:-1]:
        A[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] += off
        A[(i + 1) * n:(i + 2) * n, i * n:(i + 1) * n] += off
    pair_x = sub.axis_pair("x")
    if pair_x == "PP":
        A[:n, (m - 1) * n:] += off
        A[(m - 1) * n:, :n] += off
    else:
        w, e = _x_end_mods(sub)
        A[:n, :n] += w * np.eye(n)
        A[(m - 1) * n:, (m - 1) * n:] += e * np.eye(n)
    return A


def assemble_coupling_matrix(comp: CompositeDomain, from_id: int,
                             to_id: int) -> np.ndarray:
    """Dense coupling block R mapping a field on from_id into rows of to_id."""
    sub_f = comp.subdomain(from_id)
    sub_t = comp.subdomain(to_id)
    R = np.zeros((sub_t.size, sub_f.size))
    for iface in comp.interfaces_of(to_id):
        if iface.other_side(to_id)[0] != from_id:
            continue
        # node k of one side's line pairs with node k of the other's
        rows = line_indices(sub_t, iface.other_side(from_id)[1])
        cols = line_indices(sub_f, iface.other_side(to_id)[1])
        R[rows, cols] += comp.coupling(iface)
    return R


def global_offsets(comp: CompositeDomain) -> dict:
    """Subdomain id -> (start, end) slice bounds in the global vector."""
    out, pos = {}, 0
    for s in comp.subdomains:
        out[s.id] = (pos, pos + s.size)
        pos += s.size
    return out


def assemble_global_matrix(comp: CompositeDomain) -> np.ndarray:
    """Dense global block matrix over all subdomains in list order."""
    total = sum(s.size for s in comp.subdomains)
    if total > _RECT_GUARD:
        raise ValidationError(
            f"composite too large for dense assembly ({total})")
    block = {sid: slice(*ends) for sid, ends in global_offsets(comp).items()}
    A = np.zeros((total, total))
    for sub in comp.subdomains:
        A[block[sub.id], block[sub.id]] = assemble_rect_matrix(sub)
    for iface in comp.interfaces:
        a, b = iface.side_a[0], iface.side_b[0]
        A[block[b], block[a]] += assemble_coupling_matrix(comp, a, b)
        A[block[a], block[b]] += assemble_coupling_matrix(comp, b, a)
    return A


def dense_lu_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Partial-pivoting dense solve; raises on singular input."""
    M = np.asarray(M, dtype=float)
    try:
        x = np.linalg.solve(M, np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(str(exc)) from None
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError("singular to working precision")
    return x
