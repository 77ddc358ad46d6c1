"""FFT-realized eigenbasis transforms for the one-axis stencil matrices.

For each axis BC pair ('DD', 'NN', 'PP') the axis matrix A has a known
orthonormal eigenvector matrix Q (sine, shifted-cosine and real Fourier
bases respectively): Q^T A Q = diag(lambda).  Each kernel runs one real
FFT of about n points: the sine transform (DST-I) one of length 2(n+1),
the cosine transforms one of length n after Makhoul's reordering, the
real Fourier basis one of length n.  A DST-I of length n <= _DENSE_DST is
one product with the cached sine matrix instead (these grids make n + 1
prime or nearly so, 2k + 1 or 4k + 1), and so are the cosine and Fourier
bases up to n = _DENSE_FFT.  A Dirichlet axis with half-cell ends
(`ends`) takes the shifted sine basis of `sine_matrix`, not symmetric, as
two dense products (Q^T and Q) at any length.  Twiddle factors are
computed once per `SpectralPlan`.

Sign and ordering conventions match `oracle.assemble_eigvector_matrix`
column for column, as does the order of `eigenvalues`.  The Neumann
cosine denominator is n (not n - 1): the dense eigendecomposition pins
this down at n = 2 and 3, and the diagonalization tests enforce it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BC_PAIRS = ("DD", "NN", "PP")
_DENSE_DST = 256                # longest DST-I applied as a dense product
_DENSE_FFT = 128                # longest NN or PP transform applied so


def eigenvalues(bc: str, n: int, delta_t: float, delta_o: float,
                kappa: float = 0.0, ends: tuple = (0, 0)) -> np.ndarray:
    """Eigenvalue array of the axis matrix, ordered to match apply_Q:
    -2 (delta_t + delta_o) + 2 delta_t cos(theta_j) + kappa.  `ends` marks
    a DD axis's half-cell ends (first, last)."""
    j = np.arange(1, n + 1, dtype=float)
    if bc == "DD":
        theta = j * np.pi / (n + 1 - sum(ends) / 2)
    elif bc == "NN":
        theta = (j - 1) * np.pi / n
    elif bc == "PP":
        theta = 2.0 * np.pi * (j - 1) / n
    else:
        raise ValidationError(f"unknown BC pair {bc!r}")
    return -2.0 * (delta_t + delta_o) + 2.0 * delta_t * np.cos(theta) + kappa


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Prepared eigenbasis transform for one axis of one rectangle.

    Immutable; apply_Q / apply_Qt allocate their own scratch, so one plan
    may be shared across threads.  `twiddles` holds the read-only kernel
    factors for (Q^T, Q), with the orthonormal scaling folded in; for a
    DST-I both are the sine matrix Q itself up to length _DENSE_DST, and
    one scale past it; for a DD axis with half-cell `ends`, and an NN or
    PP one up to length _DENSE_FFT, they are Q and Q^T.  Plans compare by
    identity: their fields are arrays.
    """

    bc: str
    n: int
    eigenvalues: np.ndarray
    twiddles: tuple
    ends: tuple


@functools.lru_cache(maxsize=None)   # one per length and ends in use
def sine_matrix(n: int, first: int = 0, last: int = 0) -> np.ndarray:
    """The read-only matrix of unit columns sin(pi k (j - s) / L), j, k =
    1..n, s = first / 2, L = n + 1 - (first + last) / 2: the eigenvectors
    of tridiag(1, 0, 1) with -1 added to row 0 if `first` and to row n - 1
    if `last` (half-cell Dirichlet ends), eigenvalues 2 cos(pi k / L).
    With neither it is the symmetric DST-I matrix.  Entries are read from
    one sine table at k (2j - first) mod 4L, each a rounded sine of an
    angle in [0, 2 pi)."""
    m = 2 * n + 2 - first - last        # 2L
    table = np.sin(np.pi * np.arange(2 * m) / m)
    j = np.arange(1, n + 1)
    q = table[np.outer(2 * j - first, j) % (2 * m)]
    q /= np.linalg.norm(q, axis=0)
    q.setflags(write=False)
    return q


def _twiddles(bc: str, n: int, ends: tuple) -> tuple:
    """Kernel factors (for Q^T, for Q) of one transform; see the kernels."""
    if any(ends):
        q = sine_matrix(n, *ends)
        return q, q.T
    if bc == "DD":                                     # Q is symmetric
        q = sine_matrix(n) if n <= _DENSE_DST else \
            np.array(-np.sqrt(2.0 / (n + 1)))
        return q, q
    half = np.arange(n // 2 + 1)
    if bc == "NN":
        scale = np.where(half == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
        phase = np.exp(0.5j * np.pi * half / n)
        tw = (scale * phase.conj(),
              np.where(half == 0, n, 0.5 * n) * scale * phase)
    else:  # PP: cosine amplitude weights; the sine ones equal the interior
        ends = (half == 0) | (half == n // 2)
        weight = np.where(ends, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
        tw = weight, np.where(ends, n, 0.5 * n) * weight
    if n > _DENSE_FFT:
        return tw
    return tuple(kernel(np.eye(n), t) for kernel, t in zip(_KERNELS[bc], tw))


def make_plan(bc: str, n: int, delta_t: float, delta_o: float,
              kappa: float = 0.0, ends: tuple = (0, 0)) -> SpectralPlan:
    if n < 1:
        raise ValidationError("transform length must be >= 1")
    if bc == "PP" and n % 2:
        raise ValidationError("periodic transforms need an even length")
    if bc != "DD" and any(ends):
        raise ValidationError("half-cell ends need a DD pair")
    ends = tuple(ends)
    lam = eigenvalues(bc, n, delta_t, delta_o, kappa, ends)
    twiddles = _twiddles(bc, n, ends)
    for a in (lam, *twiddles):
        a.setflags(write=False)
    return SpectralPlan(bc=bc, n=n, eigenvalues=lam, twiddles=twiddles,
                        ends=ends)


# ---------------------------------------------------------------------------
# kernels; all operate along the last axis of a (..., n) array and return
# Q @ v or Q^T @ v with the scaling carried by the twiddles

def _dst1(v: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sqrt(2/M) sum_k v_k sin(pi j k / M), M = n + 1, via one length-2M
    real FFT of v at positions 1..n: the imaginary part of its term j is
    -sum_k v_k sin(pi j k / M), and `scale` is -sqrt(2/M)."""
    n = v.shape[-1]
    w = np.zeros(v.shape[:-1] + (2 * n + 2,))
    w[..., 1:n + 1] = v
    return scale * np.fft.rfft(w, axis=-1).imag[..., 1:n + 1]


def _dct2(v: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Scaled sum_k v_k cos(pi j (2k+1) / (2n)) via one length-n real FFT.

    Makhoul's reordering u = (v_0, v_2, ..., v_3, v_1) gives
    X_j = exp(-i pi j / 2n) U_j with the sum at j equal to Re X_j and the
    sum at n - j equal to -Im X_j; tw carries the phase and the scale.
    """
    n = v.shape[-1]
    u = np.concatenate([v[..., ::2], v[..., 1::2][..., ::-1]], axis=-1)
    x = np.fft.rfft(u, axis=-1) * tw
    out = np.empty(v.shape)
    out[..., :n // 2 + 1] = x.real
    np.negative(x.imag[..., (n - 1) // 2:0:-1], out=out[..., n // 2 + 1:])
    return out


def _dct3(a: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Scaled sum_j a_j cos(pi j (2k+1) / (2n)), the transpose of _dct2,
    via one length-n inverse real FFT: U_j = tw_j (a_j - i a_n-j), then
    Makhoul's reordering undone."""
    n = a.shape[-1]
    spec = np.zeros(a.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spec.real = a[..., :n // 2 + 1]
    np.negative(a[..., :n - n // 2 - 1:-1], out=spec.imag[..., 1:])
    u = np.fft.irfft(spec * tw, n, axis=-1)
    out = np.empty(a.shape)
    out[..., ::2] = u[..., :(n + 1) // 2]
    out[..., 1::2] = u[..., :(n + 1) // 2 - 1:-1]
    return out


def _rdft(v: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Real Fourier coefficients (cosines, then sines by descending
    frequency) via one length-n real FFT."""
    h = v.shape[-1] // 2
    spec = np.fft.rfft(v, axis=-1)
    out = np.empty(v.shape)
    out[..., :h + 1] = tw * spec.real
    out[..., h + 1:] = tw[1:h] * spec.imag[..., h - 1:0:-1]
    return out


def _irdft(a: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Transpose of _rdft: the amplitudes packed into a half spectrum,
    then one length-n inverse real FFT."""
    n = a.shape[-1]
    h = n // 2
    spec = np.zeros(a.shape[:-1] + (h + 1,), dtype=complex)
    spec.real = tw * a[..., :h + 1]
    spec.imag[..., 1:h] = tw[1:h] * a[..., :h:-1]
    return np.fft.irfft(spec, n, axis=-1)


_KERNELS = {"DD": (_dst1, _dst1), "NN": (_dct2, _dct3), "PP": (_rdft, _irdft)}


def _apply(plan: SpectralPlan, v, which: int) -> np.ndarray:
    """Q^T v (which 0) or Q v (which 1) along the last axis: one dense
    product where the plan's factor is a matrix, else its FFT kernel."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != plan.n:
        raise ValidationError(
            f"length mismatch: expected {plan.n}, got {v.shape[-1]}")
    tw = plan.twiddles[which]
    return v @ tw if tw.ndim == 2 else _KERNELS[plan.bc][which](v, tw)


def apply_Q(plan: SpectralPlan, v: np.ndarray) -> np.ndarray:
    """Q @ v along the last axis (spectral coefficients -> nodal values)."""
    return _apply(plan, v, 1)


def apply_Qt(plan: SpectralPlan, v: np.ndarray) -> np.ndarray:
    """Q^T @ v along the last axis (nodal values -> spectral coefficients)."""
    return _apply(plan, v, 0)
