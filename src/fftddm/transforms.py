"""FFT-realized eigenbasis transforms for the one-axis stencil matrices.

For each axis BC pair ('DD', 'NN', 'PP') the axis matrix A has a known
orthonormal eigenvector matrix Q (sine, shifted-cosine and real Fourier
bases respectively).  Applying Q and Q^T costs O(n log n) and
diagonalizes the axis operator:  Q^T A Q = diag(lambda).  Each kernel runs
one FFT of about n points on real data: the sine transform (DST-I) reads
its length-2(n+1) odd extension as n+1 complex pairs and takes one
half-length complex FFT, the cosine transforms use Makhoul's length-n
reordering with a real FFT, and the real Fourier basis is one real FFT.
Twiddle factors are computed once per `SpectralPlan`.

Sign and ordering conventions match `oracle.assemble_eigvector_matrix`
column for column; the eigenvalue array from `eigenvalues` is ordered the
same way.

Note on the Neumann eigenvalues: the cosine denominator is n (not n - 1);
the dense eigendecomposition of the Neumann axis matrix pins this down at
n = 2 and 3, and the diagonalization property tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BC_PAIRS = ("DD", "NN", "PP")


def eigenvalues(bc: str, n: int, delta_t: float, delta_o: float,
                kappa: float = 0.0) -> np.ndarray:
    """Eigenvalue array of the axis matrix, ordered to match apply_Q."""
    j = np.arange(1, n + 1, dtype=float)
    if bc == "DD":
        lam = -2.0 * (delta_t + delta_o) + 2.0 * delta_t * np.cos(j * np.pi / (n + 1))
    elif bc == "NN":
        lam = -2.0 * (delta_t + delta_o) + 2.0 * delta_t * np.cos((j - 1) * np.pi / n)
    elif bc == "PP":
        lam = -2.0 * (delta_t + delta_o) + 2.0 * delta_t * np.cos(2.0 * np.pi * (j - 1) / n)
    else:
        raise ValidationError(f"unknown BC pair {bc!r}")
    return lam + kappa


@dataclass(frozen=True)
class SpectralPlan:
    """Prepared eigenbasis transform for one axis of one rectangle.

    Immutable; apply_Q / apply_Qt allocate their own scratch, so one plan
    may be shared across threads.  `twiddles` holds the read-only kernel
    factors for (Q^T, Q), with the orthonormal scaling folded in.
    """

    bc: str
    n: int
    eigenvalues: np.ndarray
    twiddles: tuple


def _twiddles(bc: str, n: int) -> tuple:
    """Kernel factors (for Q^T, for Q) of one transform; see the kernels."""
    if bc == "DD":
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        s = 0.25 * np.sqrt(2.0 / (n + 1))
        tw = np.stack([s * (np.sin(theta) - 1.0), s * (np.sin(theta) + 1.0),
                       2.0 * s * np.cos(theta)])
        return tw, tw                                  # Q is symmetric
    half = np.arange(n // 2 + 1)
    if bc == "NN":
        scale = np.where(half == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
        phase = np.exp(0.5j * np.pi * half / n)
        return (scale * phase.conj(),
                np.where(half == 0, n, 0.5 * n) * scale * phase)
    # PP: weights of the cosine amplitudes; the sine ones equal the interior
    ends = (half == 0) | (half == n // 2)
    weight = np.where(ends, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return weight, np.where(ends, n, 0.5 * n) * weight


def make_plan(bc: str, n: int, delta_t: float, delta_o: float,
              kappa: float = 0.0) -> SpectralPlan:
    if n < 1:
        raise ValidationError("transform length must be >= 1")
    if bc not in BC_PAIRS:
        raise ValidationError(f"unknown BC pair {bc!r}")
    if bc == "PP" and n % 2:
        raise ValidationError("periodic transforms need an even length")
    lam = eigenvalues(bc, n, delta_t, delta_o, kappa)
    twiddles = _twiddles(bc, n)
    for a in (lam, *twiddles):
        a.setflags(write=False)
    return SpectralPlan(bc=bc, n=n, eigenvalues=lam, twiddles=twiddles)


# ---------------------------------------------------------------------------
# kernels; all operate along the last axis of a (..., n) array and return
# Q @ v or Q^T @ v with the scaling carried by the twiddles

def _dst1(v: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """sqrt(2/M) sum_k v_k sin(pi j k / M), M = n + 1, via one length-M
    complex FFT of the odd extension w read as pairs z_t = w_2t + i w_2t+1.

    With Z = FFT(z), the even and odd samples transform to
    E_j = (Z_j + conj Z_M-j) / 2 (imaginary, as they are odd themselves, so
    Re Z_M-j = -Re Z_j) and O_j = (Z_j - conj Z_M-j) / 2i; the sine sum is
    -Im(E_j + exp(-i pi j / M) O_j) / 2, a real combination of Im Z_j,
    Im Z_M-j and Re Z_j with the cos/sin(pi j / M) weights in tw.
    """
    n = v.shape[-1]
    m = n + 1
    w = np.zeros(v.shape[:-1] + (2 * m,))
    w[..., 1:m] = v
    w[..., m + 1:] = -v[..., ::-1]
    z = np.fft.fft(w.view(np.complex128), axis=-1)
    zj = z[..., 1:]
    out = tw[0] * zj.imag
    out += tw[1] * z[..., :0:-1].imag
    out += tw[2] * zj.real
    return out


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
    out[..., n // 2 + 1:] = -x.imag[..., (n - 1) // 2:0:-1]
    return out


def _dct3(a: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Scaled sum_j a_j cos(pi j (2k+1) / (2n)), the transpose of _dct2,
    via one length-n inverse real FFT: U_j = tw_j (a_j - i a_n-j), then
    Makhoul's reordering undone."""
    n = a.shape[-1]
    spec = np.zeros(a.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spec.real = a[..., :n // 2 + 1]
    spec.imag[..., 1:] = -a[..., :n - n // 2 - 1:-1]
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


def _checked(plan: SpectralPlan, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != plan.n:
        raise ValidationError(
            f"length mismatch: expected {plan.n}, got {v.shape[-1]}")
    return v


def apply_Q(plan: SpectralPlan, v: np.ndarray) -> np.ndarray:
    """Q @ v along the last axis (spectral coefficients -> nodal values)."""
    v = _checked(plan, v)
    tw = plan.twiddles[1]
    if plan.bc == "DD":
        return _dst1(v, tw)
    if plan.bc == "NN":
        return _dct3(v, tw)
    return _irdft(v, tw)


def apply_Qt(plan: SpectralPlan, v: np.ndarray) -> np.ndarray:
    """Q^T @ v along the last axis (nodal values -> spectral coefficients)."""
    v = _checked(plan, v)
    tw = plan.twiddles[0]
    if plan.bc == "DD":
        return _dst1(v, tw)
    if plan.bc == "NN":
        return _dct2(v, tw)
    return _rdft(v, tw)
