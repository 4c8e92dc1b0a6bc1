"""Exact reference implementations that the production code is tested against.

The trace kernel in `altsums.traces` computes every numerator -S(t) conj(A)
with one complex FFT and a certified rounding.  The functions below compute
the same numerators in exact int64 arithmetic over Z[zeta_p]: an additive
Fourier transform of zeta-power counts, then one circulant product against
conj(A).  They cost O(#L p^2 d) time and (#L, p) arrays, so only tests
import them.
"""

import numpy as np

from altsums.characters import normalization_constant, psi_exponent_table
from altsums.cyclotomic import CycInt
from altsums.fields import BudgetExceededError, FieldDescriptor
from altsums.traces import NonRationalTraceError, SystemParams


def _additive_fft_counts(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """Counts of S(t) on zeta^0..zeta^(p-1) for every t; row = element code.

    Lay h(x) = chi_2(x) * zeta^e(x^n) out as H[a, k]: a = poly_int(x), the
    base-p packing of the coordinates a_i of x, and k the zeta exponent.  As
    e(t*x) = sum_i a_i * w_i(t) mod p with w_i(t) = e(t * x^i), the row of S(t)
    is F[w(t)] for the d-dimensional (d = [L : F_p]) transform
    F[w] = sum_a roll(H[a], <a, w>), taken one coordinate per stage.  Each
    x != 0 puts one +-1 into H and a stage only shifts and adds rows, so the
    l1 norm of every row stays at most #L - 1 and |H| <= #L - 1 in every
    stage: int64 is exact.
    """
    p, d, N = L.p, L.d, L.order
    M = N - 1
    e_tab = psi_exponent_table(params.context(), L)
    logs = np.arange(M, dtype=np.int64)
    H = np.zeros((N, p), dtype=np.int64)
    # poly_int is injective, so plain assignment places every term
    H[L.antilog_int, e_tab[1 + (params.n * logs) % M]] = np.where(logs % 2 == 0, 1, -1)

    k = np.arange(p)
    mul = np.outer(k, k) % p                  # [a_i, w] = a_i * w
    sub = (k[None, :] - k[:, None]) % p       # [m, j] = j - m
    for i in range(d):
        lo = p**i
        blocks = H.reshape(N // (lo * p), p, lo, p)  # axis 1 is coordinate i
        acc = np.zeros((N // (lo * p), lo, p, p), dtype=np.int64)
        for ai in range(p):
            acc += blocks[:, ai][..., sub[mul[ai]]]  # zeta^(a_i*w) shifts exponent j
        H = acc.transpose(0, 2, 1, 3).reshape(N, p)

    x_logs = L.log_by_int[p ** np.arange(d)]  # dlog of x^i
    rows = np.zeros(N, dtype=np.int64)  # t = 0 has w = 0
    for i in range(d):  # digit i of the row of t = g^tau is w_i(g^tau)
        rows[1:] += e_tab[1 + (logs + x_logs[i]) % M] * p**i
    return H[rows]


def _finish(counts: np.ndarray, conjA: CycInt, N: int,
            field_text: str) -> np.ndarray:
    """Numerators of -S * conj(A) per row, as one int64 array.

    Rows are counts of S on zeta powers, entries at most #L - 1 in l1 norm;
    the product with conj(A) is one circulant matrix product, which stays
    exact while p * (#L - 1) * max|conj(A)| < 2**63.
    """
    p = conjA.p
    bound = p * (N - 1) * max(abs(c) for c in conjA.coeffs)
    if bound >= 2**63:
        raise BudgetExceededError(
            f"p * (#L - 1) * max|conj(A)| = {bound} overflows int64 over {field_text}")
    a = np.array(conjA.coeffs + (0,), dtype=np.int64)
    k = np.arange(p)
    prod = -(counts @ a[(k[None, :] - k[:, None]) % p])  # [t, k] = -sum_j S_j a_(k-j)
    reduced = prod[:, :-1] - prod[:, -1:]  # power basis, as CycInt.from_power_counts
    bad = np.flatnonzero(reduced[:, 1:].any(axis=1))
    if bad.size:
        raise NonRationalTraceError(
            f"non-rational normalized trace at t_index={bad[0]} over {field_text}")
    return reduced[:, 0].copy()  # not a view that keeps `reduced` alive


def exact_numerators(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """The numerators of every trace over L, computed exactly."""
    conjA = normalization_constant(params.context(), L, params.n).conj()
    return _finish(_additive_fft_counts(params, L), conjA, L.order,
                   L.canonical_text())
