"""Built-in maps, metrics and randomized families used by suites and demos.

Everything here is deterministic given a seed: the randomized suites in the
test harness and the command-line driver both draw from these generators, so
reports are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from .geometry import HermitianMetricField, MetricField
from .jet import Const, Expr, Var, conj
from .maps import SmoothMap

__all__ = [
    "immersion_r2_c3",
    "linear_r4_c2",
    "zvar",
    "holomorphic_polynomial",
    "random_holomorphic_map",
    "random_polynomial_map",
    "random_polynomial_metric",
    "random_kaehler_metric",
    "non_kaehler_hermitian_c2",
    "sample_points",
]


def zvar(a: int) -> Expr:
    """Chart coordinate z^{a+1} as an expression in interleaved real vars."""
    return Var(2 * a) + Const(1j) * Var(2 * a + 1)


def immersion_r2_c3() -> SmoothMap:
    """R^2 -> C^3 with every component x1 + i x2.

    Harmonic and pseudo horizontally weakly conformal (each Gram entry is
    1^2 + i^2 = 0) but an immersion into a higher-dimensional target, so it
    cannot be horizontally weakly conformal.
    """
    z = Var(0) + Const(1j) * Var(1)
    return SmoothMap(2, 3, [z, z, z])


def linear_r4_c2() -> SmoothMap:
    """R^4 -> C^2, both components i(x1 + x2) + x3 + x4.

    Linear, hence harmonic; sum_i (d_i phi)^2 = i^2 + i^2 + 1 + 1 = 0, so it
    satisfies the PHWC condition, yet the induced inner products on the
    horizontal space rule out horizontal weak conformality.
    """
    comp = Const(1j) * (Var(0) + Var(1)) + Var(2) + Var(3)
    return SmoothMap(4, 2, [comp, comp])


def holomorphic_polynomial(rng, nvars: int, max_degree: int = 3) -> Expr:
    """Random holomorphic polynomial in z^1..z^nvars; each coefficient has
    real and imaginary parts in [-1, 1]."""
    nterms = int(rng.integers(2, 5))
    e: Expr = Const(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    for _ in range(nterms):
        c = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        powers = rng.integers(0, max_degree + 1, size=nvars)
        while powers.sum() == 0 or powers.sum() > max_degree:
            powers = rng.integers(0, max_degree + 1, size=nvars)
        term: Expr = Const(c)
        for a in range(nvars):
            if powers[a]:
                term = term * zvar(a) ** int(powers[a])
        e = e + term
    return e


def random_holomorphic_map(rng, n_in: int, n_out: int) -> SmoothMap:
    """Holomorphic polynomial map C^{n_in} -> C^{n_out} of degree at most 3
    on the real chart."""
    return SmoothMap(2 * n_in, n_out, [holomorphic_polynomial(rng, n_in)
                                       for _ in range(n_out)])


def random_polynomial_map(rng, m: int, n: int) -> SmoothMap:
    """Generic (typically non-PHWC) polynomial map R^m -> C^n, each
    exponent at most 2."""
    comps = []
    for _ in range(n):
        e: Expr = Const(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        for _ in range(int(rng.integers(2, 5))):
            c = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            powers = rng.integers(0, 3, size=m)
            if powers.sum() == 0:
                powers[rng.integers(m)] = 1
            term: Expr = Const(c)
            for i in range(m):
                if powers[i]:
                    term = term * Var(i) ** int(powers[i])
            e = e + term
        comps.append(e)
    return SmoothMap(m, n, comps)


def random_polynomial_metric(rng, m: int) -> MetricField:
    """SPD metric I + B(x)^T B(x) with affine B, coefficients in
    [-1/4, 1/4]; mild condition number."""
    rows = []
    for _ in range(m):
        row = []
        for _ in range(m):
            e: Expr = Const(rng.uniform(-0.25, 0.25))
            for k in range(m):
                e = e + Const(rng.uniform(-0.25, 0.25)) * Var(k)
            row.append(e)
        rows.append(row)
    comps = [[Const(1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = comps[i][j]
            for k in range(m):
                acc = acc + rows[k][i] * rows[k][j]
            comps[i][j] = acc
    return MetricField(m, comps)


def random_kaehler_metric(rng, n: int) -> HermitianMetricField:
    """delta + sum_k c_k dm_k (dm_k)^* for holomorphic monomials m_k.

    These come from the potential |z|^2 + sum_k c_k |m_k|^2, so they are
    exactly Kaehler and positive definite on the whole chart.
    """
    comps = [[Const(1.0 if a == b else 0.0) for b in range(n)] for a in range(n)]
    for _ in range(3):
        c = rng.uniform(0.05, 0.4)
        powers = rng.integers(0, 3, size=n)
        if np.all(powers == 0):
            powers[rng.integers(n)] = 1
        dmon = []
        for a in range(n):
            if powers[a] == 0:
                dmon.append(Const(0.0))
                continue
            e: Expr = Const(float(powers[a]))
            for b in range(n):
                pw = int(powers[b]) - (1 if b == a else 0)
                if pw > 0:
                    e = e * zvar(b) ** pw
            dmon.append(e)
        for a in range(n):
            for b in range(n):
                comps[a][b] = comps[a][b] + Const(c) * dmon[a] * conj(dmon[b])
    return HermitianMetricField(n, comps, kaehler=True)


def non_kaehler_hermitian_c2() -> HermitianMetricField:
    """Hermitian but non-Kaehler metric on C^2 (closedness fails by 1/2)."""
    return HermitianMetricField(2, [
        [Const(1.0) + Var(2), Const(0.0)],
        [Const(0.0), Const(1.0)],
    ], kaehler=False)


def sample_points(rng, count: int, box) -> np.ndarray:
    """count points uniform in the per-axis box [[lo, hi], ...]."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    return lo + (hi - lo) * rng.random((count, len(box)))
