"""Grid-discretised probability densities and MAD sandwich verification.

This is deliberately generic machinery: densities on a uniform grid, their
medians and mean absolute deviations, discrete cross-correlation, and
numerical checks of the two sandwich inequalities

    max(D(f), D(g)) <= D(f cross-correlated with g) <= D(f) + D(g),
    max(pf*D(f) + pg*D(g), min(pf,pg)*(mf - mg))
        <= D(pf*f + pg*g) <= pf*D(f) + pg*D(g) + min(pf,pg)*(mf - mg),

the second for densities even about their medians. Tolerances scale with the
grid step because the inequalities are exact only in the continuum.

The lower bounds need the broadening kernel's shape not to depend on the
level. Without that, the paper's fine-tuned level-dependent counterexample
pairs a unit-box density with a three-atom conditional distribution whose
outer atoms always dodge the box: the resulting pseudo-density carries only
mass eta and MAD eta/4, so no lower bound on the broadened spread survives.
Its atoms cannot be gridded faithfully, so it is stated here, not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .units import store_finite


class StepMismatch(ValueError):
    """Cross-correlation of grids with different step sizes."""


class AsymmetricInput(ValueError):
    """A symmetric density was required but not supplied."""


@dataclass(frozen=True)
class GridPdf:
    origin: float
    step: float
    densities: np.ndarray = field(repr=False)

    def __post_init__(self):
        store_finite(self, "origin", "step")
        dens = np.asarray(self.densities, dtype=float)
        object.__setattr__(self, "densities", dens)
        if self.step <= 0:
            raise ValueError("step must be strictly positive")
        if dens.ndim != 1 or dens.size == 0:
            raise ValueError("densities must be a non-empty 1-D sequence")
        if np.any(dens < 0):
            raise ValueError("densities must be non-negative")
        # a NaN or infinite density makes the mass NaN or infinite
        mass = self.step * float(dens.sum())
        if not math.isfinite(mass):
            raise ValueError(f"densities must be finite, got total mass {mass}")
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density not normalised: total mass {mass}")

    @property
    def xs(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.densities.size)

    @staticmethod
    def from_samples(origin: float, step: float,
                     values: np.ndarray) -> "GridPdf":
        """Build a normalised GridPdf from non-negative samples."""
        values = np.clip(np.asarray(values, dtype=float), 0.0, None)
        total = step * values.sum()
        if total <= 0:
            raise ValueError("samples carry no mass")
        return GridPdf(origin, step, values / total)


def grid_median(f: GridPdf) -> float:
    """x where the (linearly interpolated) CDF crosses 1/2.

    Each density sample is read as the value on a cell of width ``step``
    centred on its grid point.
    """
    cum = f.step * np.cumsum(f.densities)
    i = int(np.searchsorted(cum, 0.5))
    right_edge = f.origin + (i + 0.5) * f.step
    # cum rises to 1/2 first at cell i, so densities[i] > 0
    return right_edge - (cum[i] - 0.5) / f.densities[i]


def grid_mad(f: GridPdf) -> float:
    """Mean absolute deviation about the grid median.

    The weighted sum is an ``einsum``, not ``ndarray.dot``: a threaded BLAS
    ``ddot`` on the 16k-point correlation grids stalls for milliseconds on
    about one call in ten on a 2-core machine.
    """
    return f.step * float(np.einsum("i,i->", np.abs(f.xs - grid_median(f)),
                                    f.densities))


def _fft_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a fast FFT length, close to n."""
    best = 1 << max(0, (n - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35 << max(0, (-(-n // p35) - 1).bit_length())
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def grid_cross_correlate(f: GridPdf, g: GridPdf) -> GridPdf:
    """Discrete cross-correlation h(x) = sum_y f(y) g(y - x) step.

    Support is the Minkowski difference of the supports; the result is
    renormalised to absorb the discretisation leakage. The linear
    correlation is an FFT product padded to a 5-smooth length.
    """
    if not math.isclose(f.step, g.step, rel_tol=1e-12):
        raise StepMismatch(f"steps differ: {f.step} vs {g.step}")
    n = f.densities.size + g.densities.size - 1
    size = _fft_size(n)
    vals = np.fft.irfft(np.fft.rfft(f.densities, size)
                        * np.fft.rfft(g.densities[::-1], size),
                        size)[:n] * f.step
    origin = f.origin - g.origin - (g.densities.size - 1) * f.step
    return GridPdf.from_samples(origin, f.step, vals)


@dataclass(frozen=True)
class LemmaReport:
    lower_ok: bool
    upper_ok: bool
    values: dict

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def verify_lemma1(f: GridPdf, g: GridPdf) -> LemmaReport:
    """Check the cross-correlation MAD sandwich on a concrete pair."""
    df = grid_mad(f)
    dg = grid_mad(g)
    dfg = grid_mad(grid_cross_correlate(f, g))
    tol = 5.0 * f.step * (1.0 + df + dg)
    return LemmaReport(
        lower_ok=dfg >= max(df, dg) - tol,
        upper_ok=dfg <= df + dg + tol,
        values={"d_f": df, "d_g": dg, "d_fg": dfg,
                "lower": max(df, dg), "upper": df + dg, "tol": tol},
    )


def _check_symmetric(f: GridPdf) -> float:
    m = grid_median(f)
    # pad with a zero cell per side so float fuzz in the median cannot push a
    # reflected boundary point abruptly off-grid
    xs = np.concatenate(([f.xs[0] - f.step], f.xs, [f.xs[-1] + f.step]))
    dens = np.concatenate(([0.0], f.densities, [0.0]))
    reflected = np.interp(2.0 * m - f.xs, xs, dens, left=0.0, right=0.0)
    if np.max(np.abs(f.densities - reflected)) > 1e-6 * max(
            1.0, float(f.densities.max())):
        raise AsymmetricInput("density is not even about its median")
    return m


def _mixture(f: GridPdf, g: GridPdf, p_f: float) -> GridPdf:
    if not math.isclose(f.step, g.step, rel_tol=1e-12):
        raise StepMismatch(f"steps differ: {f.step} vs {g.step}")
    step = f.step
    shift = (g.origin - f.origin) / step
    if abs(shift - round(shift)) > 1e-9:
        raise StepMismatch("grids are not aligned to a common lattice")
    shift = int(round(shift))
    lo = min(0, shift)
    hi = max(f.densities.size, shift + g.densities.size)
    vals = np.zeros(hi - lo)
    vals[-lo:f.densities.size - lo] += p_f * f.densities
    vals[shift - lo:shift - lo + g.densities.size] += (1.0 - p_f) * g.densities
    return GridPdf(f.origin + lo * step, step, vals)


def verify_lemma2(f: GridPdf, g: GridPdf, p_f: float) -> LemmaReport:
    """Check the convex-mixture MAD sandwich for symmetric densities."""
    if not 0.0 < p_f < 1.0:
        raise ValueError("p_f must lie strictly in (0, 1)")
    m_f = _check_symmetric(f)
    m_g = _check_symmetric(g)
    if m_f < m_g:
        f, g = g, f
        m_f, m_g = m_g, m_f
        p_f = 1.0 - p_f
    p_g = 1.0 - p_f
    df = grid_mad(f)
    dg = grid_mad(g)
    sep = min(p_f, p_g) * (m_f - m_g)
    dh = grid_mad(_mixture(f, g, p_f))
    tol = 5.0 * f.step * (1.0 + df + dg + (m_f - m_g))
    lower = max(p_f * df + p_g * dg, sep)
    upper = p_f * df + p_g * dg + sep
    return LemmaReport(
        lower_ok=dh >= lower - tol,
        upper_ok=dh <= upper + tol,
        values={"d_f": df, "d_g": dg, "d_mix": dh, "m_f": m_f, "m_g": m_g,
                "p_f": p_f, "lower": lower, "upper": upper, "tol": tol},
    )


# -- random density generators for the property suites ------------------------

GRID_LO = -8.0
GRID_HI = 8.0
GRID_STEP = 1.0 / 512.0


def _bump(xs: np.ndarray, kind: str, centre: float, width: float) -> np.ndarray:
    if kind == "uniform":
        return ((np.abs(xs - centre) <= width) / (2.0 * width)).astype(float)
    if kind == "triangle":
        return np.clip(1.0 - np.abs(xs - centre) / width, 0.0, None) / width
    z = (xs - centre) / width
    return np.exp(-0.5 * z * z) / (width * math.sqrt(2.0 * math.pi))


def random_grid_pdf(rng: np.random.Generator) -> GridPdf:
    """Mixture of 1-4 uniform/triangular/Gaussian bumps, normalised."""
    xs = np.arange(GRID_LO, GRID_HI + 0.5 * GRID_STEP, GRID_STEP)
    vals = np.zeros_like(xs)
    for _ in range(rng.integers(1, 5)):
        kind = rng.choice(["uniform", "triangle", "gaussian"])
        centre = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.05, 1.0)
        vals += rng.uniform(0.2, 1.0) * _bump(xs, kind, centre, width)
    return GridPdf.from_samples(GRID_LO, GRID_STEP, vals)


def random_symmetric_grid_pdf(rng: np.random.Generator) -> GridPdf:
    """Single symmetric bump centred exactly on a grid point."""
    xs = np.arange(GRID_LO, GRID_HI + 0.5 * GRID_STEP, GRID_STEP)
    kind = rng.choice(["triangle", "gaussian"])
    centre_idx = rng.integers(xs.size // 4, 3 * xs.size // 4)
    centre = xs[centre_idx]
    width = rng.uniform(0.05, 1.0)
    vals = _bump(xs, kind, centre, width)
    # xs - centre is exact on this dyadic grid, so the bump is even about
    # centre_idx; zero what has no mirror image on the grid
    n = min(centre_idx, xs.size - 1 - centre_idx)
    vals[:centre_idx - n] = 0.0
    vals[centre_idx + n + 1:] = 0.0
    return GridPdf.from_samples(GRID_LO, GRID_STEP, vals)
