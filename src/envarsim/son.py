"""Power-law generalization of the Born rule and the exponent fit.

For a singlet measured along two directions separated by Bloch angle
2*theta, write p(theta) = |amplitude(outcomes equal)| and q(theta) =
|amplitude(outcomes differ)|. Son's theory keeps the quantum amplitudes but
assigns probabilities |psi|^n instead of |psi|^2, constrained by

    p(theta)^n + q(theta)^n = 1,
    p'(theta)^2 + q'(theta)^2 = c   (constant),
    E(0, n) = -1,  E(pi/2, n) = +1,

with E(theta, n) = p^n - q^n. The first two lines say that (p, q) runs
along the superellipse p^n + q^n = 1 at constant speed sqrt(c), so theta is
its arc length over sqrt(c); ``solve_son`` and the exponent fit read E
through one quadrature inversion of that arc length, made once per exponent
and distinct angle. The quadrature is a tanh-sinh rule with closed-form nodes
and weights, built on the first fit, so no run imports ``numpy.polynomial``,
and the state fit diagonalizes its 2x2 matrix in closed form. Ordinary quantum
mechanics is the n=2 case, where p = sin(theta), E = -cos(2*theta).

During the experiment's middle stage, rotating one qubit by phi (with the
same analyzer basis on both arms, basis orthogonal to the rotation axis)
is equivalent to measuring the singlet with analyzers 2*theta apart, where
2*theta = pi - |pi - 2*phi| folded periodically. One table, built once from
``tomography_projectors().settings``, gives each combo its rotation axis, its
analyzer basis and the index of the setting with that basis on both arms.
``extract_correlation`` turns that setting's four counts into a correlation
sample and ``son_fit`` estimates n from several such data sets, using the
near-ideal model E(phi,n,rho) ~ E(phi,n,singlet) + E(phi,2,rho) - E(phi,2,singlet),
valid for states close to the singlet and n close to 2. The state enters
only through E(phi,2,rho) = A cos(2*phi) + B sin(2*phi) with A^2 + B^2 <= 1,
so for a given n the state is one weighted 2x2 least-squares solve on a disk,
and n takes a few Gauss-Newton steps on what it leaves (variable projection,
Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, check_integer, check_real
from .linalg import apply_local, su2_rotation
from .measurement import CountRecord, tomography_projectors
from .optics import STACK_ROTATION_SIGN, named_axis_vector

__all__ = [
    "COMBOS",
    "CorrelationCurve",
    "CorrelationSample",
    "SonFitResult",
    "solve_son",
    "phi_to_theta",
    "extract_correlation",
    "correlation_operator",
    "fit_obstacle",
    "son_fit",
    "fitted_correlation",
]

# Rotation-axis / measurement-basis pairs used for the exponent fit; in
# each pair the basis Bloch axis is orthogonal to the rotation axis.
COMBOS = ("Z-DA", "Z-RL", "Y-DA", "Y-HV", "X-RL", "X-HV")

# combo -> (rotation axis tag, analyzer basis pair, index of the setting with that basis on both arms)
_COMBO_TABLE = {
    combo: (combo[0].lower(), setting.basis_s, k)
    for combo in COMBOS
    for k, setting in enumerate(tomography_projectors().settings)
    if setting.label == f"{combo[2:]}-{combo[2:]}"
}


def minimize(*args, **kwargs):
    # inert: bench/tracing.py resolves son.minimize by name, for a state fit
    # that no longer exists. ROADMAP item 1 deletes it with that lookup.
    raise NotImplementedError("son fits no state by a numerical minimizer")


def phi_to_theta(phi):
    """Half-angle between analyzer directions after rotating one arm by phi.

    Implements 2*theta = pi - |pi - 2*phi| with 2*phi taken modulo 2*pi,
    which makes the map symmetric about phi = pi and 2*pi-periodic.
    """
    two_phi = np.mod(2 * np.asarray(phi, dtype=float), 2 * np.pi)
    out = (np.pi - np.abs(np.pi - two_phi)) / 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CorrelationCurve:
    """E(theta, n) sampled on a uniform theta grid over [0, pi/2].

    ``p`` and ``q`` are the equal/differ amplitude moduli at each node and
    ``c`` the constant of the derivative constraint; they are kept so the
    defining relations can be checked directly on solver output.
    """

    theta_grid: np.ndarray
    values: np.ndarray
    n: float
    p: np.ndarray
    q: np.ndarray
    c: float

    def __post_init__(self) -> None:
        if self.theta_grid.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(np.abs(self.values) > 1 + 1e-12):
            raise ValueError("correlation values must lie in [-1, 1]")
        if np.any(np.diff(self.values) < -1e-10):
            raise ValueError("E(theta) must be non-decreasing on [0, pi/2]")
        for name in ("theta_grid", "values", "p", "q"):
            getattr(self, name).setflags(write=False)


@functools.cache
def _arc_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the arc-length quadrature on (0, 1), built on the first son fit.

    The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 721, 1974) with step
    h = 1/12 at t = k h, |k| <= 39: x = 1 / (1 + exp(-2 s)), s = (pi/2) sinh t,
    and w = pi h cosh t x (1 - x). Its nodes crowd both ends, where the
    (tracked/other)^(2n-2) term of the arc-length integrand is singular (at 0)
    or turns sharply (at the midpoint, for large n), so the arc length holds
    to 1e-15 relative for n in [0.2, 10] and 5e-11 over [0.1, 10000]. A node
    that rounds to 1 is dropped, leaving 77 whose weights sum to 1 within 4e-16.
    """
    # exp only: a process's first np.sinh call pages in 128 kB more of numpy's code (numpy 2.4.6, x86_64)
    u = np.exp(np.arange(-39, 40) / 12)
    e = np.exp(-np.pi / 2 * (u - 1 / u))
    x = 1 / (1 + e)
    w = np.pi / 24 * (u + 1 / u) * x * e * x
    return x[x < 1], w[x < 1]


_ARC_ROWS = 128  # rows per arc-length call: its (rows, nodes) temporaries stay about 100 kB


def _arc_speed(d: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc length per unit of d along p^n + q^n = 1, and the (tracked, other) moduli.

    d is the distance of the tracked modulus from its value at theta = 0:
    p = d for n >= 1, q = 1 - d for n < 1. That modulus is the regular one on
    [0, pi/4], where (tracked/other)^(2n-2) stays bounded. n holds an exponent
    per entry of d: numpy's power loop may take square or sqrt for a broadcast
    2 or 0.5, by loop layout, which would tie a row's bits to its neighbours.
    """
    low = n < 1
    with np.errstate(divide="ignore"):
        tracked, log_tracked = (np.where(low, 1 - d, d), np.where(low, np.log1p(-d), np.log(d))) if low.any() else (d, np.log(d))
        other = (-np.expm1(n * log_tracked)) ** (1 / n)
        return np.sqrt(1 + (tracked / other) ** (2 * n - 2)), tracked, other


def _arc_length(d: np.ndarray, n) -> np.ndarray:
    # summed per row: a BLAS gemv's row sums depend on how many rows share
    # the call, so one angle's arc length would move with the other angles
    x, w = _arc_rule()
    nodes = d[..., None] * x
    n = np.broadcast_to(np.asarray(n)[..., None], nodes.shape).copy()
    return d * np.sum(_arc_speed(nodes, n)[0] * w, axis=-1)


def _son_moduli(theta, n) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """The amplitude moduli (p, q) at angles theta in [0, pi/2], and the constant c.

    theta is arc length over sqrt(c), and the midpoint p = q = 2^(-1/n) lies
    at theta = pi/4, which fixes c. Angles up to pi/4 invert the arc length by
    Newton steps over ``_arc_rule``'s quadrature; larger ones fold through the
    mirror q(theta) = p(pi/2 - theta). An array n prepends its axes to p and q
    and gives one c per exponent. Each (exponent, distinct folded angle) row
    leaves the Newton loop once it misses its arc length by at most 1e-13, so
    it gets the bits it gets alone; ConvergenceError if one misses after 50 steps.
    """
    exponents = np.reshape(n, (-1, 1)).astype(float)
    d_mid = np.where(exponents >= 1, 2 ** (-1 / exponents), 1 - 2 ** (-1 / exponents))
    s_mid = _arc_length(d_mid, exponents)
    mirrored = theta > np.pi / 4
    folded, inverse = np.unique(np.where(mirrored, np.pi / 2 - theta, theta), return_inverse=True)
    # the arc length is >= d, so d = target starts at or above each angle, and
    # it is convex in d, so Newton steps descend monotonically onto the angle
    target = s_mid * folded / (np.pi / 4)
    d = np.minimum(target, d_mid)
    rows, row_d, row_n, row_target = np.arange(d.size), d.reshape(-1), np.repeat(exponents, folded.size), target.ravel()
    for _ in range(50):
        chunks = np.split(rows, range(_ARC_ROWS, rows.size, _ARC_ROWS))
        miss = np.concatenate([_arc_length(row_d[c], row_n[c]) for c in chunks]) - row_target[rows]
        missed = ~(np.abs(miss) <= 1e-13)  # a NaN miss stays missed
        rows, miss = rows[missed], miss[missed]
        if not rows.size:
            break
        row_d[rows] -= miss / _arc_speed(row_d[rows], row_n[rows])[0]
    else:
        missed = np.unique(row_n[rows])  # the exponents with an angle still missed, ascending
        raise ConvergenceError(
            f"arc-length inversion misses an angle by {abs(miss).max():.3e} for {missed.size} exponents in [{missed[0]:g}, {missed[-1]:g}]"
        )
    # numpy 1.24 gives a 0-d theta a (1,) inverse
    tracked, other = (m[:, inverse.reshape(np.shape(theta))] for m in _arc_speed(d, row_n.reshape(d.shape))[1:])
    p_is_tracked = (exponents >= 1).reshape((-1,) + (1,) * np.ndim(theta)) != mirrored
    shape, c = np.shape(n) + np.shape(theta), (s_mid.reshape(np.shape(n)) / (np.pi / 4)) ** 2
    p, q = np.where(p_is_tracked, tracked, other), np.where(p_is_tracked, other, tracked)
    return p.reshape(shape), q.reshape(shape), float(c) if c.ndim == 0 else c


# the exponents where solve_son's curve keeps |E(pi/4)| <= 1e-12, with no overflow (scanned at
# 12,000 exponents), and matches adaptive quadrature to 4e-9 in E (at 1e4; 1.7e-11 at 0.1)
_N_RANGE = (0.1, 1e4)
_MAX_GRID = int(np.iinfo(np.intp).max)  # nodes of the longest array numpy can index


def solve_son(n: float, grid_size: int = 257) -> CorrelationCurve:
    """E(theta, n) = p^n - q^n at ``grid_size`` uniform nodes over [0, pi/2].

    p and q come from ``_son_moduli``, the arc-length inversion the exponent fit reads.
    n must lie in ``_N_RANGE``: outside it E(pi/4), 0 for every n by symmetry,
    misses by more than 1e-12 (by 1 at n = inf), or the inversion overflows.
    Inside it E is within 4e-9 of an adaptive-quadrature reference on a
    4097-node grid, and within 7e-13 for n in [0.2, 10].
    """
    check_real(n, f"the exponent n must be positive and in [{_N_RANGE[0]:g}, {_N_RANGE[1]:g}]", ge=_N_RANGE[0], le=_N_RANGE[1])
    check_integer(grid_size, f"grid_size must be an integer of at least 16 and at most {_MAX_GRID}", 16, _MAX_GRID)
    theta = np.linspace(0.0, np.pi / 2, grid_size)
    p, q, c = _son_moduli(theta, n)
    return CorrelationCurve(theta_grid=theta, values=p**n - q**n, n=float(n), p=p, q=q, c=c)


@dataclass(frozen=True)
class CorrelationSample:
    """One measured correlation point E(phi) with its Poisson uncertainty."""

    combo: str
    phi: float
    value: float
    sigma: float

    def __post_init__(self) -> None:
        _combo_entry(self.combo)
        check_real(self.phi, "phi must be finite")
        check_real(self.value, "correlation value must lie in [-1, 1]", ge=-1, le=1)
        check_real(self.sigma, "sigma must be positive and finite", gt=0)


def _combo_entry(combo: str) -> tuple[str, tuple[str, str], int]:
    """A combo's row of ``_COMBO_TABLE``; ValueError for a label not in ``COMBOS``."""
    if combo not in COMBOS:
        raise ValueError(f"unknown combo {combo!r}; expected one of {COMBOS}")
    return _COMBO_TABLE[combo]


def combo_axis_and_basis(combo: str) -> tuple[str, tuple[str, str]]:
    """Split a combo label into (rotation axis tag, analyzer basis pair)."""
    axis, basis, _ = _combo_entry(combo)
    return axis, basis


def extract_correlation(counts: CountRecord, combo: str, phi: float) -> CorrelationSample:
    """Correlation E = (n_same - n_diff) / n_total from one analyzer setting.

    Outcomes 1 and 4 of the setting (both arms on the same basis state) are
    "same"; outcomes 2 and 3 are "diff". The uncertainty follows first-order
    Poisson propagation, sigma = 2*sqrt(n_same*n_diff/n_total^3), floored at
    1/n_total so noiseless perfect correlations keep a usable weight.
    """
    _, basis, idx = _combo_entry(combo)
    block = counts.counts[4 * idx : 4 * idx + 4].astype(float)
    total = block.sum()
    if total <= 0:
        raise ValueError(f"setting {basis} has zero total counts")
    n_same, n_diff = block[0] + block[3], block[1] + block[2]
    value = (n_same - n_diff) / total
    sigma = max(2.0 * math.sqrt(n_same * n_diff / total**3), 1.0 / total)
    return CorrelationSample(combo=combo, phi=float(phi), value=float(value), sigma=float(sigma))


def correlation_operator(combo: str, phi: float) -> np.ndarray:
    """Observable whose expectation on rho is E(phi, 2, rho) for a combo.

    Models the middle experiment stage: rotate the system qubit by the
    Bloch angle 2*phi about the combo's axis (in the sense realized by the
    wave-plate stacks), then measure both arms in the combo's basis.
    """
    axis, _, idx = _combo_entry(combo)
    u = su2_rotation(named_axis_vector(axis), STACK_ROTATION_SIGN * 2 * phi)
    p0, p1, p2, p3 = tomography_projectors().settings[idx].projectors
    return apply_local(u.conj().T, np.eye(2), p0 - p1 - p2 + p3)


@dataclass(frozen=True)
class SonFitResult:
    """Fitted exponent; ``state_ab`` holds each combo's fitted (A, B) with
    E(phi, 2, rho) = A cos(2 phi) + B sin(2 phi). ``per_combo_at_edge`` says
    whether a combo's n settled on a bound of [1, 3], past which the profile
    may still fall."""

    n: float
    n_uncertainty: float
    per_combo_n: tuple[float, ...]
    per_combo: tuple[str, ...]
    state_ab: dict[str, tuple[float, float]]
    objective: float
    per_combo_at_edge: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.objective < 0:
            raise ValueError("objective must be non-negative")


# the exponent fit's range of n, half step of dS/dn, settling step and step limit
_N_BOUNDS, _N_DIFF, _N_TOL, _N_MAX_STEPS = (1.0, 3.0), 1e-4, 1e-9, 50


def _n_shift(n, phis: np.ndarray) -> np.ndarray:
    """E(theta, n, singlet) - E(theta, 2, singlet) at the angles phis; an array n gives one row per exponent."""
    theta = phi_to_theta(phis)
    p, q, _ = _son_moduli(theta, n)
    # an exponent for every entry, as in _arc_speed
    n = np.broadcast_to(np.reshape(n, np.shape(n) + (1,) * np.ndim(theta)), np.shape(p)).copy()
    return np.power(p, n) - np.power(q, n) + np.cos(2 * theta)


def _secular_root(g: np.ndarray, mu: np.ndarray) -> float:
    """The t in (0, |g|] with |g / (mu + t)| = 1, for mu >= 0 and |g / mu| > 1.

    |g / (mu + t)| falls from above 1 at t = 0 to at most 1 at t = |g|. The
    root comes from Newton steps on 1 - 1/|g / (mu + t)|, which is convex and
    decreasing in t (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553,
    1983), so from t = 0 they climb onto the root without overshooting; a
    step that rounding pushes out of the bracket bisects it instead. An
    entry mu = inf contributes nothing.
    """
    lo, hi, t = 0.0, float(np.linalg.norm(g)), 0.0
    for _ in range(100):
        p = g / (mu + t)
        norm = math.sqrt(p @ p)
        if norm == 1:
            break
        lo, hi = (t, hi) if norm > 1 else (lo, t)
        t_next = t + (norm - 1) * norm**2 / (p @ (p / (mu + t)))
        if not lo < t_next < hi:
            t_next = (lo + hi) / 2
        if t_next == t:
            break
        t = t_next
    return t


def _eigh2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a symmetric 2x2 [[a, b], [b, c]] in closed form: ascending eigenvalues, vector columns.

    The larger eigenvalue's vector lies at theta = atan2(2b, a - c) / 2; the
    smaller is det / larger, with no cancellation in a + c - hypot(a - c, 2b).
    """
    (a, _), (b, c) = m  # the lower triangle, as eigh reads it
    hi, theta = (a + c) / 2 + math.hypot((a - c) / 2, b), math.atan2(2 * b, a - c) / 2
    cos, sin = math.cos(theta), math.sin(theta)
    return np.array([(a * c - b * b) / hi, hi]), np.array([[-sin, cos], [cos, sin]])


def _state_fit(phis: np.ndarray, values: np.ndarray, weights: np.ndarray):
    """One combo's state fit, set up once: a function of ``_n_shift(n, phis)`` giving (weighted objective, (A, B)).

    Every combo's correlation_operator(phi) is cos(2 phi) O0 + sin(2 phi) O1
    with O0, O1 anticommuting and squaring to 1, so the physical (A, B) =
    (<O0>, <O1>) fill exactly the unit disk. The fit is a weighted 2x2 least
    squares; a solution outside the disk moves onto the circle, where
    (M + lam I) ab = g with lam > 0 the root of the secular equation
    |g / (mu + lam)| = 1 in M's eigenbasis (M = V diag(mu) V^T by ``_eigh2``,
    g = V^T x^T W target). ``_secular_root`` finds it by bracketed Newton steps.
    """
    x = np.stack([np.cos(2 * phis), np.sin(2 * phis)], axis=1)
    mu, v = _eigh2(x.T @ (weights[:, None] * x))
    # a direction the angles do not probe (every sin 2phi = 0) stays at 0
    mu = np.where(mu > 1e-12 * mu[-1], mu, np.inf)

    def fit(shift: np.ndarray) -> tuple[float, np.ndarray]:
        target = values - shift
        g = v.T @ (x.T @ (weights * target))
        lam = _secular_root(g, mu) if np.sum((g / mu) ** 2) > 1 else 0.0
        ab = v @ (g / (mu + lam))
        return float(weights @ (x @ ab - target) ** 2), ab

    return fit


def fit_obstacle(phis_by_combo) -> str | None:
    """Why these angles phi per combo cannot fix the exponent n, or None when they can."""
    if not phis_by_combo:
        return "no correlation combo to fit (only the x, y and z rotation axes support one)"
    for combo, phis in phis_by_combo.items():
        if len(phis) < 5:
            return f"combo {combo} needs at least 5 rotation angles, not {len(phis)}"
        # at a multiple of pi/4, phi_to_theta gives theta in {0, pi/4, pi/2}, where p = 1, p = q
        # or q = 1 and every E(theta, n) is -1, 0 or +1 whatever n: only angles off it tell n apart
        quarter_turns = 4 * np.asarray(phis, dtype=float) / np.pi
        if not np.any(np.abs(quarter_turns - np.round(quarter_turns)) > 1e-9):
            return f"combo {combo} has no angle phi off a multiple of 45 degrees, where E is the same for every n"
    return None


def son_fit(samples: list[CorrelationSample]) -> SonFitResult:
    """Weighted fit of the Born-rule exponent n to correlation samples.

    Each combo is fitted alone: (A, B) by ``_state_fit`` at n, and n by
    Gauss-Newton steps -sum(w J r) / sum(w J^2) from 2, clamped to [1, 3],
    with J the central difference over n -+ 1e-4 of the residual r of that
    fit, which is dS/dn projected off the (A, B) columns. A combo stops once
    a step would move n by at most 1e-9; ConvergenceError after 50 steps.
    Each step inverts the moving combos' exponents in one ``_n_shift``, and
    each combo gets the bits it gets alone. The reported n is the mean of the
    per-combo estimates and its uncertainty their sample standard deviation.
    The model linearization holds for states near the singlet and n near 2.
    Samples that ``fit_obstacle`` rejects raise ValueError.
    """
    by_combo = {combo: sorted((s for s in samples if s.combo == combo), key=lambda s: s.phi) for combo in COMBOS}
    groups = {combo: grp for combo, grp in by_combo.items() if grp}
    obstacle = fit_obstacle({combo: [s.phi for s in grp] for combo, grp in groups.items()})
    if obstacle is not None:
        raise ValueError(obstacle)

    phis = [np.array([s.phi for s in grp]) for grp in groups.values()]
    values = [np.array([s.value for s in grp]) for grp in groups.values()]
    weights = [np.array([1.0 / s.sigma**2 for s in grp]) for grp in groups.values()]
    all_phis, ends = np.concatenate(phis), np.cumsum([len(p) for p in phis])
    spans = [slice(end - len(p), end) for end, p in zip(ends, phis)]
    state_fits = [_state_fit(p, v, w) for p, v, w in zip(phis, values, weights)]
    n, fits, active = [2.0] * len(phis), [None] * len(phis), list(range(len(phis)))
    for _ in range(_N_MAX_STEPS):
        moved = list(n)
        # every moving combo's n and n -+ h in one inversion
        for i, rows in zip(active, _n_shift(np.array([(n[i], n[i] - _N_DIFF, n[i] + _N_DIFF) for i in active]), all_phis)):
            fitted = [(state_fits[i](shift), shift) for shift in rows[:, spans[i]]]
            cos, sin, fits[i] = np.cos(2 * phis[i]), np.sin(2 * phis[i]), fitted[0][0]
            # the residuals of the (A, B) fits: their slope in n is dS/dn projected off the (A, B) columns
            residual, lower, upper = (a * cos + b * sin + shift - values[i] for (_, (a, b)), shift in fitted)
            slope = (upper - lower) / (2 * _N_DIFF)
            moved[i] = min(max(float(n[i] - weights[i] @ (slope * residual) / (weights[i] @ slope**2)), _N_BOUNDS[0]), _N_BOUNDS[1])
        # a settled combo keeps the n it was fitted at
        active = [i for i in active if abs(moved[i] - n[i]) > _N_TOL]
        n = [moved[i] if i in active else x for i, x in enumerate(n)]
        if not active:
            break
    else:
        raise ConvergenceError(f"the exponent of combos {[list(groups)[i] for i in active]} still moves after {_N_MAX_STEPS} steps")

    return SonFitResult(
        n=float(np.mean(n)),
        n_uncertainty=float(np.std(n, ddof=1)) if len(n) > 1 else 0.0,
        per_combo_n=tuple(n),
        per_combo=tuple(groups),
        state_ab={combo: (float(ab[0]), float(ab[1])) for combo, (_, ab) in zip(groups, fits)},
        objective=sum(objective for objective, _ in fits),
        per_combo_at_edge=tuple(x in _N_BOUNDS for x in n),
    )


def fitted_correlation(result: SonFitResult, combos, phis) -> np.ndarray:
    """The fitted model E(phi, n, rho) at the angles ``phis`` of one combo (a str), or one row per combo of a
    sequence; one stacked ``_n_shift`` serves all exponents, and each row has the bits of its one-combo call."""
    rows = [result.per_combo.index(combo) for combo in ([combos] if isinstance(combos, str) else combos)]
    phis = np.asarray(phis, dtype=float)
    a, b = np.array([result.state_ab[result.per_combo[i]] for i in rows]).T.reshape((2, -1) + (1,) * phis.ndim)
    values = _n_shift(np.array([result.per_combo_n[i] for i in rows]), phis) + a * np.cos(2 * phis) + b * np.sin(2 * phis)
    return values[0] if isinstance(combos, str) else values
