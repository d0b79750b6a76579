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
and distinct angle. The quadrature rule is built on first use, so a run
that fits no exponent never imports ``numpy.polynomial``. Ordinary quantum
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
so each candidate n costs one weighted 2x2 least-squares solve on a disk,
and one inversion per lattice stage serves every combo that profiles it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .linalg import su2_rotation
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
    "n_sensitive",
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


def __getattr__(name: str):
    # bench/tracing.py still looks up son.minimize by name; scipy is imported
    # only when asked for. Delete this with ROADMAP item 1, when the tracer
    # stops that lookup.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Nodes and weights of the arc-length quadrature, built on the first son fit.

    A 96-point Gauss-Legendre rule on [0, 1] for the substitution x = d*u**6
    (dx = 6*d*u**5 du), which smooths the (x/other)**(2n-2) endpoint term of
    the arc-length integrand; 96 points give c to about 1e-13 up to n = 10.
    Building it imports ``numpy.polynomial``, which no other path needs.
    """
    u, w = np.polynomial.legendre.leggauss(96)
    return ((u + 1) / 2) ** 6, 3 * ((u + 1) / 2) ** 5 * w


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
    Newton steps over Gauss-Legendre quadrature; larger ones fold through the
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


def solve_son(n: float, grid_size: int = 257) -> CorrelationCurve:
    """E(theta, n) = p^n - q^n at ``grid_size`` uniform nodes over [0, pi/2].

    p and q come from ``_son_moduli``, the arc-length inversion the exponent fit reads.
    """
    if n <= 0:
        raise ValueError("the exponent n must be positive")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
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
        if abs(self.value) > 1.0:
            raise ValueError("correlation value must lie in [-1, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


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
    diff_op = p0 - p1 - p2 + p3
    u_full = np.kron(u, np.eye(2, dtype=complex))
    return u_full.conj().T @ diff_op @ u_full


@dataclass(frozen=True)
class SonFitResult:
    """Fitted exponent; ``state_ab`` holds each combo's fitted (A, B) with
    E(phi, 2, rho) = A cos(2 phi) + B sin(2 phi). ``per_combo_at_edge`` says
    whether a combo's best n was an end point of some stage's lattice, where
    the profile may still fall beyond the searched range."""

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


# Exponent lattice of the fit, (half width, step) per refinement stage
_N_STAGES = ((0.5, 0.05), (0.05, 0.005), (0.005, 5e-4))


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


def _state_fit(phis: np.ndarray, values: np.ndarray, weights: np.ndarray):
    """One combo's state fit, set up once: a function of ``_n_shift(n, phis)`` giving (weighted objective, (A, B)).

    Every combo's correlation_operator(phi) is cos(2 phi) O0 + sin(2 phi) O1
    with O0, O1 anticommuting and squaring to 1, so the physical (A, B) =
    (<O0>, <O1>) fill exactly the unit disk. The fit is a weighted 2x2 least
    squares; a solution outside the disk moves onto the circle, where
    (M + lam I) ab = g with lam > 0 the root of the secular equation
    |g / (mu + lam)| = 1 in M's eigenbasis (M = V diag(mu) V^T, g = V^T
    x^T W target). ``_secular_root`` finds it by bracketed Newton steps.
    """
    x = np.stack([np.cos(2 * phis), np.sin(2 * phis)], axis=1)
    mu, v = np.linalg.eigh(x.T @ (weights[:, None] * x))
    # a direction the angles do not probe (every sin 2phi = 0) stays at 0
    mu = np.where(mu > 1e-12 * mu[-1], mu, np.inf)

    def fit(shift: np.ndarray) -> tuple[float, np.ndarray]:
        target = values - shift
        g = v.T @ (x.T @ (weights * target))
        lam = _secular_root(g, mu) if np.sum((g / mu) ** 2) > 1 else 0.0
        ab = v @ (g / (mu + lam))
        return float(weights @ (x @ ab - target) ** 2), ab

    return fit


def _n_lattice(center: float, half_width: float, step: float) -> np.ndarray:
    lo, hi = max(1.0, center - half_width), min(3.0, center + half_width)
    return np.array([k * step for k in range(int(round(lo / step)), int(round(hi / step)) + 1)])


def n_sensitive(phis) -> np.ndarray:
    """Which rotation angles phi carry information about the exponent n.

    At a multiple of pi/4, phi_to_theta gives theta in {0, pi/4, pi/2},
    where p = 1, p = q or q = 1 and every E(theta, n) is -1, 0 or +1
    whatever n; only angles off that lattice can tell exponents apart.
    """
    quarter_turns = 4 * np.asarray(phis, dtype=float) / np.pi
    return np.abs(quarter_turns - np.round(quarter_turns)) > 1e-9


def fit_obstacle(phis_by_combo) -> str | None:
    """Why these angles phi per combo cannot fix the exponent n, or None when they can."""
    if not phis_by_combo:
        return "no correlation combo to fit (only the x, y and z rotation axes support one)"
    for combo, phis in phis_by_combo.items():
        if len(phis) < 5:
            return f"combo {combo} needs at least 5 rotation angles, not {len(phis)}"
        if not n_sensitive(phis).any():
            return f"combo {combo} has no angle phi off a multiple of 45 degrees, where E is the same for every n"
    return None


def son_fit(samples: list[CorrelationSample]) -> SonFitResult:
    """Weighted fit of the Born-rule exponent n to correlation samples.

    Samples are grouped by combo and each combo is fitted independently:
    the exponent is profiled over a lattice refined down to 5e-4 around the
    best coarse value, and for every candidate n the state enters through the
    closed-form disk least squares of ``_state_fit``. The combos are evaluated
    together, one lattice stage at a time, with one stacked ``_n_shift`` for
    the stage's exponents; each combo gets the bits it gets alone. The
    reported n is the mean of the per-combo estimates and its uncertainty
    their sample standard deviation. The model linearization holds for states
    near the singlet and n near 2, so the coarse search spans [1.5, 2.5].
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
    best_n, at_edge = [2.0] * len(phis), [False] * len(phis)
    for half_width, step in _N_STAGES:
        lattices = [_n_lattice(center, half_width, step) for center in best_n]
        # every exponent of the stage in one inversion call
        union = sorted(set().union(*lattices))
        shifts = dict(zip(union, _n_shift(np.array(union), all_phis)))
        fits = []
        for i, lattice in enumerate(lattices):
            # nearest the center first, so an exact tie keeps the closer n
            nearest_first = sorted(lattice, key=lambda n: abs(n - best_n[i]))
            combo_fits = {n: state_fits[i](shifts[n][spans[i]]) for n in nearest_first}
            best_n[i] = min(combo_fits, key=lambda n: combo_fits[n][0])
            at_edge[i] = at_edge[i] or best_n[i] in (lattice[0], lattice[-1])
            fits.append(combo_fits[best_n[i]])

    n_arr = np.array(best_n)
    return SonFitResult(
        n=float(n_arr.mean()),
        n_uncertainty=float(n_arr.std(ddof=1)) if len(n_arr) > 1 else 0.0,
        per_combo_n=tuple(float(n) for n in best_n),
        per_combo=tuple(groups),
        state_ab={combo: (float(ab[0]), float(ab[1])) for combo, (_, ab) in zip(groups, fits)},
        objective=sum(objective for objective, _ in fits),
        per_combo_at_edge=tuple(at_edge),
    )


def fitted_correlation(result: SonFitResult, combos, phis) -> np.ndarray:
    """The fitted model E(phi, n, rho) at the angles ``phis`` of one combo (a str), or one row per combo of a
    sequence; one stacked ``_n_shift`` serves all exponents, and each row has the bits of its one-combo call."""
    rows = [result.per_combo.index(combo) for combo in ([combos] if isinstance(combos, str) else combos)]
    phis = np.asarray(phis, dtype=float)
    a, b = np.array([result.state_ab[result.per_combo[i]] for i in rows]).T.reshape((2, -1) + (1,) * phis.ndim)
    values = _n_shift(np.array([result.per_combo_n[i] for i in rows]), phis) + a * np.cos(2 * phis) + b * np.sin(2 * phis)
    return values[0] if isinstance(combos, str) else values
