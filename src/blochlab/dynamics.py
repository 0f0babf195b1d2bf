"""Short-time transition amplitudes between localized points on the ring.

The experiment: prepare a particle exactly at sample z (the discrete stand-in
for a position eigenstate, |z> = e_z / sqrt(h)), evolve for a short time
epsilon under H_m = H + R, and read the amplitude at sample y,

    amp(eps) = <y| exp(-i eps H_m / hbar) |z> = U_{yz}(eps) / h.

To first order in eps this is delta_{yz}/h - (i eps / hbar) H_{yz}/h, so the
small-time growth rate of |amp| between distinct points measures the kernel
entry connecting them: zero for a strictly banded H whenever the points are
farther apart than the band, nonzero as soon as R has long-range entries.
A projector R = h |W><W| stays rank one, kept as its site state W: no G x G R is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import WaveFunction, _integer, _number, _require_same_grid
from .lattice import OperatorMatrix, _require_hermitian

# Largest phase error, in radians, that one rounding of a Ritz value may cause.
_PHASE_TOL = 1e-8


@dataclass
class PropagationExperiment:
    """Fixed generator H_m = ``hamiltonian`` + h |site><site| and a source/target pair.

    ``hamiltonian`` is the dense part (H + R for a dense R), checked Hermitian tile by tile with
    no G x G temporary; ``site``, if given, is the rank-one projector's state W, applied as
    h W (W^dagger v).  ``source`` and ``target`` are sample indices.  Column ``source`` of
    exp(-i eps H_m / hbar) comes from a Lanczos basis grown from e_source on first use (Saad,
    SIAM J. Numer. Anal. 29, 1992; Hochbruck & Lubich, ibid. 34, 1997), cached, and extended
    only when a larger |epsilon| needs more vectors: no G x G diagonalization.
    """

    hamiltonian: OperatorMatrix
    source: int
    target: int
    hbar: float = 1.0
    site: WaveFunction | None = None

    def __post_init__(self):
        g = self.hamiltonian.grid.total_points
        _integer(self.source, "source", minimum=0, maximum=g - 1)
        _integer(self.target, "target", minimum=0, maximum=g - 1)
        _number(self.hbar, "hbar", positive=True)
        if self.site is not None:
            _require_same_grid(self.hamiltonian, self.site)
        _require_hermitian(self.hamiltonian.entries, "total generator")
        self._alpha, self._beta = [], []
        # np.zeros leaves untouched pages unmapped: only filled rows cost memory.
        dtype = complex if self.site is not None else self.hamiltonian.entries.dtype
        self._basis = np.zeros((g, g), dtype)
        self._basis[0, self.source] = 1.0

    def ring_distance(self) -> float:
        return self.hamiltonian.grid.ring_distance(self.source, self.target)

    def kernel_entry(self) -> complex:
        """Matrix entry H_m[target, source] that first-order theory probes; the projector's
        is wannier_projector's expression on two samples, so it has the bits of H + R."""
        entry = self.hamiltonian.entries[self.target, self.source]
        if self.site is not None:
            w = self.site.samples
            entry = entry + self.hamiltonian.grid.spacing * np.outer(
                w[[self.target]], w[[self.source]].conj())[0, 0]
        return complex(entry)

    def _extend(self, m: int) -> None:
        """Grow the basis to m vectors, or until its span is invariant
        (beta = 0, at the latest at m = G)."""
        while len(self._alpha) < m and not (self._beta and self._beta[-1] == 0.0):
            j = len(self._alpha)
            basis = self._basis[: j + 1]
            v, a = basis[j], self.hamiltonian.entries
            # A real H meets a complex v in two real GEMVs: float @ complex copies H as complex.
            w = a @ v if a.dtype == v.dtype else a @ v.real + 1j * (a @ v.imag)
            if self.site is not None:
                site = self.site.samples
                w += (self.hamiltonian.grid.spacing * np.vdot(site, v)) * site
            self._alpha.append(float(np.vdot(basis[j], w).real))
            for _ in range(2):  # full reorthogonalization; twice is enough
                w -= basis.T @ (basis.conj() @ w)
            self._beta.append(float(np.linalg.norm(w)) if j + 1 < len(w) else 0.0)
            if self._beta[-1] > 0.0:
                self._basis[j + 1] = w / self._beta[-1]

    def _krylov(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """c = exp(-i eps T_m / hbar) e_1 and basis rows V_m, U(eps) e_source = c @ V_m.

        Convergence is checked after every max(4, m // 8) new vectors; m is the
        first checked size at which the a-posteriori error estimate (Saad 1992)
        is at roundoff, beta_m |c_m| <= 8 u ||T_m|| (u the machine epsilon,
        ||T_m|| the largest |Ritz value|), or the size of an invariant Krylov
        space.  The estimate bottoms out near beta_m u, with beta_m ~ ||H_m|| / 4,
        so a fixed absolute threshold would never be met on a fine grid.
        m grows roughly like |eps| ||H_m|| / hbar.  eps = 0 gives e_1 exactly.
        A ValueError is raised when one rounding of a Ritz value moves the phases
        eps theta / hbar by more than _PHASE_TOL rad, that is u |eps/hbar| max|theta|.
        """
        tau = _number(epsilon, "epsilon") / self.hbar
        u = np.finfo(float).eps
        m, c = 0, np.ones(1)
        while tau != 0.0:
            m += max(4, m // 8)
            self._extend(m)
            m = min(m, len(self._alpha))
            off = self._beta[: m - 1]
            theta, q = np.linalg.eigh(np.diag(self._alpha[:m]) + np.diag(off, 1) + np.diag(off, -1))
            top = np.max(np.abs(theta))
            blur = u * abs(tau) * top
            if not blur <= _PHASE_TOL:  # NaN (inf tau, zero H_m) fails too
                raise ValueError(f"phases eps*theta/hbar are resolved only to {blur:.3e} rad "
                                 f"(eps {epsilon!r}, hbar {self.hbar!r})")
            c = q @ (np.exp(-1j * tau * theta) * q[0])
            if self._beta[m - 1] * abs(c[-1]) <= 8 * u * top:
                break
        return c, self._basis[: len(c)]


def exact_amplitude(experiment: PropagationExperiment, epsilon: float) -> complex:
    """<target| exp(-i eps H_m / hbar) |source> from the cached Lanczos basis."""
    c, basis = experiment._krylov(epsilon)
    return complex(c @ basis[:, experiment.target] / experiment.hamiltonian.grid.spacing)


def first_order_amplitude(experiment: PropagationExperiment, epsilon: float) -> complex:
    """delta_{yz}/h - (i eps / hbar) (H_m)_{yz} / h, the short-time expansion."""
    h = experiment.hamiltonian.grid.spacing
    delta = 1.0 / h if experiment.target == experiment.source else 0.0
    return complex(delta - 1j * epsilon / experiment.hbar * experiment.kernel_entry() / h)


def cell_transport_profile(experiment: PropagationExperiment, epsilon: float) -> np.ndarray:
    """Transition probability h^2 sum_{j in cell} |amp_j|^2 = sum_{j in cell} |U_jz|^2 per cell."""
    grid = experiment.hamiltonian.grid
    c, basis = experiment._krylov(epsilon)
    return (np.abs(c @ basis) ** 2).reshape(grid.n_cells, grid.points_per_cell).sum(axis=1)


def _sweep(epsilons) -> np.ndarray:
    """The sweep as a float array, after checking it holds two or more distinct positive,
    finite times: a fit over it needs two distinct samples."""
    eps = np.array([_number(e, f"epsilons[{i}]", positive=True) for i, e in enumerate(epsilons)])
    if len(set(eps.tolist())) < 2:  # np.unique adds 1.7 MiB to peak RSS (numpy 2.4)
        raise ValueError(f"epsilons must hold two or more distinct times, got {eps.tolist()}")
    return eps


def linear_response_slope(experiment: PropagationExperiment,
                          epsilons: np.ndarray) -> tuple[float, float]:
    """Fit |amp(eps)| = s * eps + q * eps^2 over the sweep; return (s, q).

    For distinct source and target the first-order theory predicts
    s = |kernel_entry| / (hbar h); the quadratic term absorbs the next order
    so the linear coefficient stays clean over finite sweeps.
    """
    eps = _sweep(epsilons)
    if experiment.target == experiment.source:
        raise ValueError("slope fit expects distinct source and target samples")
    mags = np.array([abs(exact_amplitude(experiment, e)) for e in eps])
    basis = np.column_stack([eps, eps**2])
    coeffs, *_ = np.linalg.lstsq(basis, mags, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def first_order_error_exponent(experiment: PropagationExperiment,
                               epsilons: np.ndarray) -> float:
    """Log-log slope of |exact - first_order| against eps; 2 when the
    expansion is honest."""
    eps = _sweep(epsilons)
    errs = np.array(
        [abs(exact_amplitude(experiment, e) - first_order_amplitude(experiment, e)) for e in eps]
    )
    if np.any(errs <= 0):
        raise ValueError("error vanished on the sweep; exponent undefined")
    slope, _ = np.polyfit(np.log(eps), np.log(errs), 1)
    return float(slope)
