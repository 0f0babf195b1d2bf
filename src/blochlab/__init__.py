"""Numerical laboratory for quantum states on a finite periodic ring.

The package discretizes a ring of N unit cells, solves the single-particle
band problem in its crystal-momentum sectors, builds localized lattice-site
states from the band eigenfunctions, and provides the measurement tools used
to study them: kernel locality reports, crystal-momentum selection scans,
winding numbers, and short-time transition amplitudes.
"""

from .grid import (
    GridMismatchError,
    RingGrid,
    WaveFunction,
)
from .lattice import (
    OperatorMatrix,
    PotentialSpec,
    build_hamiltonian,
    build_translation,
)
from .spectrum import (
    BandStructure,
    classify_by_translation,
    solve_bands,
)
from .wannier import (
    build_wannier,
    cell_probability,
    wannier_projector,
)
from .observables import (
    LocalObservableSeries,
    LocalityReport,
    cell_periodicity_defect,
    locality_report,
    materialize,
)
from .superselection import (
    SelectionScan,
    WindingResult,
    selection_scan,
    winding_number,
)
from .dynamics import (
    PropagationExperiment,
    exact_amplitude,
    first_order_amplitude,
    linear_response_slope,
)

__version__ = "0.1.0"

__all__ = [
    "GridMismatchError",
    "RingGrid",
    "WaveFunction",
    "OperatorMatrix",
    "PotentialSpec",
    "build_hamiltonian",
    "build_translation",
    "BandStructure",
    "classify_by_translation",
    "solve_bands",
    "build_wannier",
    "cell_probability",
    "wannier_projector",
    "LocalObservableSeries",
    "LocalityReport",
    "cell_periodicity_defect",
    "locality_report",
    "materialize",
    "SelectionScan",
    "WindingResult",
    "selection_scan",
    "winding_number",
    "PropagationExperiment",
    "exact_amplitude",
    "first_order_amplitude",
    "linear_response_slope",
]
