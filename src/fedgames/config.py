"""The symmetry bound of the backward passes' value iterates.

Each Riccati-type update should give a symmetric matrix; rounding leaves
an asymmetry that scales with the entries. Every pass records its largest
asymmetry (``max_asymmetry``, an absolute figure) and warns, through
``check_symmetry``, when it exceeds ``SYMMETRY_RTOL`` times the largest
|entry| of its value iterates: rounding stays far below that, a pass that
has lost its digits does not.
"""

import numpy as np

SYMMETRY_RTOL = 1e-9


def check_symmetry(log, name: str, asymmetry, iterates: np.ndarray) -> None:
    """Warn on ``log`` if ``asymmetry`` exceeds SYMMETRY_RTOL times the
    largest |entry| of ``iterates``. A stacked pass's asymmetry has the
    stack axes, which ``iterates`` carries just before its matrix axes;
    each entry is judged on its own iterates and the worst is named."""
    axes = (*range(iterates.ndim - 2 - np.ndim(asymmetry)), -2, -1)
    check_symmetry_scale(log, name, asymmetry, np.abs(iterates).max(axis=axes))


def check_symmetry_scale(log, name: str, asymmetry, scale) -> None:
    """``check_symmetry`` given the largest |entry| of the iterates, with
    the shape of ``asymmetry``, for a pass that tracks it as it goes."""
    scale = np.ravel(scale)
    asym = np.ravel(asymmetry)
    i = int(np.argmax(asym - SYMMETRY_RTOL * scale))
    if asym[i] > SYMMETRY_RTOL * scale[i]:
        log.warning(
            "%s asymmetry %.3e exceeds %.1e of the largest entry %.3e",
            name, asym[i], SYMMETRY_RTOL, scale[i],
        )
