"""NumPy-vectorized simulation backend (``backend="vec"``).

``repro.vecsim`` replaces the per-node Python loops of :mod:`repro.fastsim`
with whole-array NumPy kernels -- elementwise clock and max-estimate
advancement, CSR-reduced trigger evaluation, vectorized broadcast transport
-- while keeping bit-identity with the reference engine on the AOPT + oracle
scenario family.

numpy is an *optional* dependency (``pip install repro[vec]``): importing
this package without numpy raises ``ImportError``; the backend registry in
:mod:`repro.fastsim.backend` guards for that and raises
:class:`~repro.fastsim.backend.BackendUnavailableError` with the list of
runnable backends instead.

Modules:

* :mod:`repro.vecsim.kernels` -- the NumPy kernels, each documented against
  the scalar code it reproduces bit for bit;
* :mod:`repro.vecsim.engine` -- :class:`~repro.vecsim.engine.VecEngine`, one
  object per run that holds the run's arrays and CSR mirror and drives its
  steps.
"""

from .engine import VecEngine

__all__ = ["VecEngine"]
