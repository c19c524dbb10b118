"""Peak memory of the reductions that read only the held support."""

import tracemalloc

import numpy as np

from exfree.analytic import tau_st
from exfree.dynamics import EvolutionSpec, evolve_lindblad
from exfree.experiments import transfer_choi
from exfree.fock import DensityMatrix, fock_state, partial_trace
from exfree.model import SystemParams, build_h_full, collapse_operators, with_cavity_decoherence


def traced_peak(run) -> int:
    """Peak bytes `tracemalloc` sees while `run()` runs."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lindblad_transfer_choi_builds_no_dense_start():
    # measured 93 MB when the two starts were dense d x d arrays, 26 MB of it
    # the starts themselves; propagation alone takes 67 MB
    p = with_cavity_decoherence(SystemParams.from_khz(80, 80, 373, dims=(10, 9, 10)))
    spec = EvolutionSpec(total_time=tau_st(p), method="lindblad", rtol=1e-6)
    transfer_choi(p, spec)  # warm: imports and caches are not counted
    assert traced_peak(lambda: transfer_choi(p, spec)) <= 67e6


def test_partial_trace_of_a_trajectory_reads_only_the_support():
    # measured 214 MB for 20 MB held when the trajectory was read dense
    p = SystemParams.from_khz(80, 80, 475, dims=(6, 5, 6), t1=(265.0, 300.0, 314.0))
    psi = fock_state(p.dims, (1, 0, 0))
    rho0 = DensityMatrix._on_support(psi.support * (p.dims.total + 1), psi.values, p.dims)
    times = np.linspace(0.0, 2.0 * tau_st(p), 401)
    traj = evolve_lindblad(build_h_full(p), collapse_operators(p), rho0, times)
    assert traced_peak(lambda: partial_trace(traj, keep=[2])) < 2 * traj.values.nbytes
