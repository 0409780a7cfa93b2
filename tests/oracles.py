"""Exact solutions for the engine tests, sharing no code with the engines.

Each oracle solves the problem from its own equations, so a test that holds
an engine to it checks the engine's physics, not only its consistency with
itself.
"""

import numpy as np
from scipy.integrate import solve_ivp


def harmonic_fundamental_matrices(system, schedule, times, rtol=1e-13):
    """The bare flow of V = eps (q/lam)^2 is linear: q'' = -w(t)^2 q with
    w^2 = 2 eps/(m lam^2), so (q, p)(t) = Phi(t) (q, p)(0) for the
    fundamental matrix Phi' = [[0, 1/m], [-m w^2, 0]] Phi, Phi(0) = 1.
    Returns Phi at the sorted times, shape (len(times), 2, 2), integrated by
    DOP853 to rtol."""
    m, eps = system.mass, system.epsilon

    def rhs(t, y):
        phi = y.reshape(2, 2)
        w2 = 2.0 * eps / (m * schedule.value(t) ** 2)
        return np.concatenate([phi[1] / m, -m * w2 * phi[0]])

    sol = solve_ivp(rhs, (0.0, schedule.duration), np.eye(2).ravel(), method="DOP853",
                    t_eval=times, rtol=rtol, atol=1e-3 * rtol)
    return sol.y.T.reshape(-1, 2, 2)
