"""Reported certificates against the 40-digit oracle of tests/oracle.py,
which reads the returned weights without the float64 code under test."""

import numpy as np
import pytest

from conftest import PLAN_SEED, ill_conditioned
from mvee.harness import gen_sample
from mvee.problem import lift
from mvee.solvers import Algorithm, SolverConfig, solve
from oracle import certificate

UNIT_ROUNDOFF = 2.0 ** -53


def test_oracle_reads_a_known_optimum():
    # the square's corners +-(1, 1), +-(1, -1) at weights 1/2: M = I, so
    # kappa = n on both points, the certificate is 0 and h = 0
    cert = certificate(np.array([[1.0, 1.0], [1.0, -1.0]]), np.full(2, 0.5))
    assert cert == (0.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("alg", [Algorithm.CD_CONST, Algorithm.WA,
                                 Algorithm.FWK])
def test_reported_certificate_matches_the_oracle(alg):
    # kappa_i / N and ln det M carry a relative error of about N u cond(M)
    # in float64, so the report's eps and h lie within ten times that,
    # scaled by kappa / N ~ 1 + eps, of the oracle's reading
    X = lift(gen_sample(10, 500, PLAN_SEED))
    eps = 1e-7
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=eps, max_iter=20_000))
    cert = certificate(X.points, rep.u_final.u)
    oracle_eps = (cert.eps_plus if alg is Algorithm.FWK
                  else max(cert.eps_plus, cert.eps_minus))
    bound = 10 * X.dim * UNIT_ROUNDOFF * cert.cond * (1 + eps)
    assert abs(rep.final_eps - oracle_eps) <= bound, (rep.final_eps, cert)
    assert abs(rep.final_h - cert.h) <= bound, (rep.final_h, cert)


@pytest.mark.parametrize("seed", [PLAN_SEED, PLAN_SEED + 1])
@pytest.mark.parametrize("alg", [Algorithm.CD_CONST, Algorithm.WA])
def test_converged_ill_conditioned_report_holds_to_the_oracle(alg, seed):
    # a converged report promises eps(u_final) <= eps; on a set mapped to
    # condition 1e7 the maintained kappa drifts, and the oracle holds the
    # fresh reading that stopped the solve to that promise
    X = lift(ill_conditioned(seed))
    eps = 1e-5
    rep = solve(X, SolverConfig(algorithm=alg, epsilon=eps))
    cert = certificate(X.points, rep.u_final.u)
    if rep.converged:
        assert max(cert.eps_plus, cert.eps_minus) <= eps, (rep.final_eps, cert)
