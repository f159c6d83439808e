"""Boundary-scaled dCP generators shared by the entry-point agreement tests.

A valid generator on C^3 with G shifted by s*Id (which moves the Choi norm to
about 2*s*d while the traceless block stays of order one), plus anti-hermitian
noise of relative size ``noise`` on its Choi matrix. Every case is dCP: the
noise stays below the hermiticity gate of the Choi matrix, and the shift does
not reach the traceless block.
"""
import numpy as np

from gksl_kit.operators import dag, random_ginibre
from gksl_kit.superops import ChoiMatrix, jamiolkowski_inv
from gksl_kit.generators import GkslPresentation, assemble_generator, random_minimal_presentation

SHIFTS = (1e2, 3e4, 1e6, 1e8)
NOISES = (0.0, 2e-12, 1e-11)
CASES = [(s, noise) for s in SHIFTS for noise in NOISES]


def shifted_noisy_generator(s: float, noise: float):
    p = random_minimal_presentation(3, seed=1)
    lam = assemble_generator(GkslPresentation(psi=p.psi, g=p.g + s * np.eye(3), h=p.h))
    c = lam.choi.matrix
    z = random_ginibre(9, 9, seed=0)
    anti = (z - dag(z)) / np.linalg.norm(z - dag(z))
    return jamiolkowski_inv(ChoiMatrix(c + noise * np.linalg.norm(c) * anti, 3, 3))
