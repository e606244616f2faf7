"""Exact spectral references, checked through library calls.

    python bench/refcheck.py        (with ``src`` on PYTHONPATH)

Prints one JSON object: the tail index alpha of ``similarity_2d`` on the
512-node projective grid and of ``kesten_1d``, both exactly 1 in closed form.
"""

import json

from matspec.ensembles import kesten_1d, similarity_2d
from matspec.projective import PROJECTIVE, build_grid
from matspec.spectrum import solve_alpha

if __name__ == "__main__":
    print(json.dumps({
        "alpha_similarity_2d_512": solve_alpha(
            similarity_2d(), grid=build_grid(2, 512, PROJECTIVE)),
        "alpha_kesten_1d": solve_alpha(kesten_1d()),
    }))
