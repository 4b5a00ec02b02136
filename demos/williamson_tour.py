"""Normal form of a covariance matrix: thermal spectrum and residues.

Every physical covariance S factors as L^T S L = diag(d, d) with L
symplectic and d >= 1/2; the d map to per-mode thermal parameters.

Run with:  python3 demos/williamson_tour.py
"""

import numpy as np

from gauss_renyi.sampling import random_faithful_state
from gauss_renyi.williamson import symplectic_form, t_to_d, williamson_decompose


def main() -> None:
    rng = np.random.default_rng(11)
    state = random_faithful_state(rng, 3)
    S = state.cov

    form = williamson_decompose(S)
    n = len(form.d)
    J = symplectic_form(n)

    print(f"random faithful 3-mode covariance, shape {S.shape}")
    print(f"  symplectic eigenvalues d : {np.array2string(form.d, precision=8)}")
    print(f"  thermal parameters t     : {np.array2string(form.t, precision=8)}")
    print(f"  d rebuilt from t         : {np.array2string(t_to_d(form.t), precision=8)}")

    D = np.diag(np.concatenate([form.d, form.d]))
    res_diag = np.max(np.abs(form.L.T @ S @ form.L - D))
    res_symp = np.max(np.abs(form.L.T @ J @ form.L - J))
    print(f"  |L^T S L - D|  max entry : {res_diag:.3e}")
    print(f"  |L^T J L - J|  max entry : {res_symp:.3e}")

    # the inverse congruence reconstructs S
    Linv = -J @ form.L.T @ J  # symplectic inverse
    rebuilt = Linv.T @ D @ Linv
    print(f"  |S - rebuild|  max entry : {np.max(np.abs(S - rebuilt)):.3e}")


if __name__ == "__main__":
    main()
