"""Constructors, validation, and symplectic transport of Gaussian states."""

import math
import warnings

import numpy as np
import pytest

from helpers import symplectic_residual
import gauss_renyi.williamson as williamson
from gauss_renyi.exceptions import UnphysicalStateError
from gauss_renyi.sampling import random_faithful_state, random_symplectic
from gauss_renyi.states import (GaussianState, coherent_state,
                                gaussian_transform,
                                require_physical, squeezed_vacuum,
                                tensor, thermal_state,
                                validate_state)
from gauss_renyi.williamson import require_heisenberg, symplectic_form

LN2 = math.log(2.0)


def test_vacuum_covariance():
    vac = coherent_state(0.0)
    assert np.allclose(vac.cov, 0.5 * np.eye(2))
    assert np.allclose(vac.mean, 0.0)
    assert validate_state(vac) == []


def test_thermal_ln2_diagonal():
    # coth(ln2 / 2) / 2 = 3/2
    state = thermal_state(LN2)
    assert np.allclose(state.cov, 1.5 * np.eye(2), atol=1e-14)
    assert np.allclose(state.mean, 0.0)


def test_thermal_vector_keeps_mode_order():
    state = thermal_state([1.3, 0.9])
    d = 0.5 / np.tanh(0.5 * np.array([1.3, 0.9]))
    assert np.allclose(np.diag(state.cov), np.concatenate([d, d]))


def test_thermal_inf_is_vacuum_mode():
    state = thermal_state([0.7, math.inf])
    assert np.isclose(state.cov[1, 1], 0.5)
    assert np.isclose(state.cov[3, 3], 0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, [0.5, -0.2]])
def test_thermal_rejects_nonpositive(bad):
    with pytest.raises(UnphysicalStateError):
        thermal_state(bad)


def test_thermal_rejects_empty():
    with pytest.raises(ValueError):
        thermal_state([])


def test_coherent_mean_layout():
    state = coherent_state(0.8 - 0.3j)
    assert np.allclose(state.mean, [0.8, -0.3])
    assert np.allclose(state.cov, 0.5 * np.eye(2))


def test_coherent_two_mode_blocks():
    two = coherent_state([1.0 + 0.5j, -0.2j])
    assert np.allclose(two.mean, [1.0, 0.0, 0.5, -0.2])


@pytest.mark.parametrize("r", [0.3, -0.6, 1.2])
def test_squeezed_vacuum_diagonal(r):
    state = squeezed_vacuum(r)
    assert np.allclose(np.diag(state.cov),
                       [0.5 * np.exp(2 * r), 0.5 * np.exp(-2 * r)])
    assert validate_state(state) == []


def test_squeezed_vacuum_cap():
    with pytest.raises(ValueError):
        squeezed_vacuum(5.5)


def test_tensor_matches_vector_thermal():
    product = tensor(thermal_state(0.4), thermal_state(1.1))
    direct = thermal_state([0.4, 1.1])
    assert np.allclose(product.cov, direct.cov)
    assert np.allclose(product.mean, direct.mean)


def test_tensor_block_layout():
    a = coherent_state(1.0 + 2.0j)
    b = coherent_state(3.0 - 4.0j)
    ab = tensor(a, b)
    assert np.allclose(ab.mean, [1.0, 3.0, 2.0, -4.0])


def test_symplectic_form_algebra():
    J = symplectic_form(3)
    assert np.allclose(J @ J, -np.eye(6))
    assert np.allclose(J.T, -J)


def test_is_symplectic(rng):
    n = 2
    assert symplectic_residual(symplectic_form(n)) <= 1e-10
    assert symplectic_residual(np.eye(2 * n)) <= 1e-10
    assert symplectic_residual(2.0 * np.eye(2 * n)) > 1e-10
    for _ in range(5):
        assert symplectic_residual(random_symplectic(rng, n)) <= 1e-10


def test_validate_state_flags_asymmetry():
    cov = np.eye(2)
    cov[0, 1] = 1e-3
    msgs = validate_state(GaussianState(np.zeros(2), cov))
    assert any("symmetric" in m for m in msgs)


def test_validate_state_flags_nonfinite():
    cov = np.eye(2)
    mean = np.array([np.nan, 0.0])
    msgs = validate_state(GaussianState(mean, cov))
    assert msgs


def test_validate_state_flags_heisenberg():
    state = GaussianState(np.zeros(2), 0.1 * np.eye(2))
    msgs = validate_state(state)
    assert any("0.5" in m for m in msgs)
    with pytest.raises(UnphysicalStateError):
        require_physical(state)


def test_heisenberg_message_shows_distance_below_bound():
    # 5e-10 below the bound: the message shows d - 1/2 and the slack, where a
    # six-digit d read "0.5 < 0.5"
    d = 0.5 - 5e-10
    expected = ("symplectic eigenvalue d = 0.5 - 5e-10 is below the Heisenberg "
                "bound 0.5 by more than the slack PHYSICAL_TOL = 1e-10")
    with pytest.raises(UnphysicalStateError) as err:
        require_heisenberg(np.array([1.0, d]))
    assert str(err.value) == expected
    with pytest.raises(UnphysicalStateError) as err:
        require_physical(GaussianState(np.zeros(2), d * np.eye(2)))
    assert str(err.value) == "state is unphysical: " + expected


def test_random_states_are_physical(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            state = random_faithful_state(rng, n)
            require_physical(state)


def test_gaussian_transform_shift_moves_mean():
    state = thermal_state(0.9)
    shifted = gaussian_transform(state, np.eye(2), shift=np.array([-0.3, 0.7]))
    assert np.allclose(shifted.mean, [0.3, -0.7])
    assert np.allclose(shifted.cov, state.cov)


def test_gaussian_transform_cov_congruence(rng):
    state = random_faithful_state(rng, 2)
    L = random_symplectic(rng, 2)
    out = gaussian_transform(state, L)
    assert np.allclose(out.cov, L.T @ state.cov @ L, atol=1e-12)
    require_physical(out)


def test_mean_complex_layout():
    # the mean stacks the real parts of the amplitudes before the imaginary parts
    state = coherent_state([1.0 + 2.0j, 3.0 - 4.0j])
    assert state.mean.tolist() == [1.0, 3.0, 2.0, -4.0]


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.eye(4))


def test_state_leaves_the_callers_arrays_writable():
    # the state freezes copies: the caller may go on writing to its arrays,
    # and the state keeps the values it was built from
    mean, cov = np.zeros(2), np.eye(2)
    state = GaussianState(mean, cov)
    mean[0] = 1.0
    cov[0, 0] = 2.0
    assert np.array_equal(state.mean, [0.0, 0.0])
    assert np.array_equal(state.cov, np.eye(2))
    assert not state.mean.flags.writeable and not state.cov.flags.writeable


def test_zero_modes_rejected():
    # an n = 0 state has no spectrum, so the checks would die on an empty
    # reduction; it is refused where it is built, like thermal_state([])
    with pytest.raises(ValueError, match=r"cov must be a 2n x 2n matrix, got shape \(0, 0\)"):
        GaussianState(np.zeros(0), np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"got shape \(0, 0\)"):
        coherent_state([])


@pytest.mark.parametrize("field,imag", [("mean", [0.4, 0.0]),
                                        ("cov", [[0.0, 0.4], [-0.4, 0.0]])])
def test_complex_field_rejected_unless_exactly_real(field, imag):
    fields = {"mean": np.zeros(2, dtype=complex), "cov": np.eye(2, dtype=complex)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an exactly real array converts without a ComplexWarning
        state = GaussianState(**fields)
    assert state.mean.dtype == state.cov.dtype == float
    assert np.array_equal(state.cov, np.eye(2))
    # dropping the imaginary part would hand the pipeline another state
    fields[field] = fields[field] + 1j * np.array(imag)
    with pytest.raises(ValueError, match=f"{field} must be real"):
        GaussianState(**fields)


def test_checks_look_up_the_spectrum_in_williamson(monkeypatch):
    # perfbench counts williamson.symplectic_eigenvalues by wrapping that
    # module attribute, so each check must reach it through the module
    calls = []
    spectrum = williamson.symplectic_eigenvalues

    def counted(S):
        calls.append(S.shape)
        return spectrum(S)

    monkeypatch.setattr(williamson, "symplectic_eigenvalues", counted)
    state = thermal_state([1.0, 2.0])
    require_physical(state)
    assert calls == [(4, 4)]
    assert validate_state(state) == []
    assert calls == [(4, 4)] * 2


def _cov(entry, value):
    cov = np.eye(2)
    cov[entry] = value
    return cov


HEISENBERG = ("symplectic eigenvalue d = 0.5 - 0.1 is below the Heisenberg "
              "bound 0.5 by more than the slack PHYSICAL_TOL = 1e-10")


@pytest.mark.parametrize("mean,cov,expected", [
    ([np.nan, 0.0], np.eye(2), ["mean has non-finite entries"]),
    ([0.0, 0.0], _cov((0, 0), np.inf), ["cov has non-finite entries"]),
    ([np.nan, 0.0], _cov((0, 0), np.inf),
     ["mean has non-finite entries", "cov has non-finite entries"]),
    ([0.0, 0.0], _cov((0, 1), 1e-11),
     ["cov not symmetric: max asymmetry 1.000e-11 > 1e-12"]),
    ([0.0, 0.0], _cov((1, 1), -1.0), ["cov not positive definite: min eigenvalue -1.000e+00"]),
    ([0.0, 0.0], 0.4 * np.eye(2), [HEISENBERG]),
], ids=["nan-mean", "inf-cov", "nan-mean-inf-cov", "asymmetry-1e-11", "indefinite",
        "sub-heisenberg"])
def test_validate_state_messages(mean, cov, expected):
    # the CLI prints these, so their text and order are pinned
    assert validate_state(GaussianState(np.array(mean), cov)) == expected
