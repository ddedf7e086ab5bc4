import numpy as np
import pytest

from perilame.errors import SingularArgumentError
from perilame.kernels import (
    LameEnv,
    fs_laplace,
    kelvin,
    kelvin_grad,
    traction,
    traction_kernel,
    traction_map,
)


def test_fs_laplace_values():
    assert fs_laplace(np.array([1.0, 0.0])) == 0.0
    assert abs(fs_laplace(np.array([np.e, 0.0])) - 1.0 / (2 * np.pi)) < 1e-15


def test_fs_laplace_singular():
    with pytest.raises(SingularArgumentError):
        fs_laplace(np.zeros(2))


def test_lame_env_admissibility():
    LameEnv(2, 0.001)
    with pytest.raises(ValueError):
        LameEnv(2, 0.0)
    with pytest.raises(ValueError):
        LameEnv(3, 0.2)
    with pytest.raises(ValueError):
        LameEnv(3, 0.4)  # only the plane problem is supported


def test_kelvin_reference_entry():
    env = LameEnv(2, 1.0)
    G = kelvin(np.array([1.0, 0.0]), env)
    assert abs(G[0, 0] + 1.0 / (8 * np.pi)) < 1e-16
    assert G[0, 1] == 0.0 and G[1, 0] == 0.0 and G[1, 1] == 0.0


def test_kelvin_omega_zero_decouples():
    env = LameEnv(2, 1e-300)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=2)
        G = kelvin(x, env)
        assert np.allclose(G, fs_laplace(x) * np.eye(2), atol=1e-15)


def test_kelvin_even_parity():
    rng = np.random.default_rng(2)
    env = LameEnv(2, 1.7)
    xs = rng.normal(size=(100, 2))
    assert np.allclose(kelvin(xs, env), kelvin(-xs, env), atol=0)


def test_kelvin_grad_matches_finite_differences():
    env = LameEnv(2, 1.5)
    x = np.array([0.3, 0.4])
    h = 1e-5
    fd = np.zeros((2, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd[:, :, k] = (kelvin(x + e, env) - kelvin(x - e, env)) / (2 * h)
    g = kelvin_grad(x, env)
    assert np.max(np.abs(fd - g)) < 1e-8 * np.max(np.abs(g))


def test_kelvin_grad_odd_parity():
    rng = np.random.default_rng(3)
    env = LameEnv(2, 0.8)
    xs = rng.normal(size=(20, 2))
    assert np.allclose(kelvin_grad(xs, env), -kelvin_grad(-xs, env), atol=0)


def test_kelvin_grad_omega_zero_structure():
    env = LameEnv(2, 1e-300)
    x = np.array([0.7, -0.2])
    g = kelvin_grad(x, env)
    grad_s = x / (2 * np.pi * np.sum(x * x))
    for i in range(2):
        for j in range(2):
            expect = grad_s if i == j else np.zeros(2)
            assert np.allclose(g[i, j], expect, atol=1e-16)


def test_traction_map_values():
    assert np.allclose(traction_map(1.3, np.zeros((2, 2))), 0.0)
    for omega in (0.5, 1.0, 4.0):
        assert np.allclose(traction_map(omega, np.eye(2)), 2 * omega * np.eye(2))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(traction_map(2.0, skew), 0.0)


@pytest.mark.parametrize("n,omega", [(2, 1.0), (2, 0.4), (2, 4.0)])
def test_traction_kernel_two_path(n, omega):
    # closed form against traction of kelvin_grad, column l from A_jm = d_m Gamma_jl
    env = LameEnv(n, omega)
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=n)
        nu = rng.normal(size=n)
        nu /= np.linalg.norm(nu)
        direct = traction_kernel(x, nu, env)
        composed = traction(np.moveaxis(kelvin_grad(x, env), 1, 0), nu, omega).T
        assert np.max(np.abs(direct - composed)) < 1e-14 * max(
            1.0, np.max(np.abs(direct))
        )


def test_traction_kernel_odd_in_x():
    env = LameEnv(2, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=2)
        nu = rng.normal(size=2)
        nu /= np.linalg.norm(nu)
        assert np.allclose(
            traction_kernel(-x, nu, env), -traction_kernel(x, nu, env), atol=0
        )


def test_traction_kernel_linear_in_nu():
    env = LameEnv(2, 0.9)
    rng = np.random.default_rng(6)
    x = rng.normal(size=2)
    n1 = rng.normal(size=2)
    n2 = rng.normal(size=2)
    a, b = 0.7, -1.3
    combo = traction_kernel(x, a * n1 + b * n2, env)
    parts = a * traction_kernel(x, n1, env) + b * traction_kernel(x, n2, env)
    assert np.allclose(combo, parts, atol=1e-15)


def test_kernels_reject_origin():
    env = LameEnv(2, 1.0)
    with pytest.raises(SingularArgumentError):
        kelvin(np.zeros(2), env)
    with pytest.raises(SingularArgumentError):
        kelvin_grad(np.zeros(2), env)
    with pytest.raises(SingularArgumentError):
        traction_kernel(np.zeros(2), np.array([1.0, 0.0]), env)
