"""Free-space fundamental solution of the plane Lame operator and traction kernels.

The operator is D u + omega * grad(div u) with the second Lame constant
normalized to 1; omega must exceed 0 (the bound 1 - 2/n at n = 2).  The whole
package is two-dimensional, and so are these kernels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularArgumentError


@dataclass(frozen=True)
class LameEnv:
    """Dimension (always 2) and Lame ratio parameter with the derived kernel constants."""

    n: int = 2
    omega: float = 1.0

    def __post_init__(self):
        if self.n != 2:
            raise ValueError(f"only the plane problem n=2 is supported, got n={self.n}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must exceed 0 for n=2, got {self.omega:g}")

    @property
    def alpha(self):
        """Coefficient of the diagonal log term, (omega+2)/(2(omega+1))."""
        return (self.omega + 2.0) / (2.0 * (self.omega + 1.0))

    @property
    def beta(self):
        """Coupling ratio omega/(omega+1); the dyadic term carries beta/2."""
        return self.omega / (self.omega + 1.0)


def _check_nonzero(x):
    r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    if np.any(r2 == 0.0):
        raise SingularArgumentError("kernel argument must be nonzero")
    return r2


def fs_laplace(x):
    """Fundamental solution of the Laplacian, log|x|/(2 pi)."""
    r2 = _check_nonzero(x)
    return 0.5 * np.log(r2) / (2.0 * np.pi)


def kelvin(x, env):
    """Kelvin matrix: entries alpha*delta_ij*log|x|/(2 pi) - (beta/(4 pi))*x_i x_j/|x|^2."""
    x = np.asarray(x, dtype=float)
    r2 = _check_nonzero(x)
    s = fs_laplace(x)
    coef = 0.5 * env.beta / (2.0 * np.pi)
    dyad = x[..., :, None] * x[..., None, :] / np.asarray(r2)[..., None, None]
    return env.alpha * np.asarray(s)[..., None, None] * np.eye(2) - coef * dyad


def kelvin_grad(x, env):
    """Gradient d_k Gamma_ij of the Kelvin matrix, indexed out[..., i, j, k]."""
    x = np.asarray(x, dtype=float)
    r2 = np.asarray(_check_nonzero(x), dtype=float)[..., None, None, None]
    eye = np.eye(2)
    xi = x[..., :, None, None]
    xj = x[..., None, :, None]
    xk = x[..., None, None, :]
    d_ij = eye[:, :, None]
    d_ik = eye[:, None, :]
    d_jk = eye[None, :, :]
    out = env.alpha * d_ij * xk / r2
    out = out - 0.5 * env.beta * (
        (d_ik * xj + d_jk * xi) / r2 - 2 * xi * xj * xk / (r2 * r2)
    )
    return out / (2.0 * np.pi)


def traction_map(omega, A):
    """Stress map T(omega, A) = (omega-1) tr(A) I + A + A^t."""
    A = np.asarray(A, dtype=float)
    tr = np.trace(A, axis1=-2, axis2=-1)
    return (omega - 1.0) * tr[..., None, None] * np.eye(2) + A + np.swapaxes(A, -2, -1)


def traction_kernel(x, nu, env):
    """Traction of the Kelvin columns contracted with nu, in closed form.

    Column l holds T(omega, D Gamma^l(x)) nu, which is
        (1/(2 pi)) [ (1-beta)(delta_il (x.nu) + nu_l x_i - nu_i x_l)/|x|^2
                     + 2 beta x_i x_l (x.nu)/|x|^4 ],
    verified in the tests against the composition through kelvin_grad.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    r2 = np.asarray(_check_nonzero(x), dtype=float)[..., None, None]
    beta = env.beta
    xdotnu = np.sum(x * nu, axis=-1)
    xi = x[..., :, None]
    xl = x[..., None, :]
    nui = nu[..., :, None]
    nul = nu[..., None, :]
    xn = xdotnu[..., None, None]
    out = (1.0 - beta) * (np.eye(2) * xn + nul * xi - nui * xl)
    out = out + 2 * beta * xi * xl * xn / r2
    return out / (2.0 * np.pi * r2)


def traction_from_gradient(grad, nu, omega):
    """Traction columns from a kernel gradient array grad[..., i, l, k].

    Column l of the result is T(omega, A) nu with A_ik = grad[..., i, l, k];
    this is the composition path used to certify traction_kernel and to build
    the smooth periodic correction of the traction operator.
    """
    grad = np.asarray(grad, dtype=float)
    nu = np.asarray(nu, dtype=float)
    div = np.einsum("...klk->...l", grad)
    t1 = np.einsum("...ilk,...k->...il", grad, nu)
    t2 = np.einsum("...kli,...k->...il", grad, nu)
    return (omega - 1.0) * nu[..., :, None] * div[..., None, :] + t1 + t2
