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

    @property
    def gamma_c(self):
        """Constant (1-beta)/(2 pi) of the Cauchy part of the traction kernel."""
        return (1.0 - self.beta) / (2.0 * np.pi)


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


def traction(A, nu, omega):
    """T(omega, A) nu for gradients A[..., j, m] and normals nu[..., m], broadcast together.

    Contracted with nu directly, (omega-1) tr(A) nu + A nu + A^t nu, so no
    stress array of A's size is formed.
    """
    A = np.asarray(A, dtype=float)
    nu = np.asarray(nu, dtype=float)
    tr = A[..., 0, 0] + A[..., 1, 1]
    return (omega - 1.0) * tr[..., None] * nu + np.einsum("...jm,...m->...j", A, nu) \
        + np.einsum("...mj,...m->...j", A, nu)


def traction_kernel(x, nu, env):
    """Traction of the Kelvin columns contracted with nu, in closed form.

    Column l holds T(omega, D Gamma^l(x)) nu, which is
        (1/(2 pi)) [ (1-beta)(delta_il (x.nu) + nu_l x_i - nu_i x_l)/|x|^2
                     + 2 beta x_i x_l (x.nu)/|x|^4 ],
    verified in the tests against traction of kelvin_grad.
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
