"""Dense complex linear algebra and validated quantum objects.

All operators are plain numpy arrays of dtype complex128.  Hilbert-space
factors are ordered A, B, C throughout the package: composite operators
are assembled as ``tensor(op_A, op_B, op_C)`` and never permuted
afterwards, so no permutation bookkeeping is needed anywhere else.
``tensor`` is the package's one Kronecker product: it returns the bits
numpy's ``kron`` would, through one broadcast multiply per factor, and
takes stacks of matrices too, one product per item.
Dimensions stay small (<= ~16) and everything uses dense double
precision; there is no sparse or symbolic path.

The validated wrapper types (:class:`DensityOperator`, :class:`Povm`,
:class:`QuantumChannel`, :class:`BlochVector`) check their defining
properties on construction, to the absolute tolerance
``VALIDATION_TOL``, and freeze the underlying arrays, so instances can
be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute per-entry tolerance used when validating quantum objects.
VALIDATION_TOL = 1e-10

#: States per block of the stacked contractions over a stack of shared
#: states: the 8 x 8 products of a block stay near 0.2 MB however long
#: the stack is.
_STACK_BLOCK = 8

#: sigma_1, sigma_2, sigma_3 as one read-only (3, 2, 2) stack.
_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)
_PAULI.setflags(write=False)


def pauli(j: int) -> np.ndarray:
    """Return the Pauli matrix sigma_j for j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {j!r}")
    return _PAULI[j - 1].copy()


def tensor(*operators) -> np.ndarray:
    """Kronecker product of one or more operators, in the given order.

    Each operand is a matrix or a stack of them: the product is taken
    over the last two axes, and the leading axes broadcast, so a stack
    gives one product per item.  Each factor is one broadcast outer
    product reshaped into block form: entry by entry the complex
    multiplies numpy's ``kron`` performs, so each result is bitwise equal
    to ``kron`` of the matching 2-D items.
    Raises ValueError for no operands or an operand with fewer than two axes.
    """
    if not operators:
        raise ValueError("tensor() needs at least one operator")
    factors = [np.asarray(op, dtype=np.complex128) for op in operators]
    for f in factors:
        if f.ndim < 2:
            raise ValueError(f"tensor() operands must have two or more axes, got shape {f.shape}")
    out = factors[0]
    for right in factors[1:]:
        (m, n), (p, q) = out.shape[-2:], right.shape[-2:]
        out = out[..., :, None, :, None] * right[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (m * p, n * q))
    return out


#: sigma_j x sigma_j for j = 1, 2, 3 as one read-only (3, 4, 4) stack.
_SIGMA_PAIRS = tensor(_PAULI, _PAULI)
_SIGMA_PAIRS.setflags(write=False)


def mats_close(a, b, tol: float = VALIDATION_TOL) -> bool:
    """Entrywise comparison with an absolute tolerance."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def _hermitian_items(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack is Hermitian to ``VALIDATION_TOL`` (NaN fails)."""
    gap = np.abs(mats - mats.conj().swapaxes(-1, -2))
    return np.max(gap, axis=(-2, -1)) <= VALIDATION_TOL


def _psd_items(mats: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack has no eigenvalue below -VALIDATION_TOL.

    One ``eigvalsh`` runs over the items ``where`` selects, which must be
    Hermitian (and so finite); the others read True.
    """
    ok = np.ones(where.shape, dtype=bool)
    if where.any():
        ok[where] = np.linalg.eigvalsh(mats[where])[:, 0] >= -VALIDATION_TOL
    return ok


def _check_density_stack(mats: np.ndarray) -> None:
    """Validate a (n, d, d) stack as n density operators, all at once.

    Each item gets the checks of :class:`DensityOperator`, in its order
    (Hermitian, unit trace, positive semidefinite), with one ``eigvalsh``
    over the stack; the first bad item raises the message its own
    construction would.
    """
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
        raise ValueError("density operator must be a square matrix")
    herm = _hermitian_items(mats)
    tr = np.trace(mats, axis1=1, axis2=2)
    unit = np.abs(tr - 1.0) <= VALIDATION_TOL  # NaN has already failed herm
    psd = _psd_items(mats, herm & unit)
    ok = herm & unit & psd
    if not ok.all():
        i = int(np.argmin(ok))
        if not herm[i]:
            raise ValueError("density operator must be Hermitian")
        if not unit[i]:
            raise ValueError(f"density operator must have unit trace, got {tr[i]}")
        raise ValueError("density operator must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density operator: Hermitian, unit trace, positive."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        _check_density_stack(mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """A validated POVM: Hermitian positive elements summing to identity.

    Construction checks every element Hermitian and positive
    semidefinite, in element order, with one ``eigvalsh`` over the
    elements, then that the elements sum to the identity.  Outcome order
    is positional and fixed by the caller's convention (documented at
    each use site within this package).
    """

    elements: tuple

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("POVM needs at least one element")
        mats = [np.array(el, dtype=np.complex128) for el in self.elements]
        for m in mats:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("POVM elements must be square matrices")
            if m.shape != mats[0].shape:
                raise ValueError("POVM elements must share one dimension")
        elements = np.stack(mats)
        herm = _hermitian_items(elements)
        bad = ~(herm & _psd_items(elements, herm))
        if bad.any():
            if not herm[np.argmax(bad)]:
                raise ValueError("POVM elements must be Hermitian")
            raise ValueError("POVM elements must be positive semidefinite")
        gap = np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1]))
        if np.max(gap) > VALIDATION_TOL:
            raise ValueError("POVM elements must sum to the identity")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "elements", tuple(mats))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A CPTP map in Kraus form: rho -> sum_k K_k rho K_k^dag."""

    kraus_operators: tuple

    def __post_init__(self):
        if len(self.kraus_operators) < 1:
            raise ValueError("channel needs at least one Kraus operator")
        mats = []
        shape = None
        for k in self.kraus_operators:
            m = np.array(k, dtype=np.complex128)
            if m.ndim != 2:
                raise ValueError("Kraus operators must be matrices")
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise ValueError("Kraus operators must share one shape")
            m.setflags(write=False)
            mats.append(m)
        total = sum(m.conj().T @ m for m in mats)
        if not mats_close(total, np.eye(shape[1])):
            raise ValueError("Kraus operators must satisfy sum K^dag K = 1")
        object.__setattr__(self, "kraus_operators", tuple(mats))

    @property
    def input_dim(self) -> int:
        return self.kraus_operators[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.kraus_operators[0].shape[0]

    def apply_to_matrix(self, x) -> np.ndarray:
        """Apply the channel to an arbitrary (not necessarily valid) operator."""
        m = np.asarray(x, dtype=np.complex128)
        return sum(k @ m @ k.conj().T for k in self.kraus_operators)


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Parameters (m, mu) of the binary estimator element mu*(1 + m . sigma).

    ``mu`` must be positive.  The length of ``m`` is unconstrained here;
    building a valid two-outcome POVM via :meth:`povm_pair` additionally
    requires |m| <= 1 and mu*(1 + |m|) <= 1, which that method checks by
    validating both elements.
    """

    m: np.ndarray
    mu: float

    def __post_init__(self):
        vec = np.array(self.m, dtype=np.float64)
        if vec.shape != (3,):
            raise ValueError("Bloch vector must have exactly three real components")
        if not np.all(np.isfinite(vec)):
            raise ValueError("Bloch vector components must be finite")
        mu = float(self.mu)
        if not (mu > 0.0 and np.isfinite(mu)):
            raise ValueError(f"mu must be a positive real, got {self.mu!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "m", vec)
        object.__setattr__(self, "mu", mu)

    def povm_pair(self) -> Povm:
        """The POVM (M_plus, M_minus) with M_plus = mu*(1 + m.sigma).

        Element order is (outcome +1, outcome -1).  Raises ValueError if
        either element fails positivity.
        """
        plus = bloch_operator(self)
        minus = np.eye(2, dtype=np.complex128) - plus
        return Povm((plus, minus))


def bloch_operator(b: BlochVector) -> np.ndarray:
    """The operator mu*(1 + sum_j m_j sigma_j) for a BlochVector b."""
    out = np.eye(2, dtype=np.complex128)
    for j in (1, 2, 3):
        out = out + b.m[j - 1] * _PAULI[j - 1]
    return b.mu * out


def singlet_projector() -> np.ndarray:
    """Projector onto the two-qubit singlet, (1/4)(1x1 - sum_j sigma_j x sigma_j)."""
    out = np.eye(4, dtype=np.complex128)
    for pair in _SIGMA_PAIRS:
        out = out - pair
    return out / 4.0


def _werner_matrices(w) -> np.ndarray:
    """The (n, 4, 4) stack of Werner matrices for a 1-D array of parameters.

    Raises ValueError for the first parameter outside [-1/3, 1] (beyond
    1e-12); the matrices themselves are not validated here.
    """
    w = np.asarray(w, dtype=np.float64)
    bad = ~((w >= -1.0 / 3.0 - 1e-12) & (w <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"Werner parameter must lie in [-1/3, 1], got {float(w[bad][0])}")
    mat = np.eye(4, dtype=np.complex128)
    for pair in _SIGMA_PAIRS:
        mat = mat - w[:, None, None] * pair
    return mat / 4.0


def werner_state(w: float) -> DensityOperator:
    """Two-qubit Werner state (1/4)(1x1 - w sum_j sigma_j x sigma_j).

    Mixes the singlet with white noise; positive exactly for
    -1/3 <= w <= 1, with spectrum {(1+3w)/4, (1-w)/4 (x3)}.
    """
    return DensityOperator(_werner_matrices([float(w)])[0])


def signal_state(j: int, s: int) -> DensityOperator:
    """Qubit eigenstate projector (1/2)(1 + s sigma_j), s = +-1."""
    if s not in (1, -1):
        raise ValueError(f"signal sign must be +1 or -1, got {s!r}")
    return DensityOperator((np.eye(2, dtype=np.complex128) + s * pauli(j)) / 2.0)


def identity_channel() -> QuantumChannel:
    return QuantumChannel((np.eye(2, dtype=np.complex128),))


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing channel rho -> (1-p) rho + p 1/2.

    Kraus form: sqrt(1 - 3p/4) 1 together with sqrt(p/4) sigma_j.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    kraus = [np.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=np.complex128)]
    kraus.extend(np.sqrt(p / 4.0) * _PAULI[j] for j in range(3))
    return QuantumChannel(tuple(kraus))


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Qubit amplitude damping with decay probability gamma (non-unital for gamma > 0)."""
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=np.complex128)
    return QuantumChannel((k0, k1))


def _gram(gauss: np.ndarray) -> np.ndarray:
    """G^dag G for each G = real + 1j imag of a (..., 2, d, d) Gaussian stack."""
    g = gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :]
    return g.conj().swapaxes(-1, -2) @ g


def _unit_trace(h: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., d, d) stack divided by the real part of its trace."""
    return h / np.trace(h, axis1=-2, axis2=-1).real[..., None, None]


def _normalized_povm(ops: np.ndarray) -> np.ndarray:
    """S^{-1/2} A_k S^{-1/2} for positive A_k along axis -3, S = sum_k A_k.

    Works on a stack of such sets; the elements are positive and sum to
    the identity by construction, and are symmetrised to be exactly
    Hermitian.
    """
    total = sum(np.moveaxis(ops, -3, 0))
    vals, vecs = np.linalg.eigh(total)
    if np.any(vals[..., 0] <= 0):
        raise ValueError("degenerate random POVM draw; sum is singular")
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    inv_sqrt = inv_sqrt[..., None, :, :]
    el = inv_sqrt @ ops @ inv_sqrt
    return (el + el.conj().swapaxes(-1, -2)) / 2.0
