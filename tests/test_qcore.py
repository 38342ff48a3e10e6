"""Linear-algebra primitives and validated quantum objects."""

from itertools import permutations

import numpy as np
import pytest

from qrgames.qcore import (
    BlochVector,
    DensityOperator,
    Povm,
    QuantumChannel,
    _check_density_stack,
    _gram,
    amplitude_damping_channel,
    bloch_operator,
    depolarizing_channel,
    mats_close,
    pauli,
    signal_state,
    singlet_projector,
    tensor,
    werner_state,
)

from random_draws import random_density, random_povm
from reference_states import expectation, partial_trace

I2 = np.eye(2)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with complex Gaussian entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def test_pauli_algebra():
    """sigma_j^2 = 1, traceless, pairwise anticommuting, sigma_1 sigma_2 = i sigma_3."""
    for j in (1, 2, 3):
        s = pauli(j)
        assert mats_close(s @ s, I2, 1e-15)
        assert abs(np.trace(s)) < 1e-15
        assert mats_close(s, s.conj().T, 1e-15)
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j != k:
                anti = pauli(j) @ pauli(k) + pauli(k) @ pauli(j)
                assert np.max(np.abs(anti)) < 1e-15
    assert mats_close(pauli(1) @ pauli(2), 1j * pauli(3), 1e-15)


@pytest.mark.parametrize("j", [0, 4, -1, "x"])
def test_pauli_rejects_bad_index(j):
    with pytest.raises(ValueError):
        pauli(j)


def test_tensor_shapes_and_order():
    t = tensor(pauli(1), pauli(3))
    assert t.shape == (4, 4)
    # order matters: sigma_1 x sigma_3 != sigma_3 x sigma_1
    assert not mats_close(t, tensor(pauli(3), pauli(1)))
    # associativity of the flattened product
    a, b, c = pauli(1), pauli(2), pauli(3)
    assert mats_close(tensor(a, b, c), np.kron(np.kron(a, b), c), 1e-15)
    with pytest.raises(ValueError):
        tensor()


def _complex_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tensor_is_bitwise_kron(rng):
    a, b = _complex_matrix(rng, (2, 2)), _complex_matrix(rng, (4, 4))
    assert np.array_equal(tensor(a, b), np.kron(a, b))
    x, y = _complex_matrix(rng, (1, 1)), _complex_matrix(rng, (1, 1))
    assert np.array_equal(tensor(x, y), np.kron(x, y))
    p, q = _complex_matrix(rng, (2, 3)), _complex_matrix(rng, (3, 2))
    assert tensor(p, q).shape == (6, 6)
    assert np.array_equal(tensor(p, q), np.kron(p, q))
    c = _complex_matrix(rng, (3, 3))
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))


def _assert_kron_per_item(*operators):
    """``tensor`` of stacked operands is, item by item, the bits of ``np.kron``."""
    out = tensor(*operators)
    lead = np.broadcast_shapes(*(op.shape[:-2] for op in operators))
    items = [np.broadcast_to(op, lead + op.shape[-2:]) for op in operators]
    rows = np.prod([op.shape[-2] for op in operators])
    cols = np.prod([op.shape[-1] for op in operators])
    assert out.shape == lead + (rows, cols)
    for idx in np.ndindex(*lead):
        want = items[0][idx]
        for item in items[1:]:
            want = np.kron(want, item[idx])
        assert np.array_equal(out[idx], want)


@pytest.mark.parametrize(
    "left_shape, right_shape",
    [
        ((5, 2, 3), (5, 3, 2)),  # one stack axis on both sides
        ((8, 4, 4), (2, 2)),  # a stack times one matrix
        ((2, 2), (3, 4, 4)),  # one matrix times a stack
        ((2, 1, 2, 2), (1, 3, 4, 4)),  # stack axes broadcast against each other
        ((1, 1, 1), (1, 1)),
        ((2, 2), (2, 2, 2)),  # a 3-D operand is a stack, not an error
    ],
)
def test_stacked_kron_kernel_is_bitwise_kron_per_item(rng, left_shape, right_shape):
    _assert_kron_per_item(_complex_matrix(rng, left_shape), _complex_matrix(rng, right_shape))


def test_stacked_tensor_of_three_operands_is_bitwise_kron_per_item(rng):
    _assert_kron_per_item(
        _complex_matrix(rng, (3, 1, 2, 2)),
        _complex_matrix(rng, (2, 3, 1)),
        _complex_matrix(rng, (3, 2, 2, 2)),
    )


@pytest.mark.parametrize("bad", [np.ones(2), np.array(1.0)])
def test_tensor_rejects_operands_that_are_not_matrices(bad):
    with pytest.raises(ValueError):
        tensor(bad)
    with pytest.raises(ValueError):
        tensor(np.eye(2), bad)


# the package takes no partial trace: these hold the test-side one, which the
# programmed-effect and hidden-state tests compare against, to its closed forms
def test_partial_trace_product_states(rng):
    """Tr_B[rho_A x rho_B] = rho_A and vice versa, for random factors."""
    for da, db in ((2, 2), (2, 3), (3, 2), (4, 2)):
        rho_a = random_density(rng, da).matrix
        rho_b = random_density(rng, db).matrix
        joint = tensor(rho_a, rho_b)
        assert mats_close(partial_trace(joint, [da, db], 1), rho_a, 1e-12)
        assert mats_close(partial_trace(joint, [da, db], 0), rho_b, 1e-12)


def test_partial_trace_preserves_trace(rng):
    m = random_hermitian(rng, 6)
    reduced = partial_trace(m, [2, 3], 0)
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12
    reduced = partial_trace(m, [2, 3], 1)
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_three_factors(rng):
    """Tracing the middle factor of A x B x C leaves A x C."""
    a = random_density(rng, 2).matrix
    b = random_density(rng, 2).matrix
    c = random_density(rng, 3).matrix
    out = partial_trace(tensor(a, b, c), [2, 2, 3], 1)
    assert mats_close(out, tensor(a, c), 1e-12)


def test_singlet_projector_from_state_vector():
    """The operator form must equal |psi-><psi-| with psi- = (01 - 10)/sqrt(2)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert mats_close(singlet_projector(), np.outer(psi, psi), 1e-15)
    p = singlet_projector()
    assert mats_close(p @ p, p, 1e-15)  # projector
    assert abs(np.trace(p) - 1.0) < 1e-15  # rank one


@pytest.mark.parametrize("w", [-1 / 3, -0.1, 0.0, 0.3, 1 / np.sqrt(3), 0.98, 1.0])
def test_werner_state_spectrum_and_correlations(w):
    """Eigenvalues {(1+3w)/4, (1-w)/4 x3}; Tr[(sigma_j x sigma_j) rho] = -w."""
    rho = werner_state(w)
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    expected = np.sort([(1 + 3 * w) / 4, (1 - w) / 4, (1 - w) / 4, (1 - w) / 4])
    assert np.max(np.abs(eigs - expected)) < 1e-12
    for j in (1, 2, 3):
        corr = expectation(rho, tensor(pauli(j), pauli(j)))
        assert abs(corr - (-w)) < 1e-12


def test_werner_state_limits():
    assert mats_close(werner_state(1.0).matrix, singlet_projector(), 1e-12)
    assert mats_close(werner_state(0.0).matrix, np.eye(4) / 4.0, 1e-15)
    for bad in (-0.34, 1.01, 2.0):
        with pytest.raises(ValueError):
            werner_state(bad)


def test_signal_states_are_pauli_eigenprojectors():
    for j in (1, 2, 3):
        for s in (1, -1):
            omega = signal_state(j, s).matrix
            assert mats_close(omega @ omega, omega, 1e-15)
            assert mats_close(pauli(j) @ omega, s * omega, 1e-15)
    with pytest.raises(ValueError):
        signal_state(1, 0)
    with pytest.raises(ValueError):
        signal_state(5, 1)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityOperator(np.eye(2) / 2)
    assert rho.dim == 2
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0  # frozen array


_BAD_STATES = {
    "not Hermitian": np.array([[0.5, 1.0], [0.0, 0.5]]),
    "not unit trace": np.eye(2),
    "not positive": np.diag([1.5, -0.5]),
    "not finite": np.array([[np.nan, 0.0], [0.0, 1.0]]),
}

_BAD_POVMS = {
    "not Hermitian": [np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])],
    "not positive": [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])],
    "not a resolution": [np.eye(2), np.eye(2)],
    "second element": [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])],
}


@pytest.mark.parametrize("first, later", list(permutations(_BAD_STATES, 2)))
def test_stacked_state_validation_reports_the_first_bad_item(first, later):
    good = np.eye(2) / 2
    stack = np.array([good, _BAD_STATES[first], good, _BAD_STATES[later]], dtype=complex)
    with pytest.raises(ValueError) as alone:
        DensityOperator(_BAD_STATES[first])
    with pytest.raises(ValueError) as stacked:
        _check_density_stack(stack)
    assert str(stacked.value) == str(alone.value)
    _check_density_stack(stack[[0, 2]])


@pytest.mark.parametrize("first, later", list(permutations(_BAD_POVMS, 2)))
def test_stacked_povm_validation_reports_the_first_bad_item(first, later):
    """One POVM's elements are checked in order, each Hermitian then
    positive, before their sum: the elements of two bad POVMs, joined into
    one, fail as the first of the two with a bad element fails alone."""
    elements = np.array(_BAD_POVMS[first] + _BAD_POVMS[later], dtype=complex)
    culprit = later if first == "not a resolution" else first
    with pytest.raises(ValueError) as alone:
        Povm(tuple(_BAD_POVMS[culprit]))
    with pytest.raises(ValueError) as stacked:
        Povm(tuple(elements))
    assert str(stacked.value) == str(alone.value)
    Povm((np.eye(2) / 2, np.eye(2) / 2))


def test_povm_validation_and_order():
    up = signal_state(3, 1).matrix
    down = signal_state(3, -1).matrix
    povm = Povm((up, down))
    assert povm.n_outcomes == 2 and povm.dim == 2
    assert mats_close(povm[0], up)
    assert list(povm)[1] is povm[1]
    with pytest.raises(ValueError):
        Povm((up, up))  # doesn't sum to identity
    with pytest.raises(ValueError):
        Povm((1.5 * up, I2 - 1.5 * up))  # second element not PSD
    with pytest.raises(ValueError):
        Povm(())


def test_depolarizing_channel_action(rng):
    """rho -> (1-p) rho + p 1/2 exactly, for random inputs."""
    for p in (0.0, 0.25, 1.0):
        ch = depolarizing_channel(p)
        rho = random_density(rng, 2)
        out = DensityOperator(ch.apply_to_matrix(rho.matrix))
        want = (1 - p) * rho.matrix + p * I2 / 2
        assert mats_close(out.matrix, want, 1e-12)
    with pytest.raises(ValueError):
        depolarizing_channel(1.2)


def test_amplitude_damping_channel():
    ch = amplitude_damping_channel(0.4)
    ground = DensityOperator(np.diag([1.0, 0.0]))
    assert mats_close(ch.apply_to_matrix(ground.matrix), ground.matrix, 1e-15)
    excited = DensityOperator(np.diag([0.0, 1.0]))
    out = DensityOperator(ch.apply_to_matrix(excited.matrix))
    assert mats_close(out.matrix, np.diag([0.4, 0.6]), 1e-12)
    # full damping sends everything to the ground state
    full = amplitude_damping_channel(1.0)
    assert mats_close(full.apply_to_matrix(excited.matrix), ground.matrix, 1e-12)
    with pytest.raises(ValueError):
        amplitude_damping_channel(-0.1)


def test_channel_completeness_enforced():
    with pytest.raises(ValueError):
        QuantumChannel((0.9 * I2,))
    with pytest.raises(ValueError):
        QuantumChannel(())


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        BlochVector(np.zeros(3), 0.0)  # mu must be positive
    with pytest.raises(ValueError):
        BlochVector(np.array([np.inf, 0, 0]), 0.5)
    b = BlochVector(np.array([0.6, 0.0, 0.8]), 0.25)
    assert b.m.tolist() == [0.6, 0.0, 0.8] and not b.m.flags.writeable
    assert b.mu == 0.25


def test_bloch_povm_pair():
    b = BlochVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), 0.5)
    povm = b.povm_pair()
    # order is (+1 outcome, -1 outcome) and elements sum to the identity
    assert mats_close(povm[0], bloch_operator(b), 1e-15)
    assert mats_close(povm[0] + povm[1], I2, 1e-15)
    # mu (1 + |m|) > 1 makes the complement element negative
    with pytest.raises(ValueError):
        BlochVector(np.array([1.0, 0.0, 0.0]), 0.8).povm_pair()


def test_bloch_operator_spectrum(rng):
    """Eigenvalues of mu (1 + m.sigma) are mu (1 +- |m|)."""
    for _ in range(5):
        m = rng.uniform(-1, 1, 3)
        m = m / max(1.0, np.linalg.norm(m))
        mu = rng.uniform(0.05, 1.0 / (1.0 + np.linalg.norm(m)))
        op = bloch_operator(BlochVector(m, mu))
        eigs = np.sort(np.linalg.eigvalsh(op))
        want = np.sort([mu * (1 - np.linalg.norm(m)), mu * (1 + np.linalg.norm(m))])
        assert np.max(np.abs(eigs - want)) < 1e-12


def test_random_constructors_produce_valid_objects(rng):
    for dim in (2, 3, 4):
        rho = random_density(rng, dim)
        assert rho.dim == dim
        pos = _gram(rng.standard_normal((2, dim, dim)))
        assert mats_close(pos, pos.conj().T, 1e-10)
        assert np.linalg.eigvalsh(pos)[0] >= -1e-10
        povm = random_povm(rng, dim, 3)
        assert povm.n_outcomes == 3
        total = sum(povm.elements)
        assert mats_close(total, np.eye(dim), 1e-10)

