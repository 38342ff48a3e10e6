"""Round-by-round protocol engine for the refereed steering game.

Outcomes are sampled from the strategy's exact outcome table
(:func:`games.outcome_table`, the one exact evaluation reads) — there is
no trajectory-level simulation — so a finite run is an unbiased Monte
Carlo estimate of the exact payoff.  The referee's signals, imperfect
or not, come from the spec's ``signal_ensemble``, and an optional
``channel`` models the transmission line.

Randomness and reproducibility
------------------------------
A run owns one Philox counter-based stream keyed by ``rng_seed``.  Round
``i`` consumes exactly the two 64-bit words ``2i`` and ``2i+1`` of that
stream: the first word picks the referee's condition (j, s), the second
picks the outcome pair (a, b).  A word w stands for the uniform draw
``u = k * 2**-53`` with ``k = w >> 11``, and an index is the number of
CDF thresholds t with ``u >= t``.  The engine never forms u: ``u >= t``
holds exactly when ``k >= ceil(t * 2**53)``, so it compares integers.
A guide table per sampling row, indexed by the top 12 bits of the word,
holds that count wherever it is the same for every k of the bucket, so
one gather picks the condition and one the outcome; only the rounds in
a bucket that straddles a threshold (at most one bucket per threshold)
are compared exactly.

Streaming
---------
``run_game`` draws the stream in fixed chunks of ``_CHUNK_ROUNDS = 2**14``
rounds; consecutive draws continue the stream, so the chunk size never
shows in the output.  Each round reduces to a one-byte outcome code
(sampling-table row and outcome pair), and the estimate is computed from
the histogram of codes.  Without a transcript a run therefore holds
O(chunk) memory whatever its length; with one it keeps one byte per
round, read-only.  :func:`write_transcript_csv` expands the codes in
blocks of 10**4 rounds, gathering each round's row bytes from a table of
the encoded rows of every code.

Channel check
-------------
:func:`modified_povm` pulls a transmission channel into Bob's joint
POVM through its dual map, and :func:`noisy_equivalence_check` confirms
the identity numerically: it draws its random states on B as one
validated stack and evaluates both orders with the Born-rule kernel of
:mod:`strategies`, one call each, with no per-state loop.

Communication discipline
------------------------
A run opens the one-way channel its strategy declares
(``required_communication``, echoed in the config) and no other.
Strategies are never passed the referee's sign s: Alice's reply can
depend only on her setting j and — for a Bob-to-Alice cheat — on Bob's
transmitted message, and Bob's only on the signal state he receives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .games import OUTCOMES, SIGNALS, SteeringGameSpec, outcome_table
from .qcore import (
    DensityOperator,
    Povm,
    QuantumChannel,
    _check_density_stack,
    _gram,
    _unit_trace,
    tensor,
)
from .strategies import _signal_traces

TRANSCRIPT_FIELDS = ("round", "j", "s", "a", "b", "payoff")

#: Rounds sampled per chunk; bounds the working memory of a run.
_CHUNK_ROUNDS = 1 << 14

#: A word's guide-table bucket is its top _GUIDE_BITS bits; a guide entry
#: of _STRADDLE marks a bucket whose rounds are compared exactly.
_GUIDE_BITS = 12
_STRADDLE = 255


def _limits(thresholds) -> np.ndarray:
    """``ceil(t * 2**53)`` of each CDF threshold t, clipped to [0, 2**53], as uint64.

    Scaling by a power of two is exact, so ``k * 2**-53 >= t`` holds
    exactly when ``k >= ceil(t * 2**53)`` for every 53-bit integer k.
    """
    scaled = np.ceil(np.asarray(thresholds, dtype=np.float64) * 2.0 ** 53)
    return np.clip(scaled, 0.0, 2.0 ** 53).astype(np.uint64)


def _guide(limits: np.ndarray) -> np.ndarray:
    """Guide tables of a stack of limit rows: ``(..., n)`` uint64 -> ``(..., 2**12)`` uint8.

    Entry b of a row counts the row's limits <= k for every k = w >> 11
    whose word w has top bits b, or is ``_STRADDLE`` where that count
    changes inside the bucket.
    """
    width = 53 - _GUIDE_BITS
    lo = np.arange(1 << _GUIDE_BITS, dtype=np.uint64)[:, None] << np.uint64(width)
    hi = lo + np.uint64((1 << width) - 1)
    limits = limits[..., None, :]
    below_lo = (limits <= lo).sum(axis=-1)
    below_hi = (limits <= hi).sum(axis=-1)
    return np.where(below_lo == below_hi, below_lo, _STRADDLE).astype(np.uint8)


class _Sampler:
    """The per-chunk word -> code step of :func:`run_game`.

    ``probs`` is the input distribution in ``SIGNALS`` order and row
    ``k * n_var + v`` of ``cdf_table`` the outcome CDF of condition k,
    list variant v.  An index is the number of CDF entries a draw
    reaches, leaving out the last entry: it is the total probability, so
    the last index also takes any draw that a rounded-down total leaves.
    """

    def __init__(self, probs, cdf_table, n_var: int):
        self.n_var = n_var
        self.js_limits = _limits(np.cumsum(probs)[:-1])
        self.js_guide = _guide(self.js_limits)
        self.out_limits = _limits(cdf_table[:, :-1])
        # the outcome guide holds the code row * 4 + outcome, rows laid end to end
        counts = _guide(self.out_limits)
        codes = counts + 4 * np.arange(len(cdf_table), dtype=np.uint8)[:, None]
        self.out_guide = np.where(counts == _STRADDLE, _STRADDLE, codes).ravel()

    def codes(self, words: np.ndarray, variants: np.ndarray | None = None) -> np.ndarray:
        """uint8 codes of the rounds whose word pairs are ``words``.

        ``variants`` holds each round's list variant when ``n_var > 1``.
        """
        bucket = (words >> np.uint64(64 - _GUIDE_BITS)).view(np.int64)
        row = self.js_guide.take(bucket[0::2])
        exact = np.flatnonzero(row == _STRADDLE)
        if exact.size:
            k = words[0::2][exact] >> np.uint64(11)
            row[exact] = (k[:, None] >= self.js_limits).sum(axis=1)
        if variants is not None:
            row = row * self.n_var + variants
        index = row.astype(np.int64) << _GUIDE_BITS
        index |= bucket[1::2]
        codes = self.out_guide.take(index)
        exact = np.flatnonzero(codes == _STRADDLE)
        if exact.size:
            k = words[1::2][exact] >> np.uint64(11)
            rows = row[exact]
            codes[exact] = rows * 4 + (k[:, None] >= self.out_limits[rows]).sum(axis=1)
        return codes


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything a simulation run depends on."""

    spec: SteeringGameSpec
    strategy: object
    rounds: int
    rng_seed: int
    shared_state: DensityOperator | None = None
    channel: QuantumChannel | None = None
    keep_transcript: bool = True

    def __post_init__(self):
        if not isinstance(self.spec, SteeringGameSpec):
            raise ValueError("config needs a SteeringGameSpec")
        never = [sig for sig in SIGNALS if self.spec.input_distribution[sig] == 0.0]
        if never:
            # an unsampled condition would silently drop its payoff term
            raise ValueError(
                f"Monte Carlo runs need every condition to have positive "
                f"probability; {never} never occur"
            )
        rounds = int(self.rounds)
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds!r}")
        # |payoff| <= P per round, so the variance sums at most rounds * (2P)^2
        bound = max(2.0 / p for p in self.spec.input_distribution.values()) * (
            1.0 + self.spec.penalty_coefficient
        )
        if not math.isfinite(rounds * (2.0 * bound) * (2.0 * bound)):
            raise ValueError(
                f"payoff variance overflows a float: per-round payoffs reach {bound:g}"
            )
        seed = int(self.rng_seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("rng_seed must be a 64-bit unsigned integer")
        if self.strategy.needs_shared_state:
            if self.shared_state is None:
                raise ValueError("this strategy requires a shared state")
        elif self.shared_state is not None:
            raise ValueError("this strategy does not consume a shared state")
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "rng_seed", seed)


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of a run, one outcome code per round.

    ``codes[i]`` (uint8) indexes ``rows``, which holds the
    (j, s, a, b, payoff) of every code, so round i's transcript row is
    ``(i, *rows[codes[i]])``.
    """

    codes: np.ndarray
    rows: tuple

    def column(self, name: str) -> np.ndarray:
        """One column, named as in ``TRANSCRIPT_FIELDS``, for every round."""
        if name == "round":
            return np.arange(self.codes.size)
        k = TRANSCRIPT_FIELDS.index(name) - 1
        return np.array([row[k] for row in self.rows])[self.codes]


@dataclass(frozen=True, eq=False)
class PayoffEstimate:
    """Monte Carlo aggregate of a run.

    ``std_error`` is the sample standard deviation of the per-round
    payoffs divided by sqrt(rounds).  The tallies are empirical
    conditional means of a*b and b per condition (zero where a condition
    was never drawn; see ``counts``).
    """

    mean: float
    std_error: float
    rounds: int
    seed: int
    counts: dict
    e_ab: dict
    e_b: dict


def run_game(config: RunConfig):
    """Simulate a run; returns (PayoffEstimate, Transcript or None).

    The transcript is None when ``keep_transcript`` is false; the
    estimate is the same either way.
    """
    spec = config.spec
    n = config.rounds
    table = outcome_table(spec, config.strategy, config.shared_state, config.channel)
    # row k * n_var + v is the outcome CDF of condition k, list variant v
    n_var = table.shape[1]
    cdf_table = np.cumsum(table.reshape(-1, 4), axis=1)
    n_codes = 4 * len(cdf_table)

    probs = np.array([spec.input_distribution[sig] for sig in SIGNALS])
    sampler = _Sampler(probs, cdf_table, n_var)

    chunk = _CHUNK_ROUNDS
    variants = None
    if n_var > 1:
        round_list = np.array(config.strategy.round_list)
        period = round_list.size
        # the variants of rounds i..i+m-1 are cycle[i % period:][:m]
        cycle = np.resize((round_list == -1).astype(np.uint8), chunk + period)

    # One stream for the whole run: each random_raw call continues where
    # the previous one stopped, so round i still reads words 2i and 2i+1.
    bg = np.random.Philox(key=config.rng_seed)
    code_counts = np.zeros(n_codes, dtype=np.int64)
    codes = np.empty(n, dtype=np.uint8) if config.keep_transcript else None
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        if n_var > 1:
            phase = start % period
            variants = cycle[phase:phase + m]
        chunk_codes = sampler.codes(bg.random_raw(2 * m), variants)
        code_counts += np.bincount(chunk_codes, minlength=n_codes)
        if codes is not None:
            codes[start:start + m] = chunk_codes

    # code = (condition * n_var + variant) * 4 + outcome
    ids = np.arange(n_codes)
    k = ids // (4 * n_var)
    a = np.array([out[0] for out in OUTCOMES])[ids % 4]
    b = np.array([out[1] for out in OUTCOMES])[ids % 4]
    j_of = np.array([sig[0] for sig in SIGNALS])
    s_of = np.array([sig[1] for sig in SIGNALS])
    # Inverse-probability weight per condition: the per-round payoff
    # w * (s a b - coeff * b) is an unbiased estimator of the aggregate
    # payoff; under the uniform distribution w = 12.
    weights = 2.0 / probs
    coeff = spec.penalty_coefficient
    payoff = weights[k] * (s_of[k] * a * b - coeff * b)

    mean = code_counts @ payoff / n
    var = code_counts @ (payoff - mean) ** 2 / (n - 1) if n > 1 else 0.0
    counts = code_counts.reshape(6, -1).sum(axis=1)
    sum_ab = (code_counts * a * b).reshape(6, -1).sum(axis=1)
    sum_b = (code_counts * b).reshape(6, -1).sum(axis=1)
    safe = np.where(counts > 0, counts, 1)
    estimate = PayoffEstimate(
        mean=float(mean),
        std_error=float(np.sqrt(var) / np.sqrt(n)),
        rounds=n,
        seed=config.rng_seed,
        counts={sig: int(counts[i]) for i, sig in enumerate(SIGNALS)},
        e_ab={sig: float(sum_ab[i] / safe[i]) for i, sig in enumerate(SIGNALS)},
        e_b={sig: float(sum_b[i] / safe[i]) for i, sig in enumerate(SIGNALS)},
    )
    if codes is None:
        return estimate, None
    # frozen like the arrays of qcore: a code is an index into rows
    codes.setflags(write=False)
    rows = zip(j_of[k].tolist(), s_of[k].tolist(), a.tolist(), b.tolist(), payoff.tolist())
    return estimate, Transcript(codes, tuple(rows))


def modified_povm(channel: QuantumChannel, e_bc: Povm) -> Povm:
    """Pull a transmission channel on C into Bob's joint POVM.

    With phi* the dual map, E~_b = (1_B x phi*)(E_b) satisfies
    Tr[E_b (rho x phi(omega))] = Tr[E~_b (rho x omega)], so playing E~
    against a clean line reproduces playing E behind the channel.
    """
    if channel.input_dim != channel.output_dim:
        raise ValueError("signal channel must preserve dimension")
    d_c = channel.input_dim
    if e_bc.dim % d_c != 0:
        raise ValueError("POVM dimension incompatible with the channel")
    d_b = e_bc.dim // d_c
    elements = []
    for el in e_bc:
        acc = np.zeros_like(el)
        for k in channel.kraus_operators:
            lift = tensor(np.eye(d_b), k)
            acc = acc + lift.conj().T @ el @ lift
        elements.append((acc + acc.conj().T) / 2.0)
    return Povm(tuple(elements))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a channel/dual-POVM equivalence check."""

    passed: bool
    max_deviation: float
    povm_valid: bool
    message: str = ""

    def __bool__(self):
        return self.passed


#: Random states on B that :func:`noisy_equivalence_check` draws, and the
#: largest deviation between the two evaluation orders it accepts.
_EQUIVALENCE_SAMPLES = 20
_EQUIVALENCE_TOL = 1e-12


def noisy_equivalence_check(
    channel: QuantumChannel,
    e_bc: Povm,
    rng_seed: int = 0,
) -> EquivalenceReport:
    """Verify the dual-map identity behind :func:`modified_povm` numerically.

    Checks that the modified POVM is valid and that both evaluation
    orders agree, to ``_EQUIVALENCE_TOL``, on ``_EQUIVALENCE_SAMPLES``
    random states on B (drawn from ``rng_seed`` as one validated stack)
    against all six calibrated signals: ``E`` against the signals behind
    the channel, and the modified POVM against the clean signals, one
    call of the Born-rule kernel each.
    Never raises on failure; inspect the report.
    """
    try:
        modified = modified_povm(channel, e_bc)
    except ValueError as exc:
        return EquivalenceReport(False, float("nan"), False, f"invalid modified POVM: {exc}")
    d_b = e_bc.dim // channel.input_dim
    rng = np.random.default_rng(rng_seed)
    # each state is G^dag G at unit trace, G a complex Gaussian (real part, then imaginary)
    rhos = _unit_trace(_gram(rng.standard_normal((_EQUIVALENCE_SAMPLES, 2, d_b, d_b))))
    _check_density_stack(rhos)
    spec = SteeringGameSpec.ideal()
    states = rhos[:, None]
    # (signal, state, outcome): E behind the channel, E~ against the clean signals
    lhs = _signal_traces(np.stack(e_bc.elements)[None], states, spec.delivered_signals(channel))
    rhs = _signal_traces(np.stack(modified.elements)[None], states, spec.delivered_signals())
    max_dev = float(np.max(np.abs(lhs - rhs)))
    tol = _EQUIVALENCE_TOL
    passed = max_dev <= tol
    msg = "" if passed else f"evaluation orders deviate by {max_dev:.3e} (tol {tol:.1e})"
    return EquivalenceReport(passed, max_dev, True, msg)


def _sig_key(sig) -> str:
    """JSON key of a (j, s) condition: ``"j,s"``."""
    return f"{sig[0]},{sig[1]}"


def config_to_json(config: RunConfig) -> dict:
    """Self-describing echo of a run config (matrices included)."""
    spec = config.spec
    out = {
        "rounds": config.rounds,
        "rng_seed": config.rng_seed,
        "communication": config.strategy.required_communication,
        "keep_transcript": config.keep_transcript,
        "game": {
            "r": spec.r,
            "payoff_bound": spec.payoff_bound,
            "input_distribution": {
                _sig_key(sig): spec.input_distribution[sig] for sig in SIGNALS
            },
            "signal_ensemble": {
                _sig_key(sig): serialize.density_to_json(spec.signal_ensemble[sig])
                for sig in SIGNALS
            },
        },
        "strategy": serialize.strategy_to_json(config.strategy),
        "shared_state": (
            None
            if config.shared_state is None
            else serialize.density_to_json(config.shared_state)
        ),
        "channel": (
            None if config.channel is None else serialize.channel_to_json(config.channel)
        ),
    }
    return out


def write_transcript_csv(path, transcript: Transcript) -> None:
    """Write transcript rows with the fixed header round,j,s,a,b,payoff.

    Rows end in ``\\r\\n`` as CSV prescribes; payoffs are written with
    ``repr`` so they read back exactly.  Rows are assembled as bytes:
    each code's ``,j,s,a,b,payoff`` suffix is encoded once, NUL-padded to
    a common width, and the rounds go out in blocks of 10**4.  In block
    q >= 1 every round index is ``str(q)`` followed by four zero-padded
    low digits from a digit table (block 0 has NUL for the leading
    zeros), and one gather by code fills in the suffixes.  NUL never
    occurs in a row, so deleting it from a block's bytes leaves exactly
    the rows.
    """
    suffixes = [
        f",{j},{s},{a},{b},{payoff!r}\r\n".encode() for j, s, a, b, payoff in transcript.rows
    ]
    width = max(map(len, suffixes))
    padded = b"".join(suffix.ljust(width, b"\0") for suffix in suffixes)
    table = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
    block = 10 ** 4
    # digits[i] spells i with four zero-padded digits
    low, places = np.arange(block)[:, None], np.array([1000, 100, 10, 1])
    digits = (low // places % 10 + ord("0")).astype(np.uint8)
    # block 0 has no prefix, so its leading zeros go; round 0 keeps its "0"
    first = np.where(low < places, 0, digits).astype(np.uint8)
    first[0, -1] = ord("0")
    codes = transcript.codes
    with open(path, "wb") as fh:
        fh.write((",".join(TRANSCRIPT_FIELDS) + "\r\n").encode())
        for q, start in enumerate(range(0, codes.size, block)):
            chunk = codes[start:start + block]
            m = chunk.size
            prefix = str(q).encode() if q else b""
            p = len(prefix)
            rows = np.empty((m, p + 4 + width), dtype=np.uint8)
            rows[:, :p] = np.frombuffer(prefix, dtype=np.uint8)
            rows[:, p:p + 4] = (digits if q else first)[:m]
            rows[:, p + 4:] = table[chunk]
            fh.write(rows.tobytes().translate(None, b"\0"))


def write_summary_json(path, estimate: PayoffEstimate, config: RunConfig) -> None:
    """Write the run summary with the full resolved config and seed."""
    payload = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "rounds": estimate.rounds,
        "seed": estimate.seed,
        "counts": {_sig_key(sig): estimate.counts[sig] for sig in SIGNALS},
        "e_ab": {_sig_key(sig): estimate.e_ab[sig] for sig in SIGNALS},
        "e_b": {_sig_key(sig): estimate.e_b[sig] for sig in SIGNALS},
        "config": config_to_json(config),
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
