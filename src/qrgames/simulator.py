"""Round-by-round protocol engine for the refereed steering game.

Outcomes are sampled from the strategy's exact outcome table
(:func:`games.outcome_table`, the one exact evaluation reads) — there is
no trajectory-level simulation — so a finite run is an unbiased Monte
Carlo estimate of the exact payoff.  The referee, imperfect or not, and
its line to Bob are the spec's: its ``delivered_signals`` are its
``signal_ensemble`` after its optional ``channel``.

Randomness and reproducibility
------------------------------
A run owns one Philox counter-based stream keyed by ``rng_seed``.  Round
``i`` consumes exactly the two 64-bit words ``2i`` and ``2i+1`` of that
stream: the first word picks the referee's condition (j, s) uniformly,
the second the outcome pair (a, b).  A word w stands for the uniform draw
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
A run is one loop over chunks of ``_CHUNK_ROUNDS = 10**4`` rounds: a
chunk is drawn, sampled to one-byte outcome codes (sampling-table row
and outcome pair), added to the histogram of codes the estimate comes
from and, when a transcript is asked for, written by
:func:`write_transcript_csv`, before the next chunk is drawn.
Consecutive draws continue the stream, so the chunk size never shows in
the output, and a run holds one chunk's memory whatever its length.
The writer stages the codes into blocks of 10**4 rows and writes each
block in parts of at most ``_PART = 2500`` rows through one reused part
buffer, so its row bytes take a quarter of a block.

Communication discipline
------------------------
A run opens the one-way channel its strategy declares and no other; the
config echo reads it from the ``direction`` of the strategy document it
writes, null for a document without one.  No strategy is passed the
referee's sign s: Alice's reply can depend only on her setting j, a
preagreed list and a guess Bob sends, and Bob's only on the signal state
he receives and a setting Alice sends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .games import OUTCOMES, SIGNALS, SteeringGameSpec, _round_payoffs, outcome_table
from .qcore import DensityOperator

TRANSCRIPT_FIELDS = ("round", "j", "s", "a", "b", "payoff")

#: Rounds sampled per chunk, one transcript block; bounds a run's memory.
_CHUNK_ROUNDS = 10 ** 4
#: Rows the transcript writer gathers, patches and writes at a time.
_PART = 2_500

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
    changes inside the bucket.  A row has at most five limits, so the
    counts are summed as uint8.
    """
    width = 53 - _GUIDE_BITS
    lo = np.arange(1 << _GUIDE_BITS, dtype=np.uint64)[:, None] << np.uint64(width)
    hi = lo + np.uint64((1 << width) - 1)
    limits = limits[..., None, :]
    below_lo = (limits <= lo).sum(axis=-1, dtype=np.uint8)
    below_hi = (limits <= hi).sum(axis=-1, dtype=np.uint8)
    return np.where(below_lo == below_hi, below_lo, np.uint8(_STRADDLE))


class _Sampler:
    """The per-chunk word -> code step of :func:`run_game`.

    Conditions are drawn uniformly, in ``SIGNALS`` order, and row
    ``k * n_var + v`` of ``cdf_table`` is the outcome CDF of condition k,
    list variant v.  An index is the number of CDF entries a draw
    reaches, leaving out the last entry: it is the total probability, so
    the last index also takes any draw that a rounded-down total leaves.
    """

    def __init__(self, cdf_table, n_var: int):
        self.n_var = n_var
        # cumulative sums of 1/6, not k/6: the fifth limit differs by one
        self.js_limits = _limits(np.cumsum(np.full(len(SIGNALS), 1.0 / 6.0))[:-1])
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
    """Everything a simulation run depends on, and the outcome table it
    samples, built once into the read-only ``table``: a strategy that does
    not fit its shared state is refused here, not in :func:`run_game`."""

    spec: SteeringGameSpec
    strategy: object
    rounds: int
    rng_seed: int
    shared_state: DensityOperator | None = None
    keep_transcript: bool = True
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.spec, SteeringGameSpec):
            raise ValueError("config needs a SteeringGameSpec")
        rounds = int(self.rounds)
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds!r}")
        # |payoff| <= P per round, so the variance sums at most rounds * (2P)^2
        bound = 12.0 * (1.0 + self.spec.penalty_coefficient)
        if not math.isfinite(rounds * (2.0 * bound) * (2.0 * bound)):
            raise ValueError(
                f"payoff variance overflows a float: per-round payoffs reach {bound:g}"
            )
        seed = int(self.rng_seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("rng_seed must be a 64-bit unsigned integer")
        # refuses a missing or unwanted state, or one that does not fit the strategy
        table = outcome_table(self.spec, self.strategy, self.shared_state)
        table.setflags(write=False)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "rng_seed", seed)
        object.__setattr__(self, "table", table)


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


def run_game(config: RunConfig, transcript_path=None) -> PayoffEstimate:
    """Simulate a run and return its estimate.

    With ``transcript_path``, :func:`write_transcript_csv` writes the
    run's transcript there while the rounds are sampled, each chunk
    before the next is drawn; the estimate is the same either way.
    """
    spec = config.spec
    n = config.rounds
    # row k * n_var + v is the outcome CDF of condition k, list variant v
    n_var = config.table.shape[1]
    cdf_table = np.cumsum(config.table.reshape(-1, 4), axis=1)
    n_codes = 4 * len(cdf_table)
    sampler = _Sampler(cdf_table, n_var)
    code_counts = np.zeros(n_codes, dtype=np.int64)

    def chunks():
        """The run's codes chunk by chunk, each counted as it is yielded."""
        chunk = _CHUNK_ROUNDS
        variants = None
        if n_var > 1:
            answers = np.array(config.strategy.answer_list)
            period = answers.size
            # the variants of rounds i..i+m-1 are cycle[i % period:][:m]
            cycle = np.resize((answers == -1).astype(np.uint8), chunk + period)
        # One stream for the whole run: each random_raw call continues where
        # the previous one stopped, so round i still reads words 2i and 2i+1.
        bg = np.random.Philox(key=config.rng_seed)
        for start in range(0, n, chunk):
            m = min(chunk, n - start)
            if n_var > 1:
                phase = start % period
                variants = cycle[phase:phase + m]
            codes = sampler.codes(bg.random_raw(2 * m), variants)
            code_counts[:] += np.bincount(codes, minlength=n_codes)
            yield codes

    # code = (condition * n_var + variant) * 4 + outcome
    ids = np.arange(n_codes)
    k = ids // (4 * n_var)
    a = np.array([out[0] for out in OUTCOMES])[ids % 4]
    b = np.array([out[1] for out in OUTCOMES])[ids % 4]
    j_of = np.array([sig[0] for sig in SIGNALS])
    s_of = np.array([sig[1] for sig in SIGNALS])
    payoff = _round_payoffs(s_of[k], a, b, spec.penalty_coefficient)
    if transcript_path is None:
        for _ in chunks():
            pass
    else:
        rows = zip(j_of[k].tolist(), s_of[k].tolist(), a.tolist(), b.tolist(), payoff.tolist())
        write_transcript_csv(transcript_path, rows, chunks())

    mean = code_counts @ payoff / n
    var = code_counts @ (payoff - mean) ** 2 / (n - 1) if n > 1 else 0.0
    counts = code_counts.reshape(6, -1).sum(axis=1)
    sum_ab = (code_counts * a * b).reshape(6, -1).sum(axis=1)
    sum_b = (code_counts * b).reshape(6, -1).sum(axis=1)
    safe = np.where(counts > 0, counts, 1)
    return PayoffEstimate(
        mean=float(mean),
        std_error=float(np.sqrt(var) / np.sqrt(n)),
        rounds=n,
        seed=config.rng_seed,
        counts={sig: int(counts[i]) for i, sig in enumerate(SIGNALS)},
        e_ab={sig: float(sum_ab[i] / safe[i]) for i, sig in enumerate(SIGNALS)},
        e_b={sig: float(sum_b[i] / safe[i]) for i, sig in enumerate(SIGNALS)},
    )


def _sig_key(sig) -> str:
    """JSON key of a (j, s) condition: ``"j,s"``."""
    return f"{sig[0]},{sig[1]}"


def config_to_json(config: RunConfig) -> dict:
    """Self-describing echo of a run config (matrices included)."""
    spec = config.spec
    strategy = serialize.strategy_to_json(config.strategy)
    return {
        "rounds": config.rounds,
        "rng_seed": config.rng_seed,
        "communication": strategy.get("direction"),
        "keep_transcript": config.keep_transcript,
        "game": {
            "r": spec.r,
            "payoff_bound": spec.payoff_bound,
            "input_distribution": {_sig_key(sig): 1.0 / 6.0 for sig in SIGNALS},
            "signal_ensemble": {
                _sig_key(sig): serialize.density_to_json(spec.signal_ensemble[sig])
                for sig in SIGNALS
            },
        },
        "strategy": strategy,
        "shared_state": (
            None
            if config.shared_state is None
            else serialize.density_to_json(config.shared_state)
        ),
        "channel": None if spec.channel is None else serialize.channel_to_json(spec.channel),
    }


def _blocks(chunks, size: int):
    """The codes of ``chunks`` regrouped into arrays of ``size``, the last
    one shorter, staged in one reused buffer."""
    staged = np.empty(size, dtype=np.uint8)
    filled = 0
    for codes in chunks:
        while codes.size:
            take = min(size - filled, codes.size)
            staged[filled:filled + take], codes = codes[:take], codes[take:]
            filled = (filled + take) % size
            if not filled:
                yield staged
    if filled:
        yield staged[:filled]


def write_transcript_csv(path, rows, chunks) -> None:
    """Write transcript rows with the fixed header round,j,s,a,b,payoff.

    ``rows`` holds the (j, s, a, b, payoff) of every outcome code and
    ``chunks`` yields the run's uint8 codes, consecutive rounds in arrays
    of any length; round i's row is ``(i, *rows[code of round i])``.
    Rows end in ``\\r\\n`` as CSV prescribes; payoffs are written with
    ``repr`` so they read back exactly.  Rows are assembled as bytes:
    each code's ``,j,s,a,b,payoff`` suffix is encoded once, NUL-padded to
    a common width, and the rounds, staged from the chunks as they
    arrive, are numbered in blocks of 10**4.  In block q >= 1 every round
    index is ``str(q)`` followed by four zero-padded low digits (block 0
    has NUL for the leading zeros).  The table holds each code's whole
    row as one record: ``len(str(q)) + 4`` NULs, then its suffix.  A
    block goes out in parts of at most ``_PART`` rows: one gather by code
    fills the part buffer, and the prefix and the low digits, from a
    digit table, are written over the NULs through strided record views.
    NUL never occurs in a row, so deleting it from a part's bytes leaves
    exactly the rows.  The table and the part buffer are rebuilt only
    when the prefix gains a digit, and only a short last part is sliced,
    so per part the writer allocates only the stripped bytes it writes:
    its row bytes are one part's, not one block's.
    """
    suffixes = [f",{j},{s},{a},{b},{payoff!r}\r\n".encode() for j, s, a, b, payoff in rows]
    width = max(map(len, suffixes))
    suffixes = [suffix.ljust(width, b"\0") for suffix in suffixes]
    block = 10 ** 4
    # digits[i] spells i with four zero-padded digits
    low = np.arange(block, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (low // places % 10 + ord("0")).astype(np.uint8)
    # block 0 has no prefix, so its leading zeros go; round 0 keeps its "0"
    first = np.where(low < places, np.uint8(0), digits)
    first[0, -1] = ord("0")
    digits, first = digits.view("V4").ravel(), first.view("V4").ravel()
    table = None
    with open(path, "wb") as fh:
        fh.write((",".join(TRANSCRIPT_FIELDS) + "\r\n").encode())
        for q, codes in enumerate(_blocks(chunks, block)):
            prefix = str(q).encode() if q else b""
            p = len(prefix)
            rec = p + 4 + width
            if table is None or table.itemsize != rec:
                # the prefix gained a digit
                table = np.frombuffer(b"".join(bytes(p + 4) + s for s in suffixes), f"V{rec}")
                raw = bytearray(_PART * rec)
                out = np.frombuffer(raw, dtype=table.dtype)
            spelled = digits if q else first
            for lo in range(0, codes.size, _PART):
                part = codes[lo:lo + _PART]
                m = part.size
                # codes index the table, so "clip" clips nothing; it lets take write in place
                np.take(table, part, out=out[:m], mode="clip")
                np.ndarray(m, f"V{p}", raw, 0, (rec,))[:] = prefix
                np.ndarray(m, "V4", raw, p, (rec,))[:] = spelled[lo:lo + m]
                fh.write((raw if m == _PART else raw[:m * rec]).translate(None, b"\0"))


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
