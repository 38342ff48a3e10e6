"""Monte Carlo engine: determinism, the documented RNG word rule, transcript
artifacts, and a noisy line held to the dual-map reference."""

import csv
import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames import simulator
from qrgames.games import (
    SIGNALS,
    SQRT3,
    SteeringGameSpec,
    outcome_table,
    qrs_payoff_exact,
)
from qrgames.qcore import (
    BlochVector,
    Povm,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    signal_state,
    werner_state,
)
from qrgames.simulator import (
    OUTCOMES,
    TRANSCRIPT_FIELDS,
    RunConfig,
    run_game,
    write_summary_json,
)
from qrgames.strategies import (
    ClassicalCheat,
    HonestStrategy,
    best_estimator,
    honest_strategy,
    partial_bell_povm,
)

from random_draws import random_povm
from reference_channel import dual_map_deviation, modified_povm
from reference_payoff import round_payoff


def _honest_config(rounds, seed, w=0.9, r=1.0, **kw):
    return RunConfig(
        spec=SteeringGameSpec.ideal(r=r),
        strategy=honest_strategy(),
        rounds=rounds,
        rng_seed=seed,
        shared_state=werner_state(w),
        **kw,
    )


def _stream_words(seed, count):
    """The raw 64-bit Philox words underlying a run with the given seed."""
    return np.random.Philox(key=int(seed)).random_raw(count)


def _transcript_columns(path):
    """Each transcript.csv column by name, one entry per round, read back
    from the file: the payoff as floats, the rest as ints."""
    with open(path, newline="") as fh:
        header, *records = csv.reader(fh)
    assert tuple(header) == TRANSCRIPT_FIELDS
    return {
        name: np.array([float(x) if name == "payoff" else int(x) for x in column])
        for name, column in zip(TRANSCRIPT_FIELDS, zip(*records))
    }


def _word_to_uniform(word):
    return float((int(word) >> 11) * 2.0 ** -53)


#: The thresholds of the uniform condition draw, as the sampler forms them.
_CONDITION_CDF = np.cumsum(np.full(6, 1.0 / 6.0))[:-1]


def test_runs_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    est_a = run_game(_honest_config(500, 99), p1)
    est_b = run_game(_honest_config(500, 99), p2)
    assert est_a.mean == est_b.mean
    assert est_a.std_error == est_b.std_error
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_changes_the_transcript(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_game(_honest_config(200, 1), p1)
    run_game(_honest_config(200, 2), p2)
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize(
    "style, bound",
    [("honest", SQRT3), ("list-cheat", SQRT3), ("honest", 1.5)],
    ids=["honest", "list-cheat", "honest-bound-1.5"],
)
def test_word_rule_replay(style, bound, tmp_path):
    """Round i is fully determined by stream words 2i (inputs) and 2i+1 (outcomes).

    Replays the engine from the raw Philox stream and the strategies'
    exact conditional distributions; every transcript field must match,
    the payoff through the written-out ``round_payoff`` at the game's own bound.
    """
    n, seed = 300, 20240818
    spec = SteeringGameSpec.ideal(r=1.081, payoff_bound=bound)
    if style == "honest":
        strategy, state = honest_strategy(), werner_state(0.85)
    else:
        strategy, state = ClassicalCheat(best_estimator(), answer_list=(1, -1, 1)), None
    config = RunConfig(spec, strategy, n, seed, shared_state=state)
    path = tmp_path / "transcript.csv"
    run_game(config, path)
    col = {name: column.tolist() for name, column in _transcript_columns(path).items()}

    words = _stream_words(seed, 2 * n)
    answers = getattr(strategy, "answer_list", None)
    table = strategy.outcome_distribution(spec.delivered_signals, state)
    for i in range(n):
        u_js = _word_to_uniform(words[2 * i])
        u_out = _word_to_uniform(words[2 * i + 1])
        j, s = SIGNALS[int(np.searchsorted(_CONDITION_CDF, u_js, side="right"))]
        assert (col["j"][i], col["s"][i]) == (j, s)
        # list variant 0 answers +1, variant 1 answers -1
        variant = 0 if answers is None else int(answers[i % len(answers)] == -1)
        dist = table[SIGNALS.index((j, s)), variant]
        acc, picked = 0.0, OUTCOMES[-1]
        for out, p in zip(OUTCOMES, dist):
            acc += p
            if u_out < acc:
                picked = out
                break
        assert (col["a"][i], col["b"][i]) == picked
        assert col["round"][i] == i
        assert col["payoff"][i] == round_payoff(
            col["a"][i], col["b"][i], s, r=spec.r, payoff_bound=spec.payoff_bound
        )


#: sha256 of transcript.csv for the two runs of test_chunking_is_invisible,
#: as written by the unchunked engine that built one record per round.
_PINNED_TRANSCRIPTS = {
    "honest": "d052be9180282da2341cb0567bffe59eff5b5245c234e511a5eeae2006cac784",
    "list-cheat": "2e72d444c1c346b03b0433a1e1974ebd9ef77121cebce2fa7b4207efe722f8e4",
}


@pytest.mark.parametrize("style", ["honest", "list-cheat"])
def test_chunking_is_invisible(style, tmp_path, monkeypatch):
    """Chunk sizes 1, 7, 4096, 2**14 and the whole run write the same bytes.

    With 5000 rounds and a 7-entry answer list, 4096-round chunks start
    mid-list, and 7-round chunks split the stream's 4-word Philox blocks.
    """
    n, seed = 5000, 20240818
    spec = SteeringGameSpec.ideal(r=1.081)
    if style == "honest":
        strategy, state = honest_strategy(), werner_state(0.85)
    else:
        answers = (1, -1, -1, 1, 1, -1, 1)
        strategy, state = ClassicalCheat(best_estimator(), answer_list=answers), None
    outputs = set()
    for chunk in (1, 7, 4096, 1 << 14, n):
        monkeypatch.setattr(simulator, "_CHUNK_ROUNDS", chunk)
        config = RunConfig(spec, strategy, n, seed, shared_state=state)
        csv_path, summary_path = tmp_path / "transcript.csv", tmp_path / "summary.json"
        est = run_game(config, csv_path)
        write_summary_json(summary_path, est, config)
        outputs.add((csv_path.read_bytes(), summary_path.read_bytes()))
    assert len(outputs) == 1
    ((csv_bytes, _),) = outputs
    assert hashlib.sha256(csv_bytes).hexdigest() == _PINNED_TRANSCRIPTS[style]


def _float_codes(words, cdf_table, n_var, variants):
    """The word -> code step as floats: u = (w >> 11) * 2**-53 against the CDFs."""
    u = (words >> np.uint64(11)) * 2.0 ** -53
    u_js, u_out = u[0::2], u[1::2]
    row = np.zeros(u_js.size, dtype=np.int64)
    for t in _CONDITION_CDF:
        row += u_js >= t
    if n_var > 1:
        row = row * n_var + variants
    codes = row * 4
    for column in cdf_table[:, :-1].T:
        codes += u_out >= column[row]
    return codes


def _crafted_ks(thresholds):
    """k = T-1, T, T+1 for every T = ceil(t * 2**53), both edges of every
    12-bit bucket, and the extremes 0 and 2**53 - 1."""
    top = 2 ** 53 - 1
    ks = {0, top}
    for t in np.ravel(thresholds):
        limit = math.ceil(float(t) * 2 ** 53)
        ks |= {min(max(limit + d, 0), top) for d in (-1, 0, 1)}
    for b in range(1 << 12):
        ks |= {b << 41, ((b + 1) << 41) - 1}
    return np.array(sorted(ks), dtype=np.uint64)


def _words(cond_ks, out_ks, low):
    """Round words (k << 11) | low, each condition k paired with each outcome k."""
    pairs = np.empty((cond_ks.size, out_ks.size, 2), dtype=np.uint64)
    pairs[:, :, 0] = cond_ks[:, None]
    pairs[:, :, 1] = out_ks[None, :]
    return (pairs.reshape(-1) << np.uint64(11)) | np.uint64(low)


_ULP = 2.0 ** -53
_SAMPLER_TABLES = {
    # zero-probability outcomes repeat a threshold; certain outcomes sit at 0 and 1
    "zero-and-certain": (
        [[0.25, 0.25, 0.75, 1.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
         [0.0, 0.0, 0.0, 1.0], [0.5, 1.0, 1.0, 1.0], [0.1, 0.3, 0.6, 1.0]],
        1,
    ),
    # CDFs that total 1 - 1 ulp and 1 + 2 ulp, and a threshold of 2**-60
    "ulp-totals": (
        [[0.3, 0.6, 1 - _ULP, 1 - _ULP], [0.3, 0.6, 1 + 2 * _ULP, 1 + 2 * _ULP],
         [2.0 ** -60, 0.5, 0.5, 1.0], [1 / 3, 2 / 3, 1 - _ULP, 1.0],
         [0.7, 0.8, 0.9, 1 - _ULP], [0.2, 0.4, 0.6, 1.0]],
        1,
    ),
    # the answer-list path: two variants per condition
    "two-variants": (
        np.cumsum(np.random.default_rng(5).dirichlet(np.ones(4), size=12), axis=1),
        2,
    ),
}


@pytest.mark.parametrize("low", [0, 0x7FF], ids=["low-bits-clear", "low-bits-set"])
@pytest.mark.parametrize("name", sorted(_SAMPLER_TABLES))
def test_sampler_equals_the_float_formula(name, low):
    """Integer guide tables pick the codes the float comparison picks.

    Every condition k meets every crafted outcome k under each variant,
    so each threshold and each bucket edge of every row is crossed.
    """
    cdf_table, n_var = _SAMPLER_TABLES[name]
    cdf_table = np.asarray(cdf_table, dtype=np.float64)
    sampler = simulator._Sampler(cdf_table, n_var)
    cond_ks = _crafted_ks(_CONDITION_CDF)
    out_ks = _crafted_ks(cdf_table[:, :-1])
    # one k per condition, each paired with every crafted outcome k
    conditions = _float_codes(_words(cond_ks, out_ks[:1], 0), cdf_table, 1, None) // 4
    _, first = np.unique(conditions, return_index=True)
    words = np.concatenate(
        [_words(cond_ks, out_ks[:1], low), _words(cond_ks[first], out_ks, low)]
    )
    variants = None
    if n_var > 1:
        # every round once under each list variant
        rounds = words.size // 2
        words = np.repeat(words.reshape(-1, 2), 2, axis=0).reshape(-1)
        variants = np.tile(np.arange(2, dtype=np.uint8), rounds)
    want = _float_codes(words, cdf_table, n_var, variants)
    assert np.array_equal(sampler.codes(words, variants), want)
    assert len(np.unique(want)) > 6 * n_var
    # at most one straddling bucket per threshold
    assert np.sum(sampler.js_guide == simulator._STRADDLE) <= 5
    assert np.sum(sampler.out_guide == simulator._STRADDLE) <= 3 * len(cdf_table)


def test_single_round_run(tmp_path):
    path = tmp_path / "transcript.csv"
    est = run_game(_honest_config(1, 0), path)
    assert est.rounds == 1
    assert _transcript_columns(path)["round"].tolist() == [0]
    assert est.std_error == 0.0 or math.isnan(est.std_error) is False


def test_round_payoffs_live_on_the_three_point_support(tmp_path):
    r = 1.081
    support = {
        0.0,
        12.0 * (1 - r / SQRT3),
        -12.0 * (1 + r / SQRT3),
    }
    path = tmp_path / "transcript.csv"
    run_game(_honest_config(2000, 5, w=0.98, r=r), path)
    assert set(_transcript_columns(path)["payoff"].tolist()) <= support


def test_estimate_matches_transcript(tmp_path):
    path = tmp_path / "transcript.csv"
    est = run_game(_honest_config(4000, 11), path)
    columns = _transcript_columns(path)
    payoffs = columns["payoff"]
    assert est.mean == pytest.approx(payoffs.mean(), abs=1e-12)
    assert est.std_error == pytest.approx(
        payoffs.std(ddof=1) / math.sqrt(len(payoffs)), abs=1e-12
    )
    j, s, a, b = (columns[name] for name in ("j", "s", "a", "b"))
    for sig in SIGNALS:
        rows = (j == sig[0]) & (s == sig[1])
        assert est.counts[sig] == rows.sum()
        if rows.any():
            assert est.e_ab[sig] == pytest.approx(np.mean(a[rows] * b[rows]), abs=1e-12)
            assert est.e_b[sig] == pytest.approx(np.mean(b[rows]), abs=1e-12)


def test_dropping_the_transcript_keeps_the_estimate(tmp_path):
    kept = run_game(_honest_config(3000, 17), tmp_path / "transcript.csv")
    slim = run_game(_honest_config(3000, 17, keep_transcript=False))
    assert isinstance(slim, simulator.PayoffEstimate)
    assert [path.name for path in tmp_path.iterdir()] == ["transcript.csv"]
    assert slim.mean == kept.mean
    assert slim.std_error == kept.std_error
    assert slim.counts == kept.counts


def test_honest_runs_track_the_closed_form():
    """Across many seeds the sample mean stays within 5 standard errors."""
    spec = SteeringGameSpec.ideal(r=1.081)
    target = qrs_payoff_exact(spec, honest_strategy(), shared_state=werner_state(0.98))
    for seed in range(30):
        config = RunConfig(
            spec,
            honest_strategy(),
            20_000,
            seed,
            shared_state=werner_state(0.98),
            keep_transcript=False,
        )
        est = run_game(config)
        assert abs(est.mean - target) < 5 * est.std_error


def test_optimal_cheat_run_hovers_at_zero(ideal_spec):
    config = RunConfig(
        ideal_spec,
        ClassicalCheat(best_estimator()),
        50_000,
        23,
        keep_transcript=False,
    )
    est = run_game(config)
    assert abs(est.mean) < 5 * est.std_error


def test_communication_cheat_run(ideal_spec):
    config = RunConfig(
        ideal_spec,
        ClassicalCheat(direction="alice_to_bob"),
        50_000,
        29,
        keep_transcript=False,
    )
    est = run_game(config)
    assert abs(est.mean - 2 * (3 - SQRT3)) < 5 * est.std_error


@pytest.mark.parametrize(
    "strategy, state, message",
    [
        (honest_strategy(), None, "this strategy needs a shared state"),
        (
            ClassicalCheat(best_estimator()), werner_state(0.9),
            "this strategy takes no shared state",
        ),
    ],
    ids=["missing", "unwanted"],
)
def test_config_refuses_a_shared_state_as_outcome_table_does(ideal_spec, strategy, state, message):
    with pytest.raises(ValueError) as table:
        outcome_table(ideal_spec, strategy, state)
    with pytest.raises(ValueError) as config:
        RunConfig(ideal_spec, strategy, 10, 0, shared_state=state)
    assert str(table.value) == str(config.value) == message


def test_config_validation(ideal_spec):
    state = werner_state(0.9)
    with pytest.raises(ValueError):
        RunConfig(ideal_spec, honest_strategy(), 0, 0, shared_state=state)
    with pytest.raises(ValueError):
        RunConfig(ideal_spec, honest_strategy(), 10, 2 ** 64, shared_state=state)
    with pytest.raises(ValueError):  # honest needs a shared state
        RunConfig(ideal_spec, honest_strategy(), 10, 0)
    with pytest.raises(ValueError):  # no-state cheat must not get one
        RunConfig(
            ideal_spec, ClassicalCheat(best_estimator()), 10, 0,
            shared_state=state,
        )


def test_config_builds_the_table_and_refuses_a_strategy_that_does_not_fit(ideal_spec):
    state = werner_state(0.9)
    config = RunConfig(ideal_spec, honest_strategy(), 10, 0, shared_state=state)
    assert not config.table.flags.writeable
    want = outcome_table(ideal_spec, honest_strategy(), state)
    assert config.table.tobytes() == want.tobytes()
    # a qutrit Alice needs a 6-dimensional state, not the two-qubit Werner state
    proj = np.diag([1.0, 0.0, 0.0])
    qutrit = HonestStrategy({j: Povm((proj, np.eye(3) - proj)) for j in (1, 2, 3)},
                            partial_bell_povm())
    with pytest.raises(ValueError, match=r"expected 3\*2"):
        RunConfig(ideal_spec, qutrit, 10, 0, shared_state=state)


def test_adversarial_preparation_run():
    """All-sigma_1 referee: the matched single-axis cheat wins 2(3 - sqrt(3))."""
    table = {sig: signal_state(1, sig[1]) for sig in SIGNALS}
    cheat = ClassicalCheat(BlochVector(np.array([1.0, 0, 0]), 0.5))
    config = RunConfig(
        SteeringGameSpec(signal_ensemble=table), cheat, 50_000, 31, keep_transcript=False
    )
    est = run_game(config)
    assert est.mean > 0
    assert abs(est.mean - 2 * (3 - SQRT3)) < 5 * est.std_error


def test_modified_povm_identity_channel():
    bell = partial_bell_povm()
    modified = modified_povm(identity_channel(), bell)
    for orig, mod in zip(bell, modified):
        assert np.allclose(orig, mod, atol=1e-14)


def test_modified_povm_depolarizing_mixes_toward_identity():
    """Full depolarizing on C leaves Bob measuring 1_B Tr_C[E_b]/2 effectively."""
    bell = partial_bell_povm()
    modified = modified_povm(depolarizing_channel(1.0), bell)
    want = np.kron(np.eye(2), np.eye(2)) / 4.0
    assert np.allclose(modified[1], want, atol=1e-12)
    assert modified.n_outcomes == 2


#: Bob's joint POVMs the noisy line is compared on: the partial Bell
#: measurement, three outcomes on 2 x 2, and two outcomes on 3 x 2.
_EQUIVALENCE_POVMS = {
    "bell": partial_bell_povm,
    "3-outcome-2x2": lambda: random_povm(np.random.default_rng(3), 4, 3),
    "2-outcome-3x2": lambda: random_povm(np.random.default_rng(4), 6, 2),
}


@pytest.mark.parametrize(
    "channel",
    [identity_channel(), depolarizing_channel(0.3), amplitude_damping_channel(0.4)],
    ids=["identity", "depolarizing-0.3", "amplitude-damping-0.4"],
)
@pytest.mark.parametrize("povm", list(_EQUIVALENCE_POVMS))
def test_noisy_equivalence_check_equals_the_per_sample_loop(channel, povm):
    """The engine's noisy line equals the modified POVM on a clean line, state
    by state, signal by signal and outcome by outcome, to roundoff."""
    assert dual_map_deviation(channel, _EQUIVALENCE_POVMS[povm]()) <= 1e-12


def test_channel_run_equals_modified_povm_run(tmp_path):
    """Transcripts agree round for round when the noise moves into the POVM."""
    channel = depolarizing_channel(0.3)
    honest = honest_strategy()
    absorbed = HonestStrategy(
        honest.alice_povms, modified_povm(channel, honest.bob_joint_povm)
    )
    shared = werner_state(0.92)
    noisy_cfg = RunConfig(
        SteeringGameSpec(channel=channel), honest, 20_000, 7, shared_state=shared
    )
    clean_cfg = RunConfig(
        SteeringGameSpec.ideal(), absorbed, 20_000, 7, shared_state=shared
    )
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    est_a = run_game(noisy_cfg, path_a)
    est_b = run_game(clean_cfg, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert est_a.mean == est_b.mean


def _reference_rounds(config):
    """Every round's (round, j, s, a, b, payoff), from the raw Philox words
    through the float formula and ``round_payoff``."""
    spec, n = config.spec, config.rounds
    n_var = config.table.shape[1]
    cdf_table = np.cumsum(config.table.reshape(-1, 4), axis=1)
    variants = None
    if n_var > 1:
        answers = np.array(config.strategy.answer_list)
        variants = (answers[np.arange(n) % answers.size] == -1).astype(np.int64)
    codes = _float_codes(_stream_words(config.rng_seed, 2 * n), cdf_table, n_var, variants)
    rows = []
    for code in range(cdf_table.size):
        (j, s), (a, b) = SIGNALS[code // (4 * n_var)], OUTCOMES[code % 4]
        payoff = round_payoff(a, b, s, r=spec.r, payoff_bound=spec.payoff_bound)
        rows.append((j, s, a, b, payoff))
    return [(i, *rows[code]) for i, code in enumerate(codes.tolist())]


def _reference_csv(config):
    """transcript.csv as the one-f-string-per-round formula spells it."""
    return (",".join(TRANSCRIPT_FIELDS) + "\r\n" + "".join(
        f"{i},{j},{s},{a},{b},{payoff!r}\r\n"
        for i, j, s, a, b, payoff in _reference_rounds(config)
    )).encode()


def test_transcript_csv_round_trip(tmp_path):
    config = _honest_config(50, 3)
    path = tmp_path / "transcript.csv"
    run_game(config, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRANSCRIPT_FIELDS
    assert len(rows) == 51
    for rec, row in zip(_reference_rounds(config), rows[1:]):
        assert [int(x) for x in row[:5]] == list(rec[:5])
        assert float(row[5]) == rec[5]  # repr() round-trips exactly


@pytest.mark.parametrize("config, n_codes", [
    (_honest_config(100_001, 41, w=0.98, r=1.081), 24),
    # the answer list doubles the sampling-table rows
    (RunConfig(
        SteeringGameSpec.ideal(r=1.081),
        ClassicalCheat(best_estimator(), answer_list=(1, -1, -1, 1, 1, -1, 1)), 100_001, 43,
    ), 48),
    # payoffs in exponent form, e.g. -6.928203230275508e+150
    (RunConfig(SteeringGameSpec.ideal(r=1e150), ClassicalCheat(best_estimator()), 100_001, 47),
     24),
], ids=["honest", "list-cheat", "huge-penalty"])
def test_transcript_csv_matches_the_reference_formula(config, n_codes, tmp_path):
    """Run lengths cross every digit-width edge of the round index and
    every 10**4-round block edge of the writer."""
    assert config.table.size == n_codes
    path = tmp_path / "transcript.csv"
    for n in (1, 9, 10, 11, 99, 100, 9_999, 10_000, 10_001, 20_000, 100_001):
        run = dataclasses.replace(config, rounds=n)
        run_game(run, path)
        assert path.read_bytes() == _reference_csv(run), n


_PROPERTY_CONFIGS = {
    "honest": _honest_config(1, 20240818, w=0.85, r=1.081),
    "list-cheat": RunConfig(
        SteeringGameSpec.ideal(r=1.081),
        ClassicalCheat(best_estimator(), answer_list=(1, -1, -1, 1, 1, -1, 1)), 1, 20240818,
    ),
}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    style=st.sampled_from(sorted(_PROPERTY_CONFIGS)),
    n=st.integers(1, 30_000),
    chunk=st.integers(1, 1 << 15),
)
def test_any_round_count_and_chunk_size_write_the_serial_bytes(style, n, chunk):
    """transcript.csv is the float formula's, and summary.json the
    default-chunk run's, whatever the run length and the chunk size."""
    config = dataclasses.replace(_PROPERTY_CONFIGS[style], rounds=n)
    with tempfile.TemporaryDirectory() as out:
        csv_path, summary_path = Path(out) / "transcript.csv", Path(out) / "summary.json"
        write_summary_json(summary_path, run_game(config), config)
        serial = summary_path.read_bytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_CHUNK_ROUNDS", chunk)
            write_summary_json(summary_path, run_game(config, csv_path), config)
        assert summary_path.read_bytes() == serial
        assert csv_path.read_bytes() == _reference_csv(config)


def test_run_memory_does_not_grow_with_the_rounds(tmp_path):
    """A run that writes its transcript holds one chunk, not one byte per
    round: the traced peaks at 2 * 10**5 and 10**6 rounds agree."""
    path = tmp_path / "transcript.csv"
    run_game(_honest_config(1_000, 0), path)  # numpy.random's import is not traced
    peaks = []
    for rounds in (200_000, 1_000_000):
        config = _honest_config(rounds, 7)
        tracemalloc.start()
        try:
            run_game(config, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.25 * 2 ** 20, peaks


def _run_game_peak(config, path=None):
    """Traced peak, in bytes, of one ``run_game`` call after an untraced warm-up."""
    run_game(dataclasses.replace(config, rounds=1_000), path)
    tracemalloc.start()
    try:
        run_game(config, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transcript_run_peak_stays_below_1_15_mb(tmp_path):
    """The writer gathers each row whole into its one row buffer and builds
    its digit tables from uint16: an honest 2 * 10**5-round run with a
    transcript peaks near 0.98 MB traced (1.33 MB with a separate gather
    buffer and int64 digit temporaries)."""
    config = _honest_config(200_000, 7, w=0.98, r=1.081)
    peak = _run_game_peak(config, tmp_path / "transcript.csv")
    assert peak < 1.15 * 2 ** 20, peak


def test_list_cheat_run_peak_stays_below_0_8_mb():
    """The guide tables count in uint8: the 12-row sampling table of a
    list cheat peaks near 0.55 MB traced (1.24 MB with int64 counts)."""
    config = dataclasses.replace(_PROPERTY_CONFIGS["list-cheat"], rounds=100_000)
    assert _run_game_peak(config) < 0.8 * 2 ** 20


def test_summary_json_is_self_describing(tmp_path):
    config = _honest_config(500, 13, w=0.8, r=1.2)
    est = run_game(config)
    path = tmp_path / "summary.json"
    write_summary_json(path, est, config)
    payload = json.loads(path.read_text())
    assert payload["mean"] == est.mean
    assert payload["rounds"] == 500
    assert payload["seed"] == 13
    assert set(payload["counts"]) == {f"{j},{s}" for (j, s) in SIGNALS}
    cfg = payload["config"]
    assert cfg["game"]["r"] == 1.2
    assert cfg["game"]["payoff_bound"] == pytest.approx(SQRT3)
    assert cfg["strategy"]["type"] == "honest"
    assert cfg["shared_state"] is not None
    assert cfg["channel"] is None
    assert path.read_text().endswith("\n")
