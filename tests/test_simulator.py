"""Monte Carlo engine: determinism, the documented RNG word rule, transcript
artifacts, and the noisy-referee equivalence machinery."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

import qrgames
from qrgames import qcore, simulator
from qrgames.games import (
    SIGNALS,
    SQRT3,
    SteeringGameSpec,
    per_round_payoff,
    qrs_payoff_exact,
    single_axis_ensemble,
    uniform_input_distribution,
)
from qrgames.qcore import (
    BlochVector,
    DensityOperator,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    pauli,
    signal_state,
    singlet_projector,
    tensor,
    werner_state,
)
from qrgames.simulator import (
    OUTCOMES,
    TRANSCRIPT_FIELDS,
    PayoffEstimate,
    RunConfig,
    modified_povm,
    noisy_equivalence_check,
    run_game,
    write_summary_json,
    write_transcript_csv,
)
from qrgames.strategies import (
    CommCheat,
    HonestStrategy,
    NoStateCheat,
    best_estimator,
    honest_strategy,
    partial_bell_povm,
)

from random_draws import random_density, random_povm


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


def _word_to_uniform(word):
    return float((int(word) >> 11) * 2.0 ** -53)


def test_runs_are_deterministic(tmp_path):
    config = _honest_config(500, 99)
    est_a, tr_a = run_game(config)
    est_b, tr_b = run_game(_honest_config(500, 99))
    assert est_a.mean == est_b.mean
    assert est_a.std_error == est_b.std_error
    assert np.array_equal(tr_a.codes, tr_b.codes)
    assert tr_a.rows == tr_b.rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_transcript_csv(p1, tr_a)
    write_transcript_csv(p2, tr_b)
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_changes_the_transcript():
    _, tr_a = run_game(_honest_config(200, 1))
    _, tr_b = run_game(_honest_config(200, 2))
    assert not np.array_equal(tr_a.codes, tr_b.codes)


@pytest.mark.parametrize("style", ["honest", "list-cheat"])
def test_word_rule_replay(style):
    """Round i is fully determined by stream words 2i (inputs) and 2i+1 (outcomes).

    Replays the engine from the raw Philox stream and the strategies'
    exact conditional distributions; every transcript field must match.
    """
    n, seed = 300, 20240818
    spec = SteeringGameSpec.ideal(r=1.081)
    if style == "honest":
        strategy, state = honest_strategy(), werner_state(0.85)
    else:
        strategy, state = NoStateCheat(best_estimator(), (1, -1, 1)), None
    config = RunConfig(spec, strategy, n, seed, shared_state=state)
    _, transcript = run_game(config)
    col = {name: transcript.column(name).tolist() for name in TRANSCRIPT_FIELDS}

    probs = np.array([spec.input_distribution[sig] for sig in SIGNALS])
    cdf = np.cumsum(probs)
    words = _stream_words(seed, 2 * n)
    round_list = strategy.round_list
    table = strategy.outcome_distribution(spec.delivered_signals(), state)
    for i in range(n):
        u_js = _word_to_uniform(words[2 * i])
        u_out = _word_to_uniform(words[2 * i + 1])
        j, s = SIGNALS[int(np.searchsorted(cdf, u_js, side="right"))]
        assert (col["j"][i], col["s"][i]) == (j, s)
        # list variant 0 answers +1, variant 1 answers -1
        variant = 0 if round_list is None else int(round_list[i % len(round_list)] == -1)
        dist = table[SIGNALS.index((j, s)), variant]
        acc, picked = 0.0, OUTCOMES[-1]
        for out, p in zip(OUTCOMES, dist):
            acc += p
            if u_out < acc:
                picked = out
                break
        assert (col["a"][i], col["b"][i]) == picked
        assert col["round"][i] == i
        assert col["payoff"][i] == per_round_payoff(col["a"][i], col["b"][i], j, s, r=spec.r)


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
        strategy, state = NoStateCheat(best_estimator(), (1, -1, -1, 1, 1, -1, 1)), None
    outputs = set()
    for chunk in (1, 7, 4096, 1 << 14, n):
        monkeypatch.setattr(simulator, "_CHUNK_ROUNDS", chunk)
        config = RunConfig(spec, strategy, n, seed, shared_state=state)
        est, transcript = run_game(config)
        csv_path, summary_path = tmp_path / "transcript.csv", tmp_path / "summary.json"
        write_transcript_csv(csv_path, transcript)
        write_summary_json(summary_path, est, config)
        outputs.add((csv_path.read_bytes(), summary_path.read_bytes()))
    assert len(outputs) == 1
    ((csv_bytes, _),) = outputs
    assert hashlib.sha256(csv_bytes).hexdigest() == _PINNED_TRANSCRIPTS[style]


def _float_codes(words, probs, cdf_table, n_var, variants):
    """The word -> code step as floats: u = (w >> 11) * 2**-53 against the CDFs."""
    u = (words >> np.uint64(11)) * 2.0 ** -53
    u_js, u_out = u[0::2], u[1::2]
    row = np.zeros(u_js.size, dtype=np.int64)
    for t in np.cumsum(probs)[:-1]:
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
        np.full(6, 1 / 6),
        [[0.25, 0.25, 0.75, 1.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
         [0.0, 0.0, 0.0, 1.0], [0.5, 1.0, 1.0, 1.0], [0.1, 0.3, 0.6, 1.0]],
        1,
    ),
    # CDFs that total 1 - 1 ulp and 1 + 2 ulp, and a threshold of 2**-60
    "ulp-totals": (
        np.full(6, 1 / 6),
        [[0.3, 0.6, 1 - _ULP, 1 - _ULP], [0.3, 0.6, 1 + 2 * _ULP, 1 + 2 * _ULP],
         [2.0 ** -60, 0.5, 0.5, 1.0], [1 / 3, 2 / 3, 1 - _ULP, 1.0],
         [0.7, 0.8, 0.9, 1 - _ULP], [0.2, 0.4, 0.6, 1.0]],
        1,
    ),
    # the answer-list path: two variants per condition, under a skewed input
    "two-variants-skewed-input": (
        np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]),
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
    probs, cdf_table, n_var = _SAMPLER_TABLES[name]
    cdf_table = np.asarray(cdf_table, dtype=np.float64)
    sampler = simulator._Sampler(probs, cdf_table, n_var)
    cond_ks = _crafted_ks(np.cumsum(probs)[:-1])
    out_ks = _crafted_ks(cdf_table[:, :-1])
    # one k per condition, each paired with every crafted outcome k
    conditions = _float_codes(_words(cond_ks, out_ks[:1], 0), probs, cdf_table, 1, None) // 4
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
    want = _float_codes(words, probs, cdf_table, n_var, variants)
    assert np.array_equal(sampler.codes(words, variants), want)
    assert len(np.unique(want)) > 6 * n_var
    # at most one straddling bucket per threshold
    assert np.sum(sampler.js_guide == simulator._STRADDLE) <= 5
    assert np.sum(sampler.out_guide == simulator._STRADDLE) <= 3 * len(cdf_table)


def test_single_round_run():
    est, transcript = run_game(_honest_config(1, 0))
    assert est.rounds == 1
    assert transcript.codes.size == 1
    assert est.std_error == 0.0 or math.isnan(est.std_error) is False


def test_round_payoffs_live_on_the_three_point_support():
    r = 1.081
    support = {
        0.0,
        12.0 * (1 - r / SQRT3),
        -12.0 * (1 + r / SQRT3),
    }
    _, transcript = run_game(_honest_config(2000, 5, w=0.98, r=r))
    assert set(transcript.column("payoff").tolist()) <= support


def test_estimate_matches_transcript():
    est, transcript = run_game(_honest_config(4000, 11))
    payoffs = transcript.column("payoff")
    assert est.mean == pytest.approx(payoffs.mean(), abs=1e-12)
    assert est.std_error == pytest.approx(
        payoffs.std(ddof=1) / math.sqrt(len(payoffs)), abs=1e-12
    )
    j, s, a, b = (transcript.column(name) for name in ("j", "s", "a", "b"))
    for sig in SIGNALS:
        rows = (j == sig[0]) & (s == sig[1])
        assert est.counts[sig] == rows.sum()
        if rows.any():
            assert est.e_ab[sig] == pytest.approx(np.mean(a[rows] * b[rows]), abs=1e-12)
            assert est.e_b[sig] == pytest.approx(np.mean(b[rows]), abs=1e-12)


def test_dropping_the_transcript_keeps_the_estimate():
    kept, _ = run_game(_honest_config(3000, 17))
    slim, none = run_game(_honest_config(3000, 17, keep_transcript=False))
    assert none is None
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
        est, _ = run_game(config)
        assert abs(est.mean - target) < 5 * est.std_error


def test_optimal_cheat_run_hovers_at_zero(ideal_spec):
    config = RunConfig(
        ideal_spec,
        NoStateCheat(best_estimator(), "constant"),
        50_000,
        23,
        keep_transcript=False,
    )
    est, _ = run_game(config)
    assert abs(est.mean) < 5 * est.std_error


def test_communication_cheat_run(ideal_spec):
    config = RunConfig(
        ideal_spec,
        CommCheat("alice_to_bob"),
        50_000,
        29,
        keep_transcript=False,
    )
    est, _ = run_game(config)
    assert abs(est.mean - 2 * (3 - SQRT3)) < 5 * est.std_error


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
            ideal_spec, NoStateCheat(best_estimator(), "constant"), 10, 0,
            shared_state=state,
        )


def test_config_rejects_a_never_drawn_condition():
    """A zero-probability condition would drop its payoff term from the estimate."""
    dist = uniform_input_distribution()
    dist[(3, -1)] = 0.0
    dist[(3, 1)] = 2.0 / 6.0
    spec = SteeringGameSpec(input_distribution=dist)
    with pytest.raises(ValueError, match="positive probability"):
        RunConfig(spec, honest_strategy(), 10, 0, shared_state=werner_state(0.9))


def test_adversarial_preparation_run():
    """All-sigma_1 referee: the matched single-axis cheat wins 2(3 - sqrt(3))."""
    table = {sig: signal_state(1, sig[1]) for sig in SIGNALS}
    cheat = NoStateCheat(BlochVector(np.array([1.0, 0, 0]), 0.5), "constant")
    config = RunConfig(
        SteeringGameSpec(signal_ensemble=table), cheat, 50_000, 31, keep_transcript=False
    )
    est, _ = run_game(config)
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


def test_noisy_equivalence_check_reports(monkeypatch):
    report = noisy_equivalence_check(depolarizing_channel(0.3), partial_bell_povm())
    assert report
    assert report.passed and report.povm_valid
    assert isinstance(report.max_deviation, float)
    assert report.max_deviation <= 1e-12
    assert report.message == ""
    monkeypatch.setattr(simulator, "_EQUIVALENCE_TOL", 0.0)
    tight = noisy_equivalence_check(depolarizing_channel(0.3), partial_bell_povm())
    assert not tight          # genuine roundoff beats an impossible tolerance
    assert tight.message != ""


def _per_sample_max_deviation(channel, e_bc, rng_seed):
    """The channel check's deviation, one state, signal and outcome at a time."""
    modified = modified_povm(channel, e_bc)
    d_b = e_bc.dim // channel.input_dim
    rng = np.random.default_rng(rng_seed)
    max_dev = 0.0
    for _ in range(simulator._EQUIVALENCE_SAMPLES):
        rho = random_density(rng, d_b)
        for (j, s) in SIGNALS:
            omega = signal_state(j, s)
            noisy = channel.apply_to_matrix(omega.matrix)
            for b in range(e_bc.n_outcomes):
                lhs = np.trace(e_bc[b] @ tensor(rho.matrix, noisy)).real
                rhs = np.trace(modified[b] @ tensor(rho.matrix, omega.matrix)).real
                max_dev = max(max_dev, float(abs(lhs - rhs)))
    return max_dev


#: Bob's joint POVMs the channel check is compared on: the partial Bell
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
    e_bc = _EQUIVALENCE_POVMS[povm]()
    for seed in range(10):
        report = noisy_equivalence_check(channel, e_bc, rng_seed=seed)
        assert report.max_deviation == _per_sample_max_deviation(channel, e_bc, seed)
        assert report.passed and report.povm_valid and report.message == ""


def test_noisy_equivalence_check_work_does_not_grow_with_the_samples(monkeypatch):
    """Products and validated states are counted, not timed: a loop over the
    random states would make both grow with their number."""
    counts = {"tensor": 0, "states": 0}

    def counted_tensor(*operators):
        counts["tensor"] += 1
        return tensor(*operators)

    validate = DensityOperator.__post_init__

    def counted_validate(self):
        counts["states"] += 1
        validate(self)

    for module in vars(qrgames).values():
        if getattr(module, "tensor", None) is tensor:
            monkeypatch.setattr(module, "tensor", counted_tensor)
    monkeypatch.setattr(qcore.DensityOperator, "__post_init__", counted_validate)
    seen = []
    for samples in (20, 200):
        monkeypatch.setattr(simulator, "_EQUIVALENCE_SAMPLES", samples)
        counts.update(tensor=0, states=0)
        for channel in (depolarizing_channel(0.3), amplitude_damping_channel(0.4)):
            assert noisy_equivalence_check(channel, partial_bell_povm(), rng_seed=1)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["tensor"] > 0


def test_channel_run_equals_modified_povm_run():
    """Transcripts agree round for round when the noise moves into the POVM."""
    channel = depolarizing_channel(0.3)
    honest = honest_strategy()
    absorbed = HonestStrategy(
        honest.alice_povms, modified_povm(channel, honest.bob_joint_povm)
    )
    shared = werner_state(0.92)
    noisy_cfg = RunConfig(
        SteeringGameSpec.ideal(), honest, 20_000, 7,
        shared_state=shared, channel=channel,
    )
    clean_cfg = RunConfig(
        SteeringGameSpec.ideal(), absorbed, 20_000, 7, shared_state=shared
    )
    est_a, tr_a = run_game(noisy_cfg)
    est_b, tr_b = run_game(clean_cfg)
    assert np.array_equal(tr_a.codes, tr_b.codes)
    assert tr_a.rows == tr_b.rows
    assert est_a.mean == est_b.mean


def test_transcript_csv_round_trip(tmp_path):
    _, transcript = run_game(_honest_config(50, 3))
    path = tmp_path / "transcript.csv"
    write_transcript_csv(path, transcript)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRANSCRIPT_FIELDS
    assert len(rows) == 51
    records = zip(*(transcript.column(name).tolist() for name in TRANSCRIPT_FIELDS))
    for rec, row in zip(records, rows[1:]):
        assert [int(x) for x in row[:5]] == list(rec[:5])
        assert float(row[5]) == rec[5]  # repr() round-trips exactly


def _reference_csv(transcript):
    """transcript.csv as the one-f-string-per-round formula spells it."""
    rows = transcript.rows
    return (",".join(TRANSCRIPT_FIELDS) + "\r\n" + "".join(
        f"{i},{j},{s},{a},{b},{payoff!r}\r\n"
        for i, (j, s, a, b, payoff) in enumerate(rows[c] for c in transcript.codes.tolist())
    )).encode()


@pytest.mark.parametrize("config, n_codes", [
    (_honest_config(100_001, 41, w=0.98, r=1.081), 24),
    # the answer list doubles the sampling-table rows
    (RunConfig(
        SteeringGameSpec.ideal(r=1.081),
        NoStateCheat(best_estimator(), (1, -1, -1, 1, 1, -1, 1)), 100_001, 43,
    ), 48),
    # payoffs in exponent form, e.g. -6.928203230275508e+150
    (RunConfig(SteeringGameSpec.ideal(r=1e150), NoStateCheat(best_estimator()), 100_001, 47), 24),
], ids=["honest", "list-cheat", "huge-penalty"])
def test_transcript_csv_matches_the_reference_formula(config, n_codes, tmp_path):
    """Run lengths cross every digit-width edge of the round index and
    every 10**4-round block edge of the writer."""
    _, full = run_game(config)
    assert len(full.rows) == n_codes
    path = tmp_path / "transcript.csv"
    for n in (1, 9, 10, 11, 99, 100, 9_999, 10_000, 10_001, 20_000, 100_001):
        transcript = simulator.Transcript(full.codes[:n], full.rows)
        write_transcript_csv(path, transcript)
        assert path.read_bytes() == _reference_csv(transcript), n


def test_transcript_codes_are_read_only():
    _, transcript = run_game(_honest_config(100, 3))
    with pytest.raises(ValueError):
        transcript.codes[0] = 0


def test_summary_json_is_self_describing(tmp_path):
    config = _honest_config(500, 13, w=0.8, r=1.2)
    est, _ = run_game(config)
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
