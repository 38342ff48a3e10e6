"""The package's public names."""

import qrgames


def test_public_names_resolve_once():
    names = qrgames.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qrgames, name) is not None


def test_removed_payoff_wrappers_are_not_exported():
    for name in ("cheat_payoff_no_state", "comm_cheat_payoff", "lhs_payoff_exact", "dual_channel"):
        assert name not in qrgames.__all__
        assert not hasattr(qrgames, name)
