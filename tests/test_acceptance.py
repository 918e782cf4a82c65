"""Acceptance gate: every criterion at its stated tolerance, one line each.

Statistical criteria run at the pinned n = 10^6, seed 42.  The module-scoped
fixture runs the whole suite once; each test asserts one criterion and prints
its pass/fail line.
"""

from unittest import mock

import pytest

from mejump import acceptance
from mejump.modelio import RunConfig, plan, simulate
from mejump.models import exponential_model

N_PATHS = 1_000_000
SEED = 42


@pytest.fixture(scope="module")
def results():
    res = acceptance.run_all(n_paths=N_PATHS, seed=SEED, lam="auto")
    return {r.cid: r for r in res}


@pytest.mark.parametrize("cid", range(1, 14))
def test_criterion(results, cid):
    r = results[cid]
    status = "PASS" if r.passed else "FAIL"
    print(f"[{status}] criterion {cid}: {r.title} -- {r.detail}")
    assert r.passed, f"criterion {cid} ({r.title}): {r.detail}"


def test_criterion_detail_cannot_change(results):
    # criterion 8's variance table is a tuple, so every field of a built
    # result is immutable
    with pytest.raises(AttributeError):
        results[8].extra.append("x")
    assert results[8].extra[0] == "bin_x_mid  var_qbar/var_beta"


def test_reference_model_is_planned_once():
    # criteria 1-12 read one plan of the reference model; criterion 10 plans
    # the one-state model, and criterion 13 runs the CLI, which plans its own
    with mock.patch.object(acceptance, "plan", wraps=acceptance.plan) as planned:
        acceptance.run_all(n_paths=2000, seed=SEED)
    assert [call.args[0].p for call in planned.call_args_list] == [3, 1]


def test_bad_config_refused_before_any_criterion():
    with mock.patch.object(acceptance, "criterion_1") as first:
        with pytest.raises(ValueError, match="n_paths must be positive"):
            acceptance.run_all(n_paths=0)
    first.assert_not_called()


def test_one_state_band_rarely_fails_at_twenty_thousand_paths():
    # a valid 4-sigma band over 30 bins fails about 0.2 % of runs, so 200
    # seeds expect 0.4 failures and 3 or more have a chance under 1 %; banded
    # by each bin's sample stderr, 12 (Philox) and 13 (PCG64DXSM) of these
    # 200 seeds failed, by sparse tail bins whose stderr was underestimated
    failed = [
        seed for seed in range(200)
        if not acceptance.criterion_10(RunConfig(n_paths=20_000, seed=seed)).passed
    ]
    assert len(failed) <= 2, failed


def test_one_state_band_refuses_a_wrong_density():
    batch = simulate(plan(exponential_model(1.0), 1.0), RunConfig(n_paths=N_PATHS, seed=SEED))
    assert acceptance._one_state_band(batch).all()
    assert not acceptance._one_state_band(batch, rate=2.2).all()
