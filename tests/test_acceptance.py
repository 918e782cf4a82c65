"""Acceptance gate: every criterion at its stated tolerance, one line each.

Statistical criteria run at the pinned n = 10^6, seed 42.  The module-scoped
fixture runs the whole suite once; each test asserts one criterion and prints
its pass/fail line.
"""

from unittest import mock

import pytest

from mejump import acceptance

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
