"""``records.Record`` gives a class what a frozen ``@dataclass`` gave it, from
the class's annotations, without generating code, apart from field equality:
records compare by identity.  Every record of the package is one, none stores
a value its other fields fix, and none holds a writable array."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mejump.acceptance
from mejump import medist, modelio, splitting
from mejump.estimators import HSpec, count_exits, mc_expectation_untilted
from mejump.jumpsim import JumpChain, RngStream
from mejump.models import exponential_model, random_me_model, reference_model
from mejump.records import Record

from conftest import decoupled_rotator


class Point(Record):
    x: float
    y: float = 0.0
    tags: tuple = ()


class Unit(Record):
    """A record whose ``__post_init__`` replaces a field, as ``MEParams``
    copies its arrays."""

    name: str

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())


class TestConstructor:
    def test_positional_keyword_and_default(self):
        p = Point(1.0, 2.0)
        assert (p.x, p.y, p.tags) == (1.0, 2.0, ())
        p = Point(y=2.0, x=1.0)
        assert (p.x, p.y, p.tags) == (1.0, 2.0, ())
        assert Point(1.0).y == 0.0

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((), {}, "missing a required argument: 'x'"),
            ((1.0, 2.0, (), 4), {}, "too many positional arguments"),
            ((1.0,), {"z": 1}, "unexpected keyword argument 'z'"),
            ((1.0,), {"x": 1.0}, "multiple values for argument 'x'"),
        ],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)

    def test_post_init_runs_after_the_fields_are_set(self):
        assert Unit("a").name == "A" and Unit(name="b").name == "B"

    def test_a_frozen_keyword_fails_when_the_class_is_made(self):
        with pytest.raises(TypeError):

            class Stale(Record, frozen=True):
                x: float


class TestMethods:
    def test_repr(self):
        assert repr(Point(1.0, tags=("t",))) == "Point(x=1.0, y=0.0, tags=('t',))"

    def test_records_compare_by_identity(self):
        p = Point(1.0)
        assert p == p and p != Point(1.0)

    def test_frozen_records_hash_and_refuse_changes(self):
        p = Point(1.0)
        assert hash(p) == hash(p) and len({p, Point(1.0)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'x'"):
            p.x = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'x'"):
            del p.x
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'z'"):
            p.z = 1.0


def _package_records() -> set:
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("mejump."):
                found.add(cls)
    return found


def _one_of_each() -> list:
    """An instance of every record class of the package, each made the way
    the pipeline makes it."""
    ref_plan = modelio.plan(reference_model(), "auto")
    cfg = modelio.RunConfig(n_paths=2000, chunk=1000, h=HSpec("exp-decay", 2.0))
    run = modelio.run_estimate(ref_plan, cfg, collect_trace=True)
    chain = JumpChain(ref_plan.profile, ref_plan.init)
    return [
        ref_plan, ref_plan.params, ref_plan.split, ref_plan.init, ref_plan.profile,
        medist.validate(ref_plan.params),
        splitting.build_generator(ref_plan.split, ref_plan.profile.lam),
        cfg, cfg.grid, cfg.h, RngStream(1, 2), chain.table,
        run, run.batch, count_exits(run.batch, cfg.grid), run.est_beta,
        mc_expectation_untilted(run.batch, cfg.h, ref_plan.profile.lam, ref_plan.init.w_total),
        mejump.acceptance.criterion_2(ref_plan.split),
    ]


class TestPackageRecords:
    def test_every_record_refuses_changes(self):
        instances = _one_of_each()
        assert {type(r) for r in instances} == _package_records()
        assert len(instances) == 18
        for record in instances:
            first = record._fields[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, first, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, first)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.extra_attribute = 1

    def test_every_record_hashes_and_compares_by_identity(self):
        # the records that hold arrays included, where field equality raised
        for record in _one_of_each():
            assert hash(record) == hash(record) and record == record
        assert splitting.initial_split([1.0, 0.0]) != splitting.initial_split([1.0, 0.0])

    def test_every_array_a_record_holds_is_read_only(self):
        records = _one_of_each()
        plan = records[0]
        with pytest.raises(ValueError, match="read-only"):
            plan.profile.d[0] = 0.0
        held = set()
        for record in records:
            for name in record._fields:
                value = getattr(record, name)
                for item in value if isinstance(value, tuple) else (value,):
                    if isinstance(item, np.ndarray):
                        held.add(f"{type(record).__name__}.{name}")
                        with pytest.raises(ValueError, match="read-only"):
                            item[...] = 0
        assert {"DoubledGenerator.d", "PathBatch.trace", "MEParams.T"} <= held

    @pytest.mark.parametrize(
        "derived, make",
        [
            ("messages", lambda: medist.ValidationReport(-1.0, 1.0, True, messages=[])),
            ("qbar_original", lambda: splitting.DoubledGenerator(
                2.0, -1.0, *[np.ones(1)] * 5, qbar_original=np.ones(1))),
            ("abs_a", lambda: splitting.DoubledGenerator(
                2.0, -1.0, *[np.ones(1)] * 5, abs_a=np.ones(2))),
            ("transient", lambda: splitting.DoubledGenerator(
                2.0, -1.0, *[np.ones(1)] * 5, transient=True)),
            ("alphahat_plus", lambda: splitting.InitialSplit(
                1.0, 0.0, np.ones(1), np.zeros(1), alphahat_plus=np.ones(1))),
            ("abscissa", lambda: modelio.RunPlan(None, None, None, None, abscissa=-2.0)),
            ("lam", lambda: modelio.RunPlan(None, None, None, None, lam=2.0)),
        ],
        ids=["ValidationReport.messages", "DoubledGenerator.qbar_original",
             "DoubledGenerator.abs_a", "DoubledGenerator.transient", "InitialSplit.alphahat_plus",
             "RunPlan.abscissa", "RunPlan.lam"],
    )
    def test_a_derived_value_is_not_a_field(self, derived, make):
        # refused by name, so no other field is missing or left over
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{derived}'$"):
            make()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(p=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), step=st.sampled_from([0.0, 1.0]))
    @example(p=0, seed=0, step=0.0)
    def test_derived_values_are_the_builders_expressions(self, p, seed, step):
        # p = 0 is the reference model, p = 1 an exponential; the positive
        # diagonal's note is pinned by test_cli's test_positive_diagonal_is_noted
        rng = np.random.default_rng(seed)
        if p == 0:
            m = reference_model()
        elif p == 1:
            m = exponential_model(float(rng.uniform(0.05, 3.0)))
        else:
            m = random_me_model(p, rng)
        assert medist.validate(m).messages == []
        run_plan = modelio.plan(m, "auto")
        split, lam = run_plan.split, run_plan.profile.lam + step
        init = splitting.initial_split(m.alpha)
        w_total = init.wplus + init.wminus
        assert init.alphahat_plus.tobytes() == (init.wplus / w_total * init.alpha_plus).tobytes()
        assert init.alphahat_minus.tobytes() == (
            init.wminus / w_total * init.alpha_minus
        ).tobytes()
        prof = splitting.exit_profile(split, lam)
        assert prof.qbar_original.tobytes() == (prof.qplus - prof.qminus).tobytes()
        for s, q in ((split.splus, prof.qplus), (split.sminus, prof.qminus)):
            want = np.zeros(split.p)
            positive = prof.d > 0.0
            want[positive] = s[positive] / prof.d[positive]
            assert q.tobytes() == want.tobytes()
        assert prof.abs_o.tobytes() == np.concatenate([split.splus, split.sminus]).tobytes()
        assert prof.abs_a.tobytes() == np.concatenate([split.sminus, split.splus]).tobytes()
        assert prof.term.tobytes() == np.concatenate([prof.defect, prof.defect]).tobytes()
        transient, abscissa = splitting.check_transience(split, lam)
        assert prof.lam == lam and prof.abscissa == abscissa and prof.transient == transient

    def test_non_transient_plan(self):
        # "auto" steps off lambda_0 = 0 here; a plan at lambda_0 reports it
        run_plan = modelio.plan(decoupled_rotator(), 0.0)
        profile = run_plan.profile
        assert profile.abscissa == run_plan.split.eta == 0.0 and not profile.transient
