"""The record types keep the contract of the frozen dataclasses they replace.

Each record but ``SolutionProfile`` is a namedtuple: built by keyword, by
position or by ``_replace``, checked when built, read-only, compared as a
tuple. A ``SolutionProfile`` is a plain class, so that its length is its row
count.
"""

import math

import pytest

from itmfree import (
    ExtendedScaling,
    IntegrationResult,
    InvalidParams,
    ItmConfig,
    ItmIteration,
    ItmResult,
    ItmStatus,
    OriginKind,
    PhysicalProfile,
    SimilarityExponents,
    SpreadingParams,
    State2,
    StefanParams,
    make_stefan,
    original_profile,
)
from itmfree.cli import PROBLEMS, ProblemSpec

# every field of a valid record, by name and in field order
RECORDS = [
    (ExtendedScaling, dict(delta=-1.0, sigma=4.0, origin_weight=1.0)),
    (ItmConfig, dict(s_star=0.5, step=1e-3, h0=30.0, h1=40.0, tol=1e-9, max_iter=7)),
    (ItmIteration, dict(h_star=30.0, gamma_val=0.25, omega=2.0, s_j=1.25)),
    (ItmResult, dict(status=ItmStatus.SINGULAR_INTEGRATION, omega=2.0, h_star=30.0, s=1.25,
                     w0=1.0, dw0=-0.5, trace=[], message="broke", abscissa=0.25)),
    (IntegrationResult, dict(endpoint=State2(1.0, -0.5), steps_taken=3, profile=None)),
    (SimilarityExponents, dict(n=3.0, alpha=-0.2, gamma=5.0, coefficient=0.0,
                               origin_kind=OriginKind.NEUMANN, beta=-0.2)),
    (PhysicalProfile, dict(x=(0.0, 1.0), u=(1.0, 0.0), du_dx=(-1.0, -1.0), x_w=1.0)),
    (StefanParams, dict(S=1.0)),
    (SpreadingParams, dict(H=0.5, L=-0.5)),
    (ProblemSpec, PROBLEMS["stefan"]._asdict()),
    (State2, dict(w=1.0, dw=-0.5)),
]

# (record, fields changed from RECORDS' valid ones, the InvalidParams message)
REJECTED = [
    (ExtendedScaling, dict(origin_weight=0.0), "origin weight must be finite and nonzero, got 0.0"),
    (ItmConfig, dict(tol=math.inf), "tol must be positive and finite, got inf"),
    (ItmConfig, dict(h1=30.0),
     "the guesses (30.0, 30.0) at s_star = 0.5 are not two distinct positive finite floats"),
    (ItmConfig, dict(max_iter=0), "max_iter must be at least 1, got 0"),
    (SimilarityExponents, dict(origin_kind=OriginKind.DIRICHLET),
     "a Dirichlet origin has no beta, got beta=-0.2"),
    (SimilarityExponents, dict(coefficient=1.0, beta=None),
     "a Neumann origin with coefficient=1.0 needs a beta"),
    (StefanParams, dict(S=math.inf), "S must be positive and finite, got inf"),
    (SpreadingParams, dict(H=1e200), "H^3 must be a finite nonzero float, got H = 1e+200"),
    (SpreadingParams, dict(L=math.nan), "L must be finite, got nan"),
]


def _name(value):
    return value.__name__ if isinstance(value, type) else None


def _valid(record):
    return next(fields for cls, fields in RECORDS if cls is record)


@pytest.mark.parametrize("record, fields", RECORDS, ids=_name)
def test_keyword_and_positional_construction_agree(record, fields):
    by_name, by_position = record(**fields), record(*fields.values())
    assert type(by_name) is type(by_position) is record
    assert by_name == by_position
    assert by_name._asdict() == fields


@pytest.mark.parametrize("record, change, message", REJECTED, ids=_name)
def test_every_way_to_build_rejects_alike(record, change, message):
    fields = {**_valid(record), **change}
    with pytest.raises(InvalidParams) as by_name:
        record(**fields)
    with pytest.raises(InvalidParams) as by_position:
        record(*fields.values())
    with pytest.raises(InvalidParams) as by_copy:  # as dataclasses.replace did
        record(**_valid(record))._replace(**change)
    assert str(by_name.value) == str(by_position.value) == str(by_copy.value) == message


def test_defaults_are_unchanged():
    assert ItmConfig._field_defaults == {"tol": 1e-6, "max_iter": 50}
    config = ItmConfig(s_star=0.5, step=1e-3, h0=30.0, h1=40.0)
    assert (config.tol, config.max_iter) == (1e-6, 50)
    result = ItmResult(ItmStatus.CONVERGED, 2.0, 30.0, 1.25, 1.0, -0.5)
    assert result.trace == [] and result.message == "" and math.isnan(result.abscissa)
    assert IntegrationResult(State2(1.0, -0.5), 3).profile is None
    assert SimilarityExponents(0.0, 0.0, 2.0, 1.0, OriginKind.DIRICHLET).beta is None


@pytest.mark.parametrize("record, fields", RECORDS, ids=_name)
def test_fields_are_read_only(record, fields):
    built = record(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 1.0)
    with pytest.raises(AttributeError):  # no instance dict to hold a new name
        built.unknown = 1.0
    assert built == record(**fields)


def test_results_built_without_trace_do_not_share_one():
    first, second = (ItmResult(status=ItmStatus.CONVERGED, omega=2.0, h_star=30.0, s=1.25,
                               w0=1.0, dw0=-0.5) for _ in range(2))
    assert first.trace == second.trace == [] and first.trace is not second.trace
    first.trace.append(ItmIteration(30.0, 0.25, 2.0, 1.25))
    assert second.trace == [] and first.iterations == second.iterations == 0


@pytest.mark.parametrize("n", [1, 7, 100])
def test_profile_length_is_its_row_count(n):
    problem, _ = make_stefan(StefanParams(S=1.0))
    profile = original_profile(problem, 1.25, n)
    assert len(profile) == len(profile.eta) == len(profile.u) == len(profile.du) == n + 1
