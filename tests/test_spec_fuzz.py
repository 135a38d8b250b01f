"""Spec documents with hostile field values.

Each catalogue entry's ``to_dict()`` has one or more fields, nested ones
included, replaced by values drawn by type: small integers (−2…12, so
no predictor table grows past a few MB), non-integral floats, NaN,
±Infinity, booleans, None, strings, lists, dicts, and a document of
the other family's kind.  ``from_dict`` must return a spec or raise
:class:`~repro.errors.ConfigurationError`; a spec it returns must
round-trip through JSON unchanged and then *work*: a predictor spec
simulates a 32-record trace on both engines, and a ``population``,
``filter``, ``concat`` or ``kernel`` workload materializes.  Past
construction, the only errors allowed are ``ConfigurationError`` and
``TraceError``.

CI's ``fuzz`` job runs this file under ``--hypothesis-profile fuzz``
(20,000 examples per test); tier-1 runs the default profile.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import simulate
from repro.errors import ConfigurationError, TraceError
from repro.spec import BimodalSpec
from repro.trace import Trace
from repro.workload_spec import KernelSpec
from test_spec import SPEC_CATALOGUE
from test_workload_spec import spec_catalogue

_rng = np.random.default_rng(5)
TRACE = Trace(
    _rng.choice([0x1000, 0x1004, 0x1008, 0x100C], size=32),
    _rng.integers(0, 2, size=32),
    name="fuzz",
)

#: Workload kinds whose materialization the fuzz drives (the others
#: read files or run the calibrated generators, which cost too much
#: per example).
MATERIALIZED = {"population", "filter", "concat", "kernel"}


def values(other_family: dict):
    """Field values drawn by type, plus a document of the other family."""
    scalars = st.one_of(
        st.integers(-2, 12),
        st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.none(),
        st.text(max_size=6),
    )
    return st.one_of(
        scalars,
        st.lists(scalars, max_size=3),
        st.dictionaries(st.text(max_size=4), scalars, max_size=2),
        st.builds(copy.deepcopy, st.just(other_family)),
    )


def field_paths(node, prefix=()):
    """Every field of a serialized spec, nested ones included (the
    ``kind`` keys stay: they choose the class, they are not fields)."""
    if isinstance(node, dict):
        items = [(key, value) for key, value in node.items() if key != "kind"]
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(field_paths(value, prefix + (key,)))
    return paths


def reachable(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def replace(doc, path, value) -> None:
    """Set ``path`` in ``doc`` when earlier replacements left it reachable."""
    node = doc
    for key in path[:-1]:
        if not reachable(node, key):
            return
        node = node[key]
    if reachable(node, path[-1]):
        node[path[-1]] = value


def documents(entries, other_family: dict):
    """``(class, document)`` cases: an entry's ``to_dict()`` with one to
    three of its fields replaced.  The strategies are built once, since
    building one per draw would dominate the run."""
    value = values(other_family)
    cases = []
    for entry in entries:
        paths = field_paths(entry.to_dict())
        picks = st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)
        cases.append((type(entry), entry.to_dict(), picks))

    @st.composite
    def mutated(draw):
        cls, doc, paths = draw(st.sampled_from(cases))
        doc = copy.deepcopy(doc)
        for path in draw(paths):
            replace(doc, path, draw(value))
        return cls, json.loads(json.dumps(doc))

    return mutated()


def construct(cls, doc):
    """``cls.from_dict(doc)``: a spec that round-trips, or None."""
    try:
        spec = cls.from_dict(doc)
    except ConfigurationError:
        return None
    assert type(spec).from_dict(json.loads(spec.to_json())) == spec
    return spec


@given(documents(SPEC_CATALOGUE, KernelSpec(name="sieve", size=8).to_dict()))
def test_predictor_documents(case):
    spec = construct(*case)
    if spec is None:
        return
    for engine in ("auto", "reference"):
        try:
            result = simulate(spec, TRACE, engine=engine)
        except (ConfigurationError, TraceError):
            continue
        assert result.total_executions == len(TRACE)


@pytest.fixture(scope="module")
def workload_entries(tmp_path_factory):
    return list(spec_catalogue(tmp_path_factory.mktemp("fuzz")).values())


def test_workload_documents(workload_entries):
    @given(documents(workload_entries, BimodalSpec(entries=256).to_dict()))
    def check(case):
        spec = construct(*case)
        if spec is None:
            return
        try:
            spec.content_key()
            if spec.kind in MATERIALIZED:
                assert spec.materialize().name == spec.label
        except (ConfigurationError, TraceError):
            pass

    check()
