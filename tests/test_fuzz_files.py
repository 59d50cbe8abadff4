"""Seeded single-field mutations of the two objects the library reads from files.

A saved model object and a term-set object are changed in one place: a
value replaced, a key or list entry deleted, or a value appended to a
list.  Every field of each object is also set to each edge value in turn.
``model_from_obj`` and ``load_termset`` may reject the result only with an
``AnovaFitError``; any other exception is a boundary check that is missing.
The profiles are derandomized, so every run tries the same inputs.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anovafit import (
    AnovaFitError,
    BandwidthProfile,
    BasisKind,
    fit,
    load_termset,
    superposition_terms,
)
from anovafit.model import model_from_obj, model_to_obj

FUZZ = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# the edges of the integer, float and container readers
EDGES = [None, True, -1, 0, 2**63, 10**400, -(10**400), 1e308, float("nan"), float("inf"),
         "1", [], {}]
TERMS = superposition_terms(3, 2).to_json_obj()
# JSON values
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["per", "cos", "cheb", "1", "4"]),
    st.lists(st.integers(-3, 5), max_size=4),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    st.dictionaries(
        st.sampled_from(["0", "1", "2", "3", "a", "-1"]), st.integers(-3, 8), max_size=3
    ),
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


def _edited(base, path, action, value):
    """A copy of ``base`` with the field at ``path`` replaced, deleted or appended to."""
    if not path:
        return value
    obj = copy.deepcopy(base)
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    if action == "delete":
        del parent[last]
    elif action == "append" and isinstance(parent[last], list):
        parent[last].append(value)
    else:
        parent[last] = value
    return obj


def _mutate(data, base):
    path = data.draw(st.sampled_from(list(_paths(base))))
    action = data.draw(st.sampled_from(["replace", "delete", "append"]))
    return _edited(base, path, action, data.draw(VALUES))


def _only_typed_errors(read, obj):
    try:
        read(obj)
    except AnovaFitError:
        pass


def _model_obj(kind, normalization):
    rng = np.random.default_rng(0)
    lo, hi = kind.domain
    model = fit(rng.uniform(lo, hi, (30, 3)), rng.random(30), superposition_terms(3, 2),
                BandwidthProfile.from_list([4, 2]), kind)
    obj = model_to_obj(model)
    if normalization:
        obj["normalization"] = {
            "feature_min": [0.0, 0.0, 0.0], "feature_max": [1.0, 2.0, 3.0],
            "target_min": 0.0, "target_max": 1.0,
        }
    return obj


@pytest.fixture(scope="module")
def model_objs():
    return [_model_obj(BasisKind.COSINE, True), _model_obj(BasisKind.EXPONENTIAL, False)]


def _load_termset_obj(tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed_terms.json"

    def load(obj):
        path.write_text(json.dumps(obj), encoding="utf-8")
        return load_termset(path)

    return load


def test_every_field_set_to_an_edge_value(model_objs, tmp_path_factory):
    readers = [(model_from_obj, obj) for obj in model_objs]
    readers.append((_load_termset_obj(tmp_path_factory), TERMS))
    for read, base in readers:
        for path in _paths(base):
            _only_typed_errors(read, _edited(base, path, "delete", None))
            for value in EDGES:
                _only_typed_errors(read, _edited(base, path, "replace", value))


@FUZZ
@given(data=st.data())
def test_mutated_model_object_raises_only_typed_errors(model_objs, data):
    _only_typed_errors(model_from_obj, _mutate(data, data.draw(st.sampled_from(model_objs))))


@FUZZ
@given(data=st.data())
def test_mutated_term_set_file_raises_only_typed_errors(tmp_path_factory, data):
    _only_typed_errors(_load_termset_obj(tmp_path_factory), _mutate(data, TERMS))
