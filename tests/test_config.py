import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from subtrack.config import RunConfig
from subtrack.errors import ValidationError

FIELDS = [f.name for f in fields(RunConfig)]

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 60),
    st.floats(),  # nan and inf included
    st.floats(0, 2),
    st.text(max_size=6),
    st.sampled_from(["sst", "sst-lr"]),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_from_dict_returns_a_config_or_raises_validation_error(field, value):
    try:
        cfg = RunConfig.from_dict({field: value})
    except ValidationError as exc:
        assert field in str(exc)
        return
    assert getattr(cfg, field) == value
    # an accepted config survives config.json
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"tau1": True}, "tau1 must be an int, got True"),
        ({"tau2": 40.0}, "tau2 must be an int, got 40.0"),
        ({"tau2": float("inf")}, "tau2 must be an int, got inf"),
        ({"tau1": "1"}, "tau1 must be an int, got '1'"),
        ({"mode": None}, "mode must be a string, got None"),
        ({"mode": "lr"}, "unknown mode 'lr'"),
        ({"tau1": -1}, "need 0 <= tau1 <= tau2"),
        ({"tau1": 5, "tau2": 2}, "need 0 <= tau1 <= tau2"),
    ],
)
def test_invalid_field_named(doc, message):
    with pytest.raises(ValidationError) as info:
        RunConfig.from_dict(doc)
    assert str(info.value) == message


def test_null_include_settings_loads_as_absent():
    assert RunConfig.from_dict({"include_settings": None, "tau2": 30}) == RunConfig(tau2=30)
    assert "include_settings" not in RunConfig().to_dict()


@pytest.mark.parametrize("value", [True, False, 1, "yes"])
def test_set_include_settings_loads_and_is_ignored(value):
    # config documents written while the settings switch was a field; the
    # subspaces track the sensors at every K, so no value has a meaning
    assert RunConfig.from_dict({"include_settings": value, "tau2": 30}) == RunConfig(tau2=30)


@pytest.mark.parametrize("beta", [0.0235, 0.0, float("nan"), "wide"])
def test_retired_beta_loads_and_is_ignored(beta):
    # config documents written while matching took a fixed bandwidth; each
    # test unit's bandwidth now comes from its own distances
    assert RunConfig.from_dict({"beta": beta, "tau2": 30}) == RunConfig(tau2=30)
    assert "beta" not in RunConfig().to_dict()


@pytest.mark.parametrize("subspace_dim", [3, 0, 30, "three"])
def test_retired_subspace_dim_loads_and_is_ignored(subspace_dim):
    # config documents written while the subspace dimension was a field;
    # training reads it from the healthy spectrum, and a model document's
    # members hold it in their bases
    assert RunConfig.from_dict({"subspace_dim": subspace_dim, "tau2": 30}) == RunConfig(tau2=30)
    assert "subspace_dim" not in RunConfig().to_dict()


@pytest.mark.parametrize("delta", [0.01, 0, -1, float("inf"), "small"])
def test_retired_delta_loads_and_is_ignored(delta):
    # config documents written while the in-subspace weight was a field;
    # training reads it from the healthy spectrum, and a model document
    # holds it beside the members
    assert RunConfig.from_dict({"delta": delta, "tau2": 30}) == RunConfig(tau2=30)
    assert "delta" not in RunConfig().to_dict()


@pytest.mark.parametrize("n_regimes", [6, 1, 0, "six"])
def test_retired_n_regimes_loads_and_is_ignored(n_regimes):
    # config documents written while the regime count was a field; training
    # reads it from the settings, and a model document holds one member per regime
    assert RunConfig.from_dict({"n_regimes": n_regimes, "tau2": 30}) == RunConfig(tau2=30)
    assert "n_regimes" not in RunConfig().to_dict()


@pytest.mark.parametrize("doc", [{"healthy_cycles": 20, "smoothing": 0.3},
                                 {"healthy_cycles": 0, "smoothing": float("nan")},
                                 {"healthy_cycles": "twenty", "smoothing": True}])
def test_retired_healthy_window_and_smoothing_load_and_are_ignored(doc):
    # config documents written while the healthy window and the smoothing
    # factor were fields; they are the constants fit.HEALTHY_CYCLES and
    # health.SMOOTHING
    assert RunConfig.from_dict({**doc, "tau2": 30}) == RunConfig(tau2=30)
    assert not {"healthy_cycles", "smoothing"} & set(RunConfig().to_dict())


def test_the_fields_are_what_a_caller_sets():
    assert [f.name for f in fields(RunConfig)] == ["mode", "tau1", "tau2"]
