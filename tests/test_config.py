import pytest

from fuxi_alpha.config import DEFAULTS, ConfigError, resolve_config


def test_empty_document_yields_defaults():
    resolved = resolve_config({})
    assert resolved == DEFAULTS
    assert resolved is not DEFAULTS  # deep copied


def test_document_values_override_defaults():
    resolved = resolve_config({"model": {"layers": 4}, "train": {"lr": 0.01}})
    assert resolved["model"]["layers"] == 4
    assert resolved["train"]["lr"] == 0.01
    assert resolved["model"]["d"] == DEFAULTS["model"]["d"]


def test_override_applies_last():
    resolved = resolve_config({"model": {"layers": 4}}, overrides=["model.layers=8"])
    assert resolved["model"]["layers"] == 8


def test_unknown_keys_all_reported_at_once():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"model": {"bogus": 1}, "data": {"nope": 2}, "mystery": {}})
    msg = str(exc.value)
    assert "model.bogus" in msg and "data.nope" in msg and "mystery" in msg


def test_type_mismatch_in_document():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"model": {"layers": "two"}})
    assert "model.layers" in str(exc.value) and "int" in str(exc.value)


def test_override_type_mismatch_names_key_and_type():
    with pytest.raises(ConfigError) as exc:
        resolve_config({}, overrides=["model.layers=x"])
    msg = str(exc.value)
    assert "model.layers" in msg and "int" in msg


def test_override_unknown_key():
    with pytest.raises(ConfigError) as exc:
        resolve_config({}, overrides=["model.width=4"])
    assert "model.width" in str(exc.value)


def test_list_override_parses_json():
    resolved = resolve_config({}, overrides=["eval.ks=[5, 20]"])
    assert resolved["eval"]["ks"] == [5, 20]


def test_float_accepts_int_in_document():
    resolved = resolve_config({"train": {"lr": 1}})
    assert resolved["train"]["lr"] == 1.0


def test_list_element_type_checked():
    with pytest.raises(ConfigError):
        resolve_config({"eval": {"ks": [10, "fifty"]}})


def test_override_errors_match_document_errors():
    for override, document in [
        ("model.layers=x", {"model": {"layers": "x"}}),
        ('eval.ks=["x"]', {"eval": {"ks": ["x"]}}),
        ("model.width=4", {"model": {"width": 4}}),
    ]:
        with pytest.raises(ConfigError) as from_override:
            resolve_config({}, overrides=[override])
        with pytest.raises(ConfigError) as from_document:
            resolve_config(document)
        assert from_override.value.problems == from_document.value.problems


@pytest.mark.parametrize("override", ["train.lr=nan", "train.lr=inf", "model.d=1_000"])
def test_override_numbers_are_json(override):
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=f"{key}: expected"):
        resolve_config({}, overrides=[override])
