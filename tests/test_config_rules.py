"""The value rules of the config dataclasses (``errors.rule``/``check_fields``).

Every numeric field of ``NoiseConfig``, ``ModelConfig`` and ``TrainConfig``
carries a named rule, a value outside it is a ConfigError of one form, and a
config file of random keys and values builds the config or raises a
ConfigError, never another exception.
"""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellcap.cli import read_config
from spellcap.datagen import NoiseConfig
from spellcap.errors import RULES, ConfigError
from spellcap.seq2seq import ModelConfig, TrainConfig

CLASSES = (NoiseConfig, ModelConfig, TrainConfig)
REQUIRED = {ModelConfig: {"vocab_size": 64}}  # fields without a default

# Values just outside each rule, on every side it has.
OUTSIDE = {
    "positive": (0,),
    "non-negative": (-1,),
    "finite and positive": (0.0, math.inf, math.nan),
    "finite and non-negative": ((-1e-9, 1.0, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, 1.0, 1.0),
                                (math.nan, 1.0, 1.0, 1.0, 1.0)),
    "in [0, 1]": (-1e-9, math.nextafter(1.0, 2.0), math.nan),
    "in (0, 1]": (0.0, math.nextafter(1.0, 2.0)),
    "in [0, 1)": (-1e-9, 1.0),
    "in [0, 0.5]": (-1e-9, math.nextafter(0.5, 1.0)),
    "1..3": (0, 4),
}

RULED = [(cls, f.name, value)
         for cls in CLASSES for f in fields(cls) if "rule" in f.metadata
         for value in OUTSIDE[f.metadata["rule"]]]


def test_every_numeric_field_carries_a_known_rule():
    numeric = (int, float, int | None, tuple[float, ...])
    unruled = [f"{cls.__name__}.{f.name}" for cls in CLASSES for f in fields(cls)
               if f.type in numeric and f.metadata.get("rule") not in RULES]
    assert not unruled, f"numeric config fields without a rule: {unruled}"


@pytest.mark.parametrize("cls, key, value", RULED,
                         ids=[f"{c.__name__}.{k}={v!r}" for c, k, v in RULED])
def test_value_outside_its_rule_names_the_key(cls, key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        cls(**REQUIRED.get(cls, {}) | {key: value})


_NUMBER = st.one_of(st.integers(-3, 300), st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-0.5, 1.5)).map(str)
_VALUE = st.one_of(_NUMBER, st.lists(_NUMBER, max_size=6).map(",".join),
                   st.text(alphabet="abmnq0123456789.,-+e ", max_size=8))


@st.composite
def _config_text(draw, cls):
    keys = [f.name for f in fields(cls)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    chosen += [k for k in REQUIRED.get(cls, {}) if k not in chosen]
    return "".join(f"{key}={draw(_VALUE)}\n" for key in chosen)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "config.txt"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_random_config_file_builds_or_is_config_error(config_path, cls):
    @settings(max_examples=200, deadline=None)
    @given(text=_config_text(cls))
    def check(text):
        config_path.write_text(text)
        try:
            assert isinstance(cls(**read_config(config_path, cls)), cls)
        except ConfigError:
            pass

    check()
