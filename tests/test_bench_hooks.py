"""The traced benchmark run wraps spellcap functions by module attribute and
reads some of their arguments by position; a refactor that moves or
re-signatures one of them would break the traced run or silently corrupt
its per-layer metrics. These checks read the benchmark's hook table as is."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in layers.WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _, _ in layers.WRAPPED])
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_decoder_forward_tokens_is_argument_3():
    # the decoder_forward hook counts decoded positions as len(args[3])
    from spellcap.seq2seq.decode import decoder_forward

    assert list(inspect.signature(decoder_forward).parameters)[3] == "tokens"
