"""Property tests of the input boundary: whatever bytes an input file holds,
each loader either returns or raises a HierPollError, and the CLI turns that
error into exit 2 with no traceback."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpoll.cli import main
from hierpoll.errors import HierPollError, MaxIterationsExceeded
from hierpoll.estimate import load_observations
from hierpoll.fileio import _from_payload, load_channel, load_matrix, load_model

# the keys and recipe names the loaders read, so that generated objects get
# past the first lookup often enough to reach the builders behind it
KEYS = ("matrix", "type", "inputs", "outputs", "B", "beta", "N", "polled_depth",
        "target_depth", "B_level", "n_friends", "P", "channels", "costs", "rho",
        "variant", "measurement", "error_weights", "level_costs", "betas",
        "gamma1", "gamma2", "ctilde_weight", "alphabet", "sequences")
WORDS = ("matrix", "intent", "expectation", "friendship", "a", "b", "")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                     inner, max_size=5)),
    max_leaves=16)

file_bytes = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="0123456789.,-#ab \n", max_size=40).map(str.encode),
    json_values.map(lambda v: json.dumps(v).encode()),
)

LOADERS = (load_matrix, load_channel, load_model, load_observations)
# CLI calls that read the file, each with the loader it reads it by; one is
# drawn per example, since building the parser dominates a call's cost
CALLS = (
    (load_channel, ["capacity", "{f}"]),
    (load_model, ["solve", "--config", "{f}"]),
    (load_observations, ["estimate", "{f}", "--states", "2"]),
)


@settings(max_examples=100, deadline=None)
@given(content=file_bytes, suffix=st.sampled_from([".json", ".csv"]),
       call=st.sampled_from(CALLS))
def test_loaders_return_or_raise_a_package_error(content, suffix, call):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(content)
        failed = set()
        for loader in LOADERS:
            try:
                loader(path)
            except HierPollError as exc:
                assert str(path) in str(exc), (loader, exc)
                failed.add(loader)
        loader, argv = call
        if loader in failed:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([a.replace("{f}", str(path)) for a in argv])
            assert rc == 2, (argv, err.getvalue())
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert "Traceback" not in err.getvalue()


def test_package_error_keeps_its_type_and_index():
    def build(payload):
        raise MaxIterationsExceeded("did not converge", index=3)

    with pytest.raises(MaxIterationsExceeded, match=r"^input\.json: did not converge$") as info:
        _from_payload(build, None, "input.json")
    assert info.value.index == 3
