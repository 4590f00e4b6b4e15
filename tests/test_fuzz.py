"""Generated documents against parse_document and `cyclotile verify`.

parse_document either returns or raises ValueError, whatever JSON value
it is given; `verify` on the same value, written to a file, exits 0-3
with no traceback. P stays below 64 so that no example does much work.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cyclotile.cli import run
from cyclotile.coloring import parse_document

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=8), children, max_size=5)),
    max_leaves=20,
)
# a value that is wrong for any field: another JSON type, or an integer below 1
ODD = (st.none() | st.booleans() | st.integers(-3, 0) | st.floats(allow_nan=False)
       | st.text(max_size=4) | st.lists(st.integers(-2, 4), max_size=3)
       | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
POSITIVE = st.integers(1, 12) | st.integers(1, 10**30)


@st.composite
def near_valid_documents(draw):
    """Documents that are valid, or a field or two away from it."""

    def field(valid):  # mostly a valid value, sometimes a wrong one
        return draw(ODD) if draw(st.integers(0, 5)) == 0 else draw(valid)

    p = draw(st.integers(1, 63))
    doc = {
        "version": field(st.just(1)),
        "P": field(st.just(p)),
        "distances": field(st.lists(st.integers(0, 2 * p) | POSITIVE, min_size=1, max_size=6)),
        "b": field(POSITIVE),
        "c": field(POSITIVE),
        "colors": field(st.text(alphabet="BW", min_size=p, max_size=p)),
    }
    if draw(st.integers(0, 3)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]  # a missing field, or a parameters document
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return doc


def check_parse(doc):
    try:
        parse_document(doc)
    except ValueError:
        pass


def check_verify(doc):
    # a valid parameters document makes a tile of P entries
    assume(not (isinstance(doc, dict) and type(doc.get("P")) is int and doc["P"] >= 64))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["verify", path])
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert json.loads(out.getvalue())["kind"] in ("coloring", "parameters")


def fuzz(examples):
    return settings(max_examples=examples, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@fuzz(100)
@given(JSON_VALUES)
def test_parse_document_on_any_json_value(doc):
    check_parse(doc)


@fuzz(200)
@given(near_valid_documents())
def test_parse_document_on_near_valid_documents(doc):
    check_parse(doc)


@fuzz(100)
@given(JSON_VALUES)
def test_verify_on_any_json_value(doc):
    check_verify(doc)


@fuzz(200)
@given(near_valid_documents())
def test_verify_on_near_valid_documents(doc):
    check_verify(doc)
