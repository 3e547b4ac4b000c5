import json

import pytest

from difftrace.cli import _algebra_json
from difftrace.ringfile import (
    RingFileError,
    load_ring,
    loads_ring,
)
from difftrace.rings import HomogeneityError

CROSS = """\
# coordinate cross in three-space
vars: x, y, z
ideal: x*y, x*z
assume: reduced
"""


class TestParsing:
    def test_golden(self):
        desc = loads_ring(CROSS)
        R = desc.algebra
        assert R.sig.names == ("x", "y", "z")
        assert R.sig.weights == (1, 1, 1)
        assert [str(g) for g in R.defining.gens] == ["x*y", "x*z"]
        assert R.asserted_reduced
        assert not R.asserted_equidimensional
        assert desc.assumptions == ("reduced",)
        assert desc.ideal_texts == ("x*y", "x*z")

    def test_weights_default_to_one(self):
        desc = loads_ring("vars: a=2, b=3, c\nideal: a^3 - b^2")
        assert desc.algebra.sig.weights == (2, 3, 1)

    def test_weight_in_any_decimal_script(self):
        # int() reads every Unicode decimal digit, here an Arabic-Indic three
        desc = loads_ring("vars: x=\u0663, y")
        assert desc.algebra.sig.weights == (3, 1)

    def test_comments_and_blank_lines(self):
        text = "\n# header\nvars: x # trailing\n\nideal: \n"
        desc = loads_ring(text)
        assert desc.algebra.sig.names == ("x",)
        assert desc.algebra.defining.gens == ()

    def test_assume_both_tokens(self):
        desc = loads_ring("vars: x\nassume: reduced, equidimensional")
        assert desc.algebra.asserted_reduced
        assert desc.algebra.asserted_equidimensional

    def test_assume_lines_accumulate(self):
        desc = loads_ring("vars: x\nassume: reduced\nassume: equidimensional")
        assert set(desc.assumptions) == {"reduced", "equidimensional"}

    def test_no_assume_means_no_flags(self):
        R = loads_ring("vars: x, y").algebra
        assert not R.asserted_reduced
        assert not R.asserted_equidimensional


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("ideal: x", "missing vars"),
        ("vars: x\nvars: y", "line 2: duplicate vars"),
        ("vars: x\nideal: x^2\nideal: x^3", "line 3: duplicate ideal"),
        ("vars: x\nassume: shiny", "line 2: unknown assumption 'shiny'"),
        ("vars: x,,y", "line 1: empty variable entry"),
        ("vars: x=0", "must be a positive integer"),
        ("vars: x=fast", "must be a positive integer"),
        # a digit that int() does not read, such as a superscript two
        ("vars: x=\u00b2, y", "line 1: weight of 'x' must be a positive integer"),
        ("vars: 2x", "line 1"),
        ("vars: x\nideal: x+, y", "line 2: bad polynomial"),
        ("vars: x\nideal: x, , x^2", "line 2: empty ideal entry"),
        ("whatever: x", "line 1: expected 'vars:'"),
        ("vars: x, x", "line 1"),
    ])
    def test_malformed_inputs_carry_line_numbers(self, text, fragment):
        with pytest.raises(RingFileError) as err:
            loads_ring(text)
        assert fragment in str(err.value)

    def test_inhomogeneous_generator(self):
        with pytest.raises(HomogeneityError) as err:
            loads_ring("vars: x, y\nideal: x^2 + y")
        assert "line 2" in str(err.value)
        assert "x^2 + y" in str(err.value)

    def test_weighted_homogeneity_uses_weights(self):
        # degree 6 on both sides under weights (2, 3)
        desc = loads_ring("vars: a=2, b=3\nideal: a^3 - b^2")
        assert [str(g) for g in desc.algebra.defining.gens] == ["a^3 - b^2"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(RingFileError) as err:
            load_ring(str(tmp_path / "absent.ring"))
        assert "cannot read" in str(err.value)


class TestRoundTrip:
    def test_load_ring_reads_path(self, tmp_path):
        p = tmp_path / "cross.ring"
        p.write_text(CROSS, encoding="utf-8")
        desc = load_ring(str(p))
        assert desc.path == str(p)
        assert desc.algebra.sig.names == ("x", "y", "z")

    def test_as_json_deterministic(self):
        a = _algebra_json(loads_ring(CROSS).algebra)
        b = _algebra_json(loads_ring(CROSS).algebra)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["vars"][0] == {"name": "x", "weight": 1}
        assert a["ideal"] == ["x*y", "x*z"]
        assert a["assume"] == ["reduced"]

    def test_assume_serialized_sorted(self):
        desc = loads_ring("vars: x\nassume: reduced\nassume: equidimensional")
        assert _algebra_json(desc.algebra)["assume"] == ["equidimensional", "reduced"]
