import numpy as np
import pytest

from ngram_graph.sdf import parse_sdf

from .synth import ETHANOL, METHANE, WATER, charge_line, molblock, sdf_stream


class TestParsing:
    def test_water_degrees(self):
        records, errors = parse_sdf(sdf_stream(WATER))
        assert not errors
        (rec,) = records
        assert rec.name == "water"
        assert rec.symbols == ("O", "H", "H")
        assert np.bincount(rec.bonds[:, :2].ravel() - 1).tolist() == [2, 1, 1]

    def test_charge_code_five_is_minus_one(self):
        block = molblock("anion", ["O"], [], charge_codes=[5])
        records, errors = parse_sdf(block)
        assert not errors
        assert records[0].charges[0] == -1

    def test_all_charge_codes(self):
        block = molblock("zoo", ["C"] * 7, [], charge_codes=[0, 1, 2, 3, 5, 6, 7])
        records, _ = parse_sdf(block)
        assert records[0].charges.tolist() == [0, 3, 2, 1, -1, -2, -3]

    def test_radical_code_warns_and_zeroes(self):
        block = molblock("radical", ["C"], [], charge_codes=[4])
        records, errors = parse_sdf(block)
        assert not errors
        assert records[0].charges[0] == 0
        assert any("radical" in w for w in records[0].warnings)

    def test_radical_warnings_per_record(self):
        """Radicals in the second and third records, several each, a bad
        record between them, and an ``M  CHG`` record whose radical markers
        are superseded: each record warns of its own radicals, numbered
        within it, as it would alone."""
        specs = [  # name, charge codes, M  CHG pairs
            ("plain", [0, 1, 0], ()),
            ("two", [4, 0, 4, 4], ()),
            ("three", [0, 4, 5, 0, 4], ()),
            ("ion", [4, 4, 0], ((2, 1),)),
            ("last", [0, 0, 4], ()),
        ]
        blocks = [molblock(name, ["C"] * len(codes), [(1, 2, 1)], codes,
                           props=[charge_line(*chg)] if chg else [])
                  for name, codes, chg in specs]
        blocks.insert(2, molblock("bad", ["C", "C"], [(1, 2, 5)], [4, 4]))
        records, errors = parse_sdf(sdf_stream(*blocks))
        assert [e.message for e in errors] == ["bond 1: order 5 outside 1..4"]
        assert [r.name for r in records] == [name for name, _, _ in specs]
        for rec, (_, codes, chg) in zip(records, specs):
            expected = () if chg else tuple(
                f"atom {i + 1}: radical charge code 4 treated as charge 0"
                for i, code in enumerate(codes) if code == 4)
            assert rec.warnings == expected

    def test_empty_stream(self):
        records, errors = parse_sdf("")
        assert records == [] and errors == []

    def test_plain_mol_without_delimiter(self):
        records, errors = parse_sdf(WATER)
        assert len(records) == 1 and not errors

    def test_multi_record_order(self):
        records, _ = parse_sdf(sdf_stream(WATER, METHANE, ETHANOL))
        assert [r.name for r in records] == ["water", "methane", "ethanol"]


class TestErrors:
    def test_malformed_counts_line_carries_line_number(self):
        bad = "junk\n\n\nnot a counts line\n"
        records, errors = parse_sdf(sdf_stream(bad, WATER))
        assert len(records) == 1  # parsing continued with the next record
        assert len(errors) == 1
        assert errors[0].line == 1
        assert "counts line" in errors[0].message

    def test_negative_count_rejected(self):
        # a fuzzed " 3 -2" counts line once read past the atom block
        lines = WATER.splitlines()
        lines[3] = "  3 -2" + lines[3][6:]
        records, errors = parse_sdf("\n".join(lines[:5]))
        assert not records
        assert "negative count" in errors[0].message

    def test_truncated_atom_block(self):
        truncated = "\n".join(WATER.splitlines()[:5])
        records, errors = parse_sdf(truncated)
        assert not records
        assert "truncated" in errors[0].message

    def test_non_v2000_tag_rejected(self):
        bad = WATER.replace("V2000", "V3000")
        records, errors = parse_sdf(bad)
        assert not records
        assert "V3000" in errors[0].message

    def test_bond_endpoint_out_of_range(self):
        bad = molblock("bad", ["C", "C"], [(1, 5, 1)])
        records, errors = parse_sdf(bad)
        assert not records and "out of range" in errors[0].message

    def test_duplicate_bond_rejected(self):
        bad = molblock("dup", ["C", "C"], [(1, 2, 1), (2, 1, 1)])
        _, errors = parse_sdf(bad)
        assert errors and "duplicate" in errors[0].message

    def test_bond_order_out_of_range(self):
        bad = molblock("order", ["C", "C"], [(1, 2, 9)])
        _, errors = parse_sdf(bad)
        assert errors and "order" in errors[0].message

    @pytest.mark.parametrize("old,new", [("\n$$$$\n", "\nB$$$\n"),
                                         ("M  END\n$$$$\n", "M  END5$$$$\n")],
                             ids=["letter-in-delimiter", "delimiter-joined-to-m-end"])
    def test_damaged_delimiter_does_not_merge_two_records(self, old, new):
        stream = sdf_stream(WATER, METHANE).replace(old, new, 1)
        records, errors = parse_sdf(stream)
        assert len(records) + len(errors) == 2
        second_end = stream.splitlines().index("M  END", len(WATER.splitlines())) + 1
        assert (errors[0].line, errors[0].message) == (
            1, f"second M  END at line {second_end}: a damaged $$$$ line merged two records")

    def test_second_record_error_line_number(self):
        truncated = "\n".join(WATER.splitlines()[:5])
        stream = sdf_stream(WATER, truncated)
        _, errors = parse_sdf(stream)
        water_lines = len(WATER.splitlines())
        assert errors[0].line == water_lines + 2  # after record and $$$$ line


class TestChargeLines:
    """``M  CHG`` property lines supersede every atom-block charge of their
    record (CTfile V2000)."""

    def test_charge_line_sets_charges(self):
        block = molblock("alkoxide", ["C", "O"], [(1, 2, 1)], props=[charge_line((2, -1))])
        records, errors = parse_sdf(block)
        assert not errors
        assert records[0].charges.tolist() == [0, -1]

    def test_atom_block_charges_and_radical_marker_ignored(self):
        block = molblock("mixed", ["N", "C", "O"], [(1, 2, 1), (2, 3, 1)],
                         charge_codes=[3, 4, 5], props=[charge_line((1, 1))])
        records, errors = parse_sdf(block)
        assert not errors
        assert records[0].charges.tolist() == [1, 0, 0]
        assert records[0].warnings == ()

    def test_several_lines_and_pairs(self):
        props = [charge_line((1, 2), (3, -2)), charge_line(*[(2, 1)] * 7 + [(2, -3)])]
        block = molblock("ions", ["N", "C", "O"], [(1, 2, 1), (2, 3, 1)], props=props)
        records, errors = parse_sdf(block)
        assert not errors
        assert records[0].charges.tolist() == [2, -3, -2]  # a later pair wins

    def test_line_after_m_end_is_data(self):
        block = molblock("water", ["O", "H", "H"], [(1, 2, 1), (1, 3, 1)],
                         charge_codes=[5, 0, 0])
        records, errors = parse_sdf(block + "\n" + charge_line((1, 2)))
        assert not errors
        assert records[0].charges.tolist() == [-1, 0, 0]

    @pytest.mark.parametrize("line,message", [
        ("M  CHG  0", "M  CHG line 8: count 0 outside 1..8"),
        ("M  CHG  9" + "   1   1" * 9, "M  CHG line 8: count 9 outside 1..8"),
        ("M  CHG", "M  CHG line 8: empty count field"),
        ("M  CHG  x   1   1", "M  CHG line 8: invalid literal for int() with base 10: 'x'"),
        ("M  CHG  2   1   1", "M  CHG line 8: empty atom field"),
        ("M  CHG  1   1  +a", "M  CHG line 8: invalid literal for int() with base 10: '+a'"),
        ("M  CHG  1 1.5   1", "M  CHG line 8: invalid literal for int() with base 10: '1.5'"),
        ("M  CHG  1   3  -1", "M  CHG line 8: atom 3 out of range"),
        ("M  CHG  1   0  -1", "M  CHG line 8: atom 0 out of range"),
    ], ids=["zero-count", "count-over-8", "no-count", "bad-count", "missing-pair",
            "bad-charge", "bad-atom", "atom-past-end", "atom-zero"])
    def test_malformed_line_is_a_record_error(self, line, message):
        bad = molblock("bad", ["C", "O"], [(1, 2, 1)], props=[line])
        records, errors = parse_sdf(sdf_stream(bad, WATER))
        assert [r.name for r in records] == ["water"]
        assert [(e.line, e.message) for e in errors] == [(1, message)]

    def test_bad_line_in_second_record_is_numbered_in_the_stream(self):
        bad = molblock("bad", ["C", "O"], [(1, 2, 1)], props=["M  CHG  1   7   1"])
        _, errors = parse_sdf(sdf_stream(WATER, bad))
        start = len(WATER.splitlines()) + 2
        assert [(e.line, e.message) for e in errors] == [
            (start, f"M  CHG line {start + 7}: atom 7 out of range")]
